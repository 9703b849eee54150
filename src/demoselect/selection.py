"""Demonstration selection strategies.

All strategies return a :class:`DemonstrationSet`, and all rank pool
examples by one retriever score with ties broken by id. They work on pool
rows: a :class:`Pool` holds its examples in id order, so row ``r`` is the
``r``-th smallest id, and scores, posting lists and picks are arrays over
rows. The ``(-score, id)`` order is then the stable order of ``-scores``:
top-k and DPP sort the survivors of a partition stably, and the coverage
strategies pick, among an element's candidate rows (ascending), the first
of the highest score. An ``(id, score)`` pair is built only for a pick.

Selectors take only this row form: the bundle's ``pool``, the
:class:`~demoselect.retrieval.Scores` of its retrievers, its posting lists
(:data:`Postings`) and its tf-idf :class:`~demoselect.retrieval.SparseRows`;
the coverage strategies require ``postings``. A pool is made by indexing
its examples (:func:`~demoselect.corpus.build_indexes`). Rows over other
ids raise ``ValueError``.

The coverage strategies walk a sorted element list (largest structure
first, or rarest token first), greedily picking the retriever-best pool
example containing each uncovered element, dropping covered elements and
same-template pool examples after every pick, and restarting the walk until
``k`` examples are chosen.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidKError
from .programs import DEFAULT_DIALECT, DialectConfig
from .retrieval import (
    ColumnPostings,
    RowPostings,
    Scores,
    SparseRows,
    row_of,
    tokenize_utterance,
)
from .structures import CodedStructures, ls_size, read_structures

Q_FLOOR = 1e-6
GAIN_EPS = 1e-12
RANK_TOL = 1e-9
CANDIDATE_POOL_SIZE = 200  # the DPP candidates: the top-scoring rows
_NO_ROWS = np.empty(0, np.intp)
# the posting lists of pool rows a selector takes: an index's stored structure
# columns, or any term -> rows dict
Postings = ColumnPostings | RowPostings


@dataclass
class DemonstrationSet:
    items: list[tuple[str, float]]
    k: int
    strategy: str
    coverage_trace: list[tuple[str, str | None]] = field(default_factory=list)
    underfilled: bool = False
    gains: list[float] = field(default_factory=list)

    @property
    def ids(self) -> list[str]:
        return [i for i, _ in self.items]


class Pool(Mapping):
    """The selection pool: a read-only mapping from id to example over rows
    in id order, ``examples[r]`` being the example of ``ids[r]``; the caller
    sorts the ids. ``examples`` may run on past the pool's rows, as an
    index's corpus does, and is read only at the rows a caller reads. The
    rows' readers are given, as an index serves them: ``template_codes``
    holds one code per row, equal for rows of equal template, and
    ``structures(r)`` and ``tokens(r)`` give the structures and utterance
    tokens of row ``r``. The selectors read only these, and build no example."""

    def __init__(
        self,
        ids: list[str],
        examples: Sequence,
        template_codes: np.ndarray,
        structures: Callable[[int], Iterable[str]],
        tokens: Callable[[int], Iterable[str]],
    ):
        self.ids = ids
        self.examples = examples
        self.template_codes = template_codes
        self.structures = structures
        self.tokens = tokens

    def __getitem__(self, key: str):
        return self.examples[row_of(self.ids, key)]

    def __contains__(self, key: object) -> bool:
        try:
            row_of(self.ids, key)
        except KeyError:
            return False
        return True

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def values(self) -> list:
        return self.examples[: len(self.ids)]


def _check_aligned(ids: list[str], *rows) -> None:
    """Raise ``ValueError`` unless each of ``rows`` is over the pool rows
    ``ids``: the same list, or an equal one."""
    for row in rows:
        other = getattr(row, "ids", None)
        if not (other is ids or other == ids):
            raise ValueError(f"{type(row).__name__} is not aligned with the pool's rows")


def _best_rows(values: np.ndarray, k: int, rows: np.ndarray | None = None) -> np.ndarray:
    """The (at most) ``k`` of ``rows`` (ascending; all rows by default) with
    the highest values, best first, ties in row order: the partition's k-th
    value bounds the survivors, and only they are sorted, stably."""
    if rows is None:
        rows = np.arange(len(values))
    if k < len(rows):
        part = values[rows]
        kth = np.partition(part, len(rows) - k)[len(rows) - k]
        rows = rows[part >= kth]
    return rows[np.argsort(-values[rows], kind="stable")][:k]


def _cover(
    walk: list[str],
    candidates: list[np.ndarray],
    pool: Pool,
    values: np.ndarray,
    k: int,
    terms: Callable[[int], Iterable[str]],
    strategy: str,
    rng: random.Random | None = None,
    exclude: str | None = None,
) -> DemonstrationSet:
    """Cover the payloads of ``walk``, in its order: ``values[r]`` scores
    row ``r``, ``candidates[i]`` lists the rows holding ``walk[i]``
    (ascending) and ``terms(r)`` the payloads row ``r`` covers. The pool id
    ``exclude`` is never picked. With ``rng`` the pick among an element's
    candidates is uniform, else the retriever-best."""
    if k <= 0:
        raise InvalidKError(f"k must be positive, got {k}")
    templates = pool.template_codes
    # a row is blocked once its template is used, and the excluded row always
    blocked = np.zeros(len(templates), bool)
    if exclude is not None and exclude in pool:
        blocked[row_of(pool.ids, exclude)] = True
    chosen: list[int] = []
    trace: list[tuple[str, str | None]] = []
    while len(chosen) < k:
        uncovered = set(walk)
        progress = False
        for i, payload in enumerate(walk):
            if payload not in uncovered:
                continue
            # blocked rows stay blocked: keep only the open candidates
            rows = candidates[i]
            if len(rows):
                rows = candidates[i] = rows[~blocked[rows]]
            if not len(rows):
                trace.append((payload, None))
                continue
            if rng is None:
                # the first of the highest scores: rows ascend in id order
                best = int(rows[np.argmax(values[rows])])
            else:
                best = rng.choice(rows.tolist())
            chosen.append(best)
            trace.append((payload, pool.ids[best]))
            uncovered.difference_update(terms(best))
            blocked |= templates == templates[best]
            progress = True
            if len(chosen) == k:
                break
        if not progress:
            break
    return DemonstrationSet(
        items=[(pool.ids[r], float(values[r])) for r in chosen],
        k=k,
        strategy=strategy,
        coverage_trace=trace,
        underfilled=len(chosen) < k,
    )


def _structure_walk(
    elements: Iterable[str] | CodedStructures, max_ls_size: int | None, postings: Postings
) -> tuple[list[str], list[np.ndarray]]:
    """The structures of at most ``max_ls_size`` nodes, largest first, ties
    in name order, and the pool rows holding each. ``elements`` are
    structure names, or a target's structures coded over the vocabulary of
    ``postings``, then an index's :class:`~demoselect.retrieval.ColumnPostings`:
    their sizes are known, and their rows are read by code in one pass."""
    if isinstance(elements, CodedStructures):
        sizes = elements.sizes
        order = np.argsort(-sizes, kind="stable")  # the names ascend: ties keep their order
        if max_ls_size is not None:
            order = order[sizes[order] <= max_ls_size]
        walk = list(map(elements.names.__getitem__, order.tolist()))
        return walk, postings.take(elements.codes[order])
    sized = sorted((-ls_size(c), c) for c in elements)
    walk = [c for size, c in sized if max_ls_size is None or -size <= max_ls_size]
    return walk, [postings.get(c, _NO_ROWS) for c in walk]


def cover_ls(
    elements: Iterable[str] | CodedStructures,
    pool: Pool,
    scores: Scores,
    k: int,
    max_ls_size: int | None = None,
    pick: str = "retriever-top",
    seed: int | None = None,
    *,
    postings: Postings,
) -> DemonstrationSet:
    """Greedy structure-coverage selection over predicted local structures
    (names, or coded as :func:`_structure_walk` reads them); ``postings``
    lists the pool rows holding each structure."""
    _check_aligned(pool.ids, scores, postings)
    rng = random.Random(seed) if pick == "uniform-random" else None
    walk, candidates = _structure_walk(elements, max_ls_size, postings)
    return _cover(
        walk,
        candidates,
        pool,
        scores.array,
        k,
        terms=pool.structures,
        strategy="cover-ls",
        rng=rng,
    )


def cover_utt(
    utterance: str,
    pool: Pool,
    scores: Scores,
    k: int,
    idf: Callable[[str], float] | None = None,
    *,
    postings: Postings,
) -> DemonstrationSet:
    """Same coverage loop over the test utterance's words (rarest first);
    ``postings`` lists the pool rows holding each word."""
    _check_aligned(pool.ids, scores, postings)
    words = list(dict.fromkeys(tokenize_utterance(utterance)))
    if idf is not None:
        words.sort(key=lambda t: -idf(t))  # stable: equal weights keep utterance order
    return _cover(
        words,
        [postings.get(word, _NO_ROWS) for word in words],
        pool,
        scores.array,
        k,
        terms=pool.tokens,
        strategy="cover-utt",
    )


def select_top_k(pool: Pool, scores: Scores, k: int) -> DemonstrationSet:
    """The k highest-scoring distinct examples; ties broken by id."""
    if k <= 0:
        raise InvalidKError(f"k must be positive, got {k}")
    _check_aligned(pool.ids, scores)
    values = scores.array
    rows = _best_rows(values, k)
    items = list(zip(map(pool.ids.__getitem__, rows.tolist()), values[rows].tolist()))
    return DemonstrationSet(
        items=items, k=k, strategy="top-k", underfilled=len(items) < k
    )


def select_random(pool: Pool, k: int, seed: int | None = None) -> DemonstrationSet:
    """Uniform sample without replacement, reproducible per seed."""
    if k <= 0:
        raise InvalidKError(f"k must be positive, got {k}")
    rng = random.Random(seed)
    take = min(k, len(pool.ids))
    items = [(i, 0.0) for i in rng.sample(pool.ids, take)]
    return DemonstrationSet(
        items=items, k=k, strategy="random", underfilled=len(items) < k
    )


def _best_gain(row_gains: np.ndarray) -> tuple[float, int | None]:
    """The best gain and its row: in row order, a gain replaces the best only
    if it exceeds it by more than ``GAIN_EPS``. The best is never ``GAIN_EPS``
    below the prefix maximum, so only row 0 and strict prefix maxima are scanned."""
    prefix = np.maximum.accumulate(row_gains)
    rows = [0, *(np.flatnonzero(row_gains[1:] > prefix[:-1]) + 1).tolist()]
    best_gain, best_row = -np.inf, None
    for row, gain in zip(rows, row_gains[rows].tolist()):
        if gain > best_gain + GAIN_EPS:
            best_gain, best_row = gain, row
    return best_gain, best_row


def dpp_select(
    scores: Scores,
    vectors: SparseRows,
    k: int,
    candidate_pool_size: int = CANDIDATE_POOL_SIZE,
) -> DemonstrationSet:
    """Greedy log-det maximization of the quality/similarity kernel.

    The kernel over candidates is ``L = diag(q) @ S @ diag(q)`` where ``q``
    holds retriever scores normalized by the maximum score (floored at 1e-6)
    and ``S`` holds cosine similarities of the tf-idf structure rows
    (:func:`~demoselect.retrieval.ls_tfidf_vectors`). Candidates are the
    ``candidate_pool_size`` top-scoring ids with nonempty rows. Their rows
    are scattered into ``phi`` over the columns they use, in ascending
    column order.

    The greedy step keeps, for every candidate, ``d2[row]``: the Schur
    complement of its diagonal entry given the picks so far, so that its
    gain ``log(d2[row])`` equals ``logdet(L[grown]) - logdet(L[picked])``.
    After a pick ``j`` one row of the incremental Cholesky factor ``C``,
    ``e = (L[j] - C[:t, j] @ C[:t]) / sqrt(d2[j])``, updates every
    complement by ``d2 -= e**2`` (Chen, Zhang & Zhou, NeurIPS 2018): O(n·k²)
    in total instead of a determinant per candidate per step. A candidate
    stays eligible only while ``d2[row] > RANK_TOL * L[row, row]``, so
    selection stops early, underfilled, at the kernel's numerical rank.
    """
    if k <= 0:
        raise InvalidKError(f"k must be positive, got {k}")
    _check_aligned(scores.ids, vectors)
    values = scores.array
    candidates = _best_rows(values, candidate_pool_size, vectors.nonempty)
    n = len(candidates)
    if n == 0:
        return DemonstrationSet(items=[], k=k, strategy="dpp", underfilled=True)

    max_score = values.max()
    if max_score > 0:
        q = np.maximum(values[candidates] / max_score, Q_FLOOR)
    else:
        q = np.full(n, Q_FLOOR)
    lengths, columns, weights = vectors.take(candidates)
    # phi's columns: the columns the candidates use, ascending, found
    # without a sort
    used = np.zeros(columns.max() + 1, bool)
    used[columns] = True
    coord = np.cumsum(used) - 1
    width = coord[-1] + 1
    phi = np.zeros(n * width)  # filled through flat indexes
    phi[np.repeat(np.arange(n) * width, lengths) + coord[columns]] = weights
    phi = phi.reshape(n, width)
    kernel = (q[:, None] * q[None, :]) * (phi @ phi.T)

    selected: list[int] = []
    gains: list[float] = []
    d2 = kernel.diagonal().copy()
    floor = RANK_TOL * kernel.diagonal()
    factor = np.zeros((min(k, n), n))
    while len(selected) < min(k, n):
        eligible = d2 > floor
        row_gains = np.full(n, -np.inf)
        row_gains[eligible] = np.log(d2[eligible])
        best_gain, best_row = _best_gain(row_gains)
        if best_row is None or not np.isfinite(best_gain):
            break
        t = len(selected)
        residual = kernel[best_row] - factor[:t, best_row] @ factor[:t]
        factor[t] = residual / np.sqrt(d2[best_row])
        d2 -= factor[t] ** 2
        d2[best_row] = 0.0  # a picked row has no complement left
        selected.append(best_row)
        gains.append(best_gain)
    picks = candidates[selected]
    items = list(zip(map(scores.ids.__getitem__, picks.tolist()), values[picks].tolist()))
    return DemonstrationSet(
        items=items,
        k=k,
        strategy="dpp",
        underfilled=len(items) < k,
        gains=gains,
    )


def training_mode_select(
    structures: Iterable[str] | CodedStructures,
    pool: Pool,
    k: int,
    seed: int | None = None,
    *,
    postings: Postings,
    exclude: str | None = None,
) -> DemonstrationSet:
    """Training-time picks: cover the gold program's symbols (its size-1
    ``structures``, names or coded as for :func:`cover_ls`) with uniformly
    random containing examples, avoiding retriever-driven near-copies.
    ``exclude`` is the target's own pool id."""
    _check_aligned(pool.ids, postings)
    walk, candidates = _structure_walk(structures, 1, postings)
    return _cover(
        walk,
        candidates,
        pool,
        np.zeros(len(pool.ids)),
        k,
        terms=pool.structures,
        strategy="cover-ls-train",
        rng=random.Random(seed),
        exclude=exclude,
    )


def oracle_elements(
    gold_program: str, dialect: DialectConfig = DEFAULT_DIALECT
) -> set[str]:
    """Local structures of the anonymized gold program (any size)."""
    return set(read_structures(gold_program, dialect).counts)

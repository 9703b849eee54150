"""Demonstration selection strategies.

All strategies return a :class:`DemonstrationSet`. The coverage strategies
walk a sorted element list (largest structure first, or rarest token first),
greedily picking the retriever-best pool example containing each uncovered
element, dropping covered elements and same-template pool examples after
every pick, and restarting the walk until ``k`` examples are chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import InvalidKError
from .programs import DEFAULT_DIALECT, DialectConfig
from .retrieval import term_postings, tokenize_utterance
from .structures import ls_size, program_structures

Q_FLOOR = 1e-6
GAIN_EPS = 1e-12
RANK_TOL = 1e-9


@dataclass(frozen=True)
class CoverageElement:
    payload: str
    weight: float


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


def _cover(
    elements: list[CoverageElement],
    pool: Mapping[str, object],
    scores: Mapping[str, float],
    k: int,
    terms: Callable[[object], Iterable[str]],
    strategy: str,
    rng: random.Random | None = None,
    postings: Mapping[str, list[str]] | None = None,
    exclude: str | None = None,
) -> DemonstrationSet:
    """``terms(example)`` lists the payloads an example covers; ``postings``
    (built from ``terms`` when not given) may name ids outside the pool. The
    pool id ``exclude`` is never picked."""
    if k <= 0:
        raise InvalidKError(f"k must be positive, got {k}")
    if postings is None:
        postings = term_postings({i: terms(ex) for i, ex in pool.items()})
    chosen: list[tuple[str, float]] = []
    trace: list[tuple[str, str | None]] = []
    used_templates: set[str] = set()
    while len(chosen) < k:
        uncovered = {e.payload for e in elements}
        progress = False
        for element in elements:
            if element.payload not in uncovered:
                continue
            candidates = [
                i
                for i in postings.get(element.payload, ())
                if i in pool and i != exclude and pool[i].template not in used_templates
            ]
            if not candidates:
                trace.append((element.payload, None))
                continue
            if rng is None:
                best = min(candidates, key=lambda i: (-scores.get(i, 0.0), i))
            else:
                best = rng.choice(sorted(candidates))
            example = pool[best]
            chosen.append((best, scores.get(best, 0.0)))
            trace.append((element.payload, best))
            uncovered.difference_update(terms(example))
            used_templates.add(example.template)
            progress = True
            if len(chosen) == k:
                break
        if not progress:
            break
    return DemonstrationSet(
        items=chosen,
        k=k,
        strategy=strategy,
        coverage_trace=trace,
        underfilled=len(chosen) < k,
    )


def _as_elements(
    elements: Iterable[str], max_ls_size: int | None
) -> list[CoverageElement]:
    out = []
    for canonical in elements:
        size = ls_size(canonical)
        if max_ls_size is None or size <= max_ls_size:
            out.append(CoverageElement(canonical, float(size)))
    out.sort(key=lambda e: (-e.weight, e.payload))
    return out


def cover_ls(
    elements: Iterable[str],
    pool: Mapping[str, object],
    scores: Mapping[str, float],
    k: int,
    max_ls_size: int | None = None,
    pick: str = "retriever-top",
    seed: int | None = None,
    postings: Mapping[str, list[str]] | None = None,
) -> DemonstrationSet:
    """Greedy structure-coverage selection over predicted local structures."""
    elems = _as_elements(elements, max_ls_size)
    rng = random.Random(seed) if pick == "uniform-random" else None
    return _cover(
        elems,
        pool,
        scores,
        k,
        terms=lambda ex: ex.ls_counts,
        strategy="cover-ls",
        rng=rng,
        postings=postings,
    )


def cover_utt(
    utterance: str,
    pool: Mapping[str, object],
    scores: Mapping[str, float],
    k: int,
    idf: Callable[[str], float] | None = None,
    postings: Mapping[str, list[str]] | None = None,
) -> DemonstrationSet:
    """Same coverage loop over the test utterance's words (rarest first)."""
    tokens = dict.fromkeys(tokenize_utterance(utterance))
    elems = [CoverageElement(t, idf(t) if idf else 0.0) for t in tokens]
    elems.sort(key=lambda e: -e.weight)  # stable: equal weights keep utterance order
    return _cover(
        elems,
        pool,
        scores,
        k,
        terms=lambda ex: ex.utt_tokens,
        strategy="cover-utt",
        postings=postings,
    )


def select_top_k(
    pool: Mapping[str, object] | Iterable[str],
    scores: Mapping[str, float],
    k: int,
) -> DemonstrationSet:
    """The k highest-scoring distinct examples; ties broken by id. Only the
    examples scoring at least the k-th best score get sorted."""
    if k <= 0:
        raise InvalidKError(f"k must be positive, got {k}")
    ids = list(pool)
    if k < len(ids):
        values = np.array([scores.get(i, 0.0) for i in ids], dtype=np.float64)
        kth = np.partition(values, len(ids) - k)[len(ids) - k]
        ids = [ids[row] for row in np.flatnonzero(values >= kth).tolist()]
    ranked = sorted(ids, key=lambda i: (-scores.get(i, 0.0), i))
    items = [(i, scores.get(i, 0.0)) for i in ranked[:k]]
    return DemonstrationSet(
        items=items, k=k, strategy="top-k", underfilled=len(items) < k
    )


def select_random(
    pool: Mapping[str, object] | Iterable[str], k: int, seed: int | None = None
) -> DemonstrationSet:
    """Uniform sample without replacement, reproducible per seed."""
    if k <= 0:
        raise InvalidKError(f"k must be positive, got {k}")
    ids = sorted(pool)
    rng = random.Random(seed)
    take = min(k, len(ids))
    items = [(i, 0.0) for i in rng.sample(ids, take)]
    return DemonstrationSet(
        items=items, k=k, strategy="random", underfilled=len(items) < k
    )


def dpp_select(
    scores: Mapping[str, float],
    vectors: Mapping[str, tuple[np.ndarray, np.ndarray]],
    k: int,
    candidate_pool_size: int = 200,
) -> DemonstrationSet:
    """Greedy log-det maximization of the quality/similarity kernel.

    The kernel over candidates is ``L = diag(q) @ S @ diag(q)`` where ``q``
    holds retriever scores normalized by the pool maximum (floored at 1e-6)
    and ``S`` holds cosine similarities of the tf-idf structure rows
    (:func:`~demoselect.retrieval.ls_tfidf_vectors`). Candidates are the
    top-scoring examples with nonempty rows. Their rows are scattered into
    ``phi`` over the columns they use, in ascending column order.

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
    ranked = sorted(scores, key=lambda i: (-scores[i], i))
    candidates = [
        i for i in ranked if i in vectors and len(vectors[i][0])
    ][:candidate_pool_size]
    n = len(candidates)
    if n == 0:
        return DemonstrationSet(items=[], k=k, strategy="dpp", underfilled=True)

    max_score = max(scores.values())
    if max_score > 0:
        q = np.array([max(scores[i] / max_score, Q_FLOOR) for i in candidates])
    else:
        q = np.full(n, Q_FLOOR)
    columns, weights = zip(*(vectors[i] for i in candidates))
    support, coord = np.unique(np.concatenate(columns), return_inverse=True)
    phi = np.zeros((n, len(support)))
    rows = np.repeat(np.arange(n), [len(c) for c in columns])
    phi[rows, coord] = np.concatenate(weights)
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
        best_gain, best_row = -np.inf, None
        for row, gain in enumerate(row_gains.tolist()):
            if gain > best_gain + GAIN_EPS:
                best_gain, best_row = gain, row
        if best_row is None or not np.isfinite(best_gain):
            break
        t = len(selected)
        residual = kernel[best_row] - factor[:t, best_row] @ factor[:t]
        factor[t] = residual / np.sqrt(d2[best_row])
        d2 -= factor[t] ** 2
        d2[best_row] = 0.0  # a picked row has no complement left
        selected.append(best_row)
        gains.append(best_gain)
    items = [(candidates[r], scores[candidates[r]]) for r in selected]
    return DemonstrationSet(
        items=items,
        k=k,
        strategy="dpp",
        underfilled=len(items) < k,
        gains=gains,
    )


def training_mode_select(
    structures: Iterable[str],
    pool: Mapping[str, object],
    k: int,
    seed: int | None = None,
    postings: Mapping[str, list[str]] | None = None,
    exclude: str | None = None,
) -> DemonstrationSet:
    """Training-time picks: cover the gold program's symbols (its size-1
    ``structures``) with uniformly random containing examples, avoiding
    retriever-driven near-copies. ``exclude`` is the target's own pool id."""
    return _cover(
        _as_elements(structures, max_ls_size=1),
        pool,
        {},
        k,
        terms=lambda ex: ex.ls_counts,
        strategy="cover-ls-train",
        rng=random.Random(seed),
        postings=postings,
        exclude=exclude,
    )


def oracle_elements(
    gold_program: str, dialect: DialectConfig = DEFAULT_DIALECT
) -> set[str]:
    """Local structures of the anonymized gold program (any size)."""
    return set(program_structures(gold_program, dialect))

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
from .programs import DEFAULT_DIALECT, DialectConfig, anonymize, parse_program
from .retrieval import LsTfidfVector, term_postings, tokenize_utterance
from .structures import (
    LocalStructure,
    build_structure_graph,
    enumerate_local_structures,
    ls_size,
    program_structures,
)

Q_FLOOR = 1e-6
GAIN_EPS = 1e-12


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
) -> DemonstrationSet:
    """``terms(example)`` lists the payloads an example covers; ``postings``
    (built from ``terms`` when not given) may name ids outside the pool."""
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
                if i in pool and pool[i].template not in used_templates
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
    elements: Iterable[LocalStructure | str], max_ls_size: int | None
) -> list[CoverageElement]:
    out = []
    for ls in elements:
        canonical = ls.canonical if isinstance(ls, LocalStructure) else ls
        size = ls.size if isinstance(ls, LocalStructure) else ls_size(canonical)
        if max_ls_size is not None and size > max_ls_size:
            continue
        out.append(CoverageElement(canonical, float(size)))
    out.sort(key=lambda e: (-e.weight, e.payload))
    return out


def cover_ls(
    elements: Iterable[LocalStructure | str],
    pool: Mapping[str, object],
    scores: Mapping[str, float],
    k: int,
    max_ls_size: int | None = None,
    pick: str = "retriever-top",
    seed: int | None = None,
    postings: Mapping[str, list[str]] | None = None,
    strategy: str = "cover-ls",
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
        strategy=strategy,
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
    """The k highest-scoring distinct examples; ties broken by id."""
    if k <= 0:
        raise InvalidKError(f"k must be positive, got {k}")
    ids = sorted(pool, key=lambda i: (-scores.get(i, 0.0), i))
    items = [(i, scores.get(i, 0.0)) for i in ids[:k]]
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
    vectors: Mapping[str, LsTfidfVector],
    k: int,
    candidate_pool_size: int = 200,
) -> DemonstrationSet:
    """Greedy log-det maximization of the quality/similarity kernel.

    The kernel over candidates is ``L = diag(q) @ S @ diag(q)`` where ``q``
    holds retriever scores normalized by the pool maximum (floored at 1e-6)
    and ``S`` holds cosine similarities of the tf-idf structure vectors.
    Candidates are the top-scoring examples with nonzero vectors. Selection
    stops early when no remaining candidate keeps the kernel full-rank.
    """
    if k <= 0:
        raise InvalidKError(f"k must be positive, got {k}")
    ranked = sorted(scores, key=lambda i: (-scores[i], i))
    candidates = [
        i for i in ranked if i in vectors and not vectors[i].is_zero()
    ][:candidate_pool_size]
    n = len(candidates)
    if n == 0:
        return DemonstrationSet(items=[], k=k, strategy="dpp", underfilled=True)

    max_score = max(scores.values())
    if max_score > 0:
        q = np.array([max(scores[i] / max_score, Q_FLOOR) for i in candidates])
    else:
        q = np.full(n, Q_FLOOR)
    support = sorted({ls for i in candidates for ls in vectors[i].weights})
    coord = {ls: j for j, ls in enumerate(support)}
    phi = np.zeros((n, len(support)))
    for row, i in enumerate(candidates):
        for ls, w in vectors[i].weights.items():
            phi[row, coord[ls]] = w
    kernel = (q[:, None] * q[None, :]) * (phi @ phi.T)

    selected: list[int] = []
    gains: list[float] = []
    while len(selected) < min(k, n):
        if selected:
            sign, base = np.linalg.slogdet(kernel[np.ix_(selected, selected)])
        else:
            base = 0.0
        best_gain, best_row = -np.inf, None
        for row in range(n):
            if row in selected:
                continue
            grown = selected + [row]
            sign, logdet = np.linalg.slogdet(kernel[np.ix_(grown, grown)])
            gain = logdet - base if sign > 0 else -np.inf
            if gain > best_gain + GAIN_EPS:
                best_gain, best_row = gain, row
        if best_row is None or not np.isfinite(best_gain):
            break
        selected.append(best_row)
        gains.append(float(best_gain))
    items = [(candidates[r], scores[candidates[r]]) for r in selected]
    return DemonstrationSet(
        items=items,
        k=k,
        strategy="dpp",
        underfilled=len(items) < k,
        gains=gains,
    )


def training_mode_select(
    gold_program: str,
    pool: Mapping[str, object],
    k: int,
    seed: int | None = None,
    dialect: DialectConfig = DEFAULT_DIALECT,
    postings: Mapping[str, list[str]] | None = None,
) -> DemonstrationSet:
    """Training-time picks: cover the gold program's symbols with uniformly
    random containing examples, avoiding retriever-driven near-copies."""
    symbols = program_structures(gold_program, dialect, max_size=1)
    return cover_ls(
        symbols,
        pool,
        scores={},
        k=k,
        max_ls_size=1,
        pick="uniform-random",
        seed=seed,
        postings=postings,
        strategy="cover-ls-train",
    )


def oracle_elements(
    gold_program: str, dialect: DialectConfig = DEFAULT_DIALECT
) -> set[LocalStructure]:
    """Local structures of the anonymized gold program (any size)."""
    ast = anonymize(parse_program(gold_program, dialect))
    return enumerate_local_structures(build_structure_graph(ast))

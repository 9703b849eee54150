"""Hand-executed walks of the coverage-selection loop.

Each case pins the full expected behavior: the chosen (id, score) sequence,
the element-by-element trace including skipped elements, and the underfill
flag. Expected values were worked out by hand from the loop's contract:
sort elements largest-first (ties lexicographic), pick the highest-scoring
pool example containing the element (ties by id), drop covered elements and
same-template pool entries, restart the element walk until k picks.
"""

from __future__ import annotations

from dataclasses import dataclass

from demoselect import DemonstrationSet, cover_ls, make_example

from helpers import pool_postings, pool_rows, score_rows


@dataclass
class TraceCase:
    name: str
    elements: list[str]
    pool: list[tuple[str, str, str]]  # (id, utterance, program)
    scores: dict[str, float]
    k: int
    expected_items: list[tuple[str, float]]
    expected_trace: list[tuple[str, str | None]]
    underfilled: bool = False
    max_ls_size: int | None = None
    pick: str = "retriever-top"
    seed: int | None = None
    notes: str = ""


TRACE_CASES = [
    TraceCase(
        name="single pass fills k",
        elements=["a -> b", "c"],
        pool=[
            ("e1", "alpha beta", "a (b)"),
            ("e2", "gamma", "c"),
            ("e3", "delta", "c (d)"),
        ],
        scores={"e1": 1.0, "e2": 0.5, "e3": 0.9},
        k=2,
        expected_items=[("e1", 1.0), ("e3", 0.9)],
        expected_trace=[("a -> b", "e1"), ("c", "e3")],
        notes="larger element first; best-scoring container per element",
    ),
    TraceCase(
        name="uncoverable element is skipped and recorded",
        elements=["x -> y", "a"],
        pool=[("e1", "one", "a"), ("e2", "two", "a (b)")],
        scores={"e1": 0.2, "e2": 0.4},
        k=1,
        expected_items=[("e2", 0.4)],
        expected_trace=[("x -> y", None), ("a", "e2")],
    ),
    TraceCase(
        name="outer restart picks second-best template",
        elements=["a -> b"],
        pool=[
            ("e1", "one", "a (b)"),
            ("e2", "two", "a (b, b)"),
            ("e3", "three", "c"),
        ],
        scores={"e1": 0.9, "e2": 0.5, "e3": 1.0},
        k=2,
        expected_items=[("e1", 0.9), ("e2", 0.5)],
        expected_trace=[("a -> b", "e1"), ("a -> b", "e2")],
    ),
    TraceCase(
        name="template removal exhausts the pool",
        elements=["a -> b"],
        pool=[
            ("e1", "one", "a (b)"),
            ("e2", "two", "a (b)"),
            ("e3", "three", "c"),
        ],
        scores={"e1": 0.9, "e2": 0.5, "e3": 1.0},
        k=2,
        expected_items=[("e1", 0.9)],
        expected_trace=[("a -> b", "e1"), ("a -> b", None)],
        underfilled=True,
        notes="e2 shares e1's template and is removed with it",
    ),
    TraceCase(
        name="score ties break by example id",
        elements=["a"],
        pool=[("e1", "one", "a"), ("e2", "two", "a (b)")],
        scores={"e1": 0.7, "e2": 0.7},
        k=1,
        expected_items=[("e1", 0.7)],
        expected_trace=[("a", "e1")],
    ),
    TraceCase(
        name="equal sizes walk in lexicographic order",
        elements=["b -> c", "a -> d", "z"],
        pool=[
            ("e1", "one", "a (d)"),
            ("e2", "two", "b (c)"),
            ("e3", "three", "z"),
        ],
        scores={"e1": 0.1, "e2": 0.9, "e3": 0.5},
        k=3,
        expected_items=[("e1", 0.1), ("e2", 0.9), ("e3", 0.5)],
        expected_trace=[("a -> d", "e1"), ("b -> c", "e2"), ("z", "e3")],
    ),
    TraceCase(
        name="one pick covers several elements at once",
        elements=["a -> b -> c", "a -> b", "b -> c", "d"],
        pool=[
            ("e1", "one", "a (b (c))"),
            ("e2", "two", "d"),
            ("e3", "three", "a (b)"),
        ],
        scores={"e1": 0.3, "e2": 0.8, "e3": 0.9},
        k=2,
        expected_items=[("e1", 0.3), ("e2", 0.8)],
        expected_trace=[("a -> b -> c", "e1"), ("d", "e2")],
        notes="covered smaller elements are passed over without trace entries",
    ),
    TraceCase(
        name="size cap filters elements before the walk",
        elements=["a -> b -> c", "a -> b", "d"],
        pool=[
            ("e1", "one", "a (b (c))"),
            ("e2", "two", "a (b)"),
            ("e3", "three", "d"),
        ],
        scores={"e1": 0.2, "e2": 0.6, "e3": 0.4},
        k=2,
        max_ls_size=2,
        expected_items=[("e2", 0.6), ("e3", 0.4)],
        expected_trace=[("a -> b", "e2"), ("d", "e3")],
    ),
    TraceCase(
        name="uniform-random pick with forced candidates",
        elements=["a", "b"],
        pool=[("e1", "one", "a"), ("e2", "two", "b")],
        scores={},
        k=2,
        pick="uniform-random",
        seed=7,
        expected_items=[("e1", 0.0), ("e2", 0.0)],
        expected_trace=[("a", "e1"), ("b", "e2")],
        notes="single-candidate sets make the random draw deterministic",
    ),
    TraceCase(
        name="skips repeat every restart until nothing progresses",
        elements=["q -> r", "a"],
        pool=[("e1", "one", "a"), ("e2", "two", "a (b)")],
        scores={"e1": 0.5, "e2": 0.4},
        k=3,
        expected_items=[("e1", 0.5), ("e2", 0.4)],
        expected_trace=[
            ("q -> r", None),
            ("a", "e1"),
            ("q -> r", None),
            ("a", "e2"),
            ("q -> r", None),
            ("a", None),
        ],
        underfilled=True,
    ),
]


def run_case(case: TraceCase) -> DemonstrationSet:
    pool = pool_rows({
        ex_id: make_example(ex_id, utt, prog)
        for ex_id, utt, prog in case.pool
    })
    return cover_ls(
        case.elements,
        pool,
        score_rows(pool, case.scores),
        case.k,
        max_ls_size=case.max_ls_size,
        pick=case.pick,
        seed=case.seed,
        postings=pool_postings(pool, "ls_counts"),
    )


def assert_case(case: TraceCase) -> None:
    result = run_case(case)
    assert result.items == case.expected_items, case.name
    assert result.coverage_trace == case.expected_trace, case.name
    assert result.underfilled == case.underfilled, case.name

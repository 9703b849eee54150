from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoselect import (
    Example,
    InvalidKError,
    anonymize,
    build_indexes,
    build_structure_graph,
    cover_ls,
    cover_utt,
    dpp_select,
    enumerate_local_structures,
    gen_fixture,
    make_example,
    oracle_elements,
    parse_program,
    select_random,
    select_top_k,
    training_mode_select,
)
from demoselect.selection import GAIN_EPS, _best_gain
from demoselect.structures import read_structures

from helpers import (
    dpp_rows,
    normalized_rows,
    pool_postings,
    pool_rows,
    reference_cover_ls,
    reference_cover_utt,
    reference_dpp,
    reference_top_k,
    reference_training_mode,
    row_postings,
    score_rows,
    term_postings,
)
from trace_cases import TRACE_CASES, assert_case

CALENDAR_PROGRAM = (
    'CreateEvent (AND (has_subject ("Work on Project"), '
    'starts_at (NextDOW ("Friday"))))'
)


def pool_of(*rows):
    return {r[0]: make_example(*r) for r in rows}


# The selectors over a dict pool and dict scores, in the row form they take.


def _top_k(pool, scores, k):
    rows = pool_rows(pool)
    return select_top_k(rows, score_rows(rows, scores), k)


def _cover_ls(elements, pool, scores, k, **options):
    rows = pool_rows(pool)
    postings = pool_postings(rows, "ls_counts")
    return cover_ls(elements, rows, score_rows(rows, scores), k, **options, postings=postings)


def _cover_utt(utterance, pool, scores, k, **options):
    rows = pool_rows(pool)
    postings = pool_postings(rows, "utt_tokens")
    return cover_utt(utterance, rows, score_rows(rows, scores), k, **options, postings=postings)


def _training_mode(structures, pool, k, **options):
    rows = pool_rows(pool)
    return training_mode_select(
        structures, rows, k, **options, postings=pool_postings(rows, "ls_counts")
    )


# --- top-k -------------------------------------------------------------------


def test_top_k_is_argmax_at_one():
    scores = {"a": 0.2, "b": 0.9, "c": 0.5}
    assert _top_k(scores, scores, 1).ids == ["b"]


def test_top_k_whole_pool_when_k_large():
    scores = {"a": 0.2, "b": 0.9}
    result = _top_k(scores, scores, 10)
    assert set(result.ids) == {"a", "b"}
    assert result.underfilled


def test_top_k_from_bm25_toy_scores():
    scores = {"d1": 0.39019169220400696, "d2": 0.523548346501579, "d3": 0.0}
    assert _top_k(scores, scores, 2).ids == ["d2", "d1"]


def test_top_k_tie_breaks_by_id():
    scores = {"b": 0.5, "a": 0.5, "c": 0.1}
    assert _top_k(scores, scores, 2).ids == ["a", "b"]


# Heavy ties: most scores come from a handful of values.
TIED_SCORES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.25]),
    st.floats(min_value=-10, max_value=10, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    scores=st.dictionaries(st.text("abcdef", min_size=1, max_size=3), TIED_SCORES, max_size=40),
    unscored=st.lists(st.text("ghij", min_size=1, max_size=2), max_size=5),
    k_from=st.sampled_from(["below", "equal", "above"]),
    data=st.data(),
)
def test_top_k_equals_full_sort(scores, unscored, k_from, data):
    # The pool may hold ids with no score (0.0), and scores may name ids
    # outside the pool.
    pool = {i: None for i in [*scores, *unscored] if not i.startswith("f")}
    if k_from == "below":
        k = data.draw(st.integers(1, max(1, len(pool) - 1)))
    else:
        k = max(1, len(pool) + (k_from == "above") * data.draw(st.integers(1, 5)))
    expected = sorted(pool, key=lambda i: (-scores.get(i, 0.0), i))[:k]
    result = _top_k(pool, scores, k)
    assert result.items == [(i, scores.get(i, 0.0)) for i in expected]
    assert result.underfilled == (len(expected) < k)


# Heavy ties, signed zeros and negative scores.
SCORE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)
STRUCTURES = ["a", "b", "c", "d", "a -> b", "b -> c", "a <-> b", "a -> b -> c", "c -> d <-> a"]
WORDS = ["red", "dog", "big", "cat", "runs"]
OUTSIDE = ["zz", "zy"]  # ids outside every drawn pool


@st.composite
def selection_instances(draw):
    """A pool with shared templates, scores of some pool ids and of ids
    outside it, and id postings of the pool's structures and words that may
    name ids outside the pool."""
    ids = draw(st.lists(st.text("abcdef", min_size=1, max_size=2), unique=True, max_size=12))
    pool = {
        i: Example(
            i,
            " ".join(draw(st.lists(st.sampled_from(WORDS), max_size=4))),
            "p",
            draw(st.sampled_from(["t0", "t1", "t2", "t3"])),
            dict.fromkeys(draw(st.lists(st.sampled_from(STRUCTURES), unique=True, max_size=5)), 1),
        )
        for i in ids
    }
    scored = draw(st.lists(st.sampled_from(ids + OUTSIDE), unique=True))
    scores = {i: draw(SCORE_VALUES) for i in scored}
    postings = {}
    for field in ("ls", "utt"):
        terms = (lambda ex: ex.ls_counts) if field == "ls" else (lambda ex: ex.utt_tokens)
        lists = term_postings({i: terms(ex) for i, ex in pool.items()})
        for term in draw(st.lists(st.sampled_from([*STRUCTURES, *WORDS]), unique=True)):
            lists[term] = sorted([*lists.get(term, []), draw(st.sampled_from(OUTSIDE))])
        postings[field] = lists
    k = draw(st.integers(1, len(pool) + 3))
    return pool, scores, postings, k


def _as_tuple(result):
    # repr tells -0.0 from 0.0
    return repr(result.items), result.coverage_trace, result.underfilled


@settings(max_examples=300, deadline=None)
@given(
    instance=selection_instances(),
    elements=st.lists(st.sampled_from([*STRUCTURES, "e -> f"]), max_size=8),
    max_ls_size=st.sampled_from([None, 1, 2]),
    pick=st.sampled_from(["retriever-top", "uniform-random"]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_cover_equals_dict_reference(instance, elements, max_ls_size, pick, seed, data):
    pool, scores, postings, k = instance
    utterance = " ".join(data.draw(st.lists(st.sampled_from([*WORDS, "unseen"]), max_size=6)))
    exclude = data.draw(st.sampled_from([None, *OUTSIDE, *pool]))
    rows = pool_rows(pool)
    args = (rows, score_rows(rows, scores))
    ls_postings = row_postings(rows, postings["ls"])
    utt_postings = row_postings(rows, postings["utt"])
    options = dict(max_ls_size=max_ls_size, pick=pick, seed=seed)
    expected = reference_cover_ls(
        elements, pool, scores, k, **options, postings=postings["ls"]
    )
    assert _as_tuple(cover_ls(elements, *args, k, **options, postings=ls_postings)) == (
        repr(expected[0]), *expected[1:]
    )
    idf = lambda t: len(t) % 3  # noqa: E731 - ties between words of equal length
    expected = reference_cover_utt(utterance, pool, scores, k, idf=idf, postings=postings["utt"])
    result = cover_utt(utterance, *args, k, idf=idf, postings=utt_postings)
    assert _as_tuple(result) == (repr(expected[0]), *expected[1:])
    target = data.draw(st.sampled_from(STRUCTURES)), data.draw(st.sampled_from(STRUCTURES))
    structures = dict.fromkeys(target, 1)
    expected = reference_training_mode(
        structures, pool, k, seed=seed, postings=postings["ls"], exclude=exclude
    )
    result = training_mode_select(
        structures, args[0], k, seed=seed, postings=ls_postings, exclude=exclude
    )
    assert _as_tuple(result) == (repr(expected[0]), *expected[1:])


@settings(max_examples=300, deadline=None)
@given(instance=selection_instances(), k_from=st.sampled_from(["below", "above"]), data=st.data())
def test_top_k_equals_dict_reference(instance, k_from, data):
    pool, scores, _, k = instance
    if k_from == "below":
        k = max(1, min(k, len(pool) - 1))
    expected = reference_top_k(pool, scores, k)
    result = _top_k(pool, scores, k)
    assert _as_tuple(result) == (repr(expected[0]), *expected[1:])


@settings(max_examples=300, deadline=None)
@given(
    scores=st.dictionaries(st.text("abcdef", min_size=1, max_size=2), SCORE_VALUES, max_size=14),
    unscored=st.lists(st.text("gh", min_size=1, max_size=2), max_size=3),
    k=st.integers(1, 8),
    candidate_pool_size=st.integers(1, 16),
    data=st.data(),
)
def test_dpp_equals_dict_reference(scores, unscored, k, candidate_pool_size, data):
    # Rows for some scored ids (some of them empty) and for ids never scored.
    dims = ["u", "v", "w", "x"]
    weights = {}
    for i in [*scores, *unscored]:
        if i in unscored or data.draw(st.booleans()):
            used = data.draw(st.lists(st.sampled_from(dims), unique=True))
            weights[i] = {d: data.draw(st.floats(0.1, 1.0)) for d in used}
    expected = reference_dpp(scores, normalized_rows(weights), k, candidate_pool_size)
    result = dpp_select(*dpp_rows(scores, weights), k, candidate_pool_size)
    assert (*_as_tuple(result), result.gains) == (repr(expected[0]), *expected[1:])


def _sequential_best_gain(gains):
    """DPP's pick rule, every row scanned in order."""
    best_gain, best_row = -math.inf, None
    for row, gain in enumerate(gains):
        if gain > best_gain + GAIN_EPS:
            best_gain, best_row = gain, row
    return best_gain, best_row


# gains a few GAIN_EPS apart around a few levels, ties within GAIN_EPS
# included, and ineligible (-inf) rows
TIED_GAINS = st.one_of(
    st.just(-math.inf),
    st.builds(
        lambda level, steps: level + steps * GAIN_EPS / 4,
        st.sampled_from([-27.5, -1.0, 0.0, 0.3, 2.0]),
        st.integers(-12, 12),
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gains=st.lists(TIED_GAINS, min_size=1, max_size=40))
def test_dpp_scans_only_prefix_maxima_yet_picks_as_the_sequential_scan(gains):
    assert _best_gain(np.array(gains)) == _sequential_best_gain(gains)


def test_top_k_rejects_nonpositive_k():
    with pytest.raises(InvalidKError):
        _top_k({"a": 1.0}, {"a": 1.0}, 0)


@pytest.mark.parametrize("other_ids", [["a", "c"], ["a", "b", "c"], ["b"]], ids="".join)
def test_selectors_reject_rows_of_another_pool(other_ids):
    examples = pool_of(("a", "red dog", "f (a)"), ("b", "big cat", "g (b)"), ("c", "dog", "h"))
    rows = pool_rows({i: examples[i] for i in ["a", "b"]})
    other = pool_rows({i: examples[i] for i in other_ids})
    scores = score_rows(rows, {"a": 0.5})
    ls, utt = pool_postings(rows, "ls_counts"), pool_postings(rows, "utt_tokens")
    bad_scores = score_rows(other, {"a": 0.5})
    bad_ls, bad_utt = pool_postings(other, "ls_counts"), pool_postings(other, "utt_tokens")
    weights = {"a": {"u": 1.0}, "b": {"v": 1.0}, "c": {"u": 1.0}}
    tfidf = dpp_rows(dict.fromkeys(rows.ids, 1.0), weights)[1]
    bad_tfidf = dpp_rows(dict.fromkeys(other_ids, 1.0), weights)[1]
    elements = oracle_elements("f (a)")
    calls = {
        "top-k scores": lambda: select_top_k(rows, bad_scores, 1),
        "cover-ls scores": lambda: cover_ls(elements, rows, bad_scores, 1, postings=ls),
        "cover-ls postings": lambda: cover_ls(elements, rows, scores, 1, postings=bad_ls),
        "cover-utt scores": lambda: cover_utt("red dog", rows, bad_scores, 1, postings=utt),
        "cover-utt postings": lambda: cover_utt("red dog", rows, scores, 1, postings=bad_utt),
        "training postings": lambda: training_mode_select(elements, rows, 1, postings=bad_ls),
        "dpp rows": lambda: dpp_select(scores, bad_tfidf, 1),
        "dpp scores": lambda: dpp_select(bad_scores, tfidf, 1),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="not aligned with the pool's rows"):
            call()
    # an equal id list is aligned: it need not be the same list
    assert select_top_k(rows, score_rows(pool_rows(rows), {"a": 0.5}), 1).ids == ["a"]
    assert dpp_select(scores, tfidf, 1).ids == ["a"]


# --- random ------------------------------------------------------------------


def test_random_full_pool_is_permutation():
    result = select_random(pool_rows(["a", "b", "c"]), 3, seed=1)
    assert sorted(result.ids) == ["a", "b", "c"]
    assert not result.underfilled


def test_random_is_seed_deterministic():
    first = select_random(pool_rows(["a", "b", "c", "d"]), 2, seed=9)
    second = select_random(pool_rows(["d", "c", "b", "a"]), 2, seed=9)
    assert first.items == second.items


def test_random_overdraw_underfills():
    result = select_random(pool_rows(["a", "b"]), 5, seed=0)
    assert sorted(result.ids) == ["a", "b"]
    assert result.underfilled


def test_random_single_draws_are_roughly_uniform():
    pool = pool_rows(["a", "b", "c", "d"])
    counts = {i: 0 for i in pool}
    for draw in range(10_000):
        counts[select_random(pool, 1, seed=draw).ids[0]] += 1
    sigma = math.sqrt(0.25 * 0.75 / 10_000)
    for count in counts.values():
        assert abs(count / 10_000 - 0.25) < 4 * sigma


# --- coverage selection --------------------------------------------------------


@pytest.mark.parametrize("case", TRACE_CASES, ids=lambda c: c.name)
def test_cover_trace_matches_hand_walk(case):
    assert_case(case)


def test_cover_ls_self_cover_picks_matching_example():
    pool = pool_of(
        ("e1", "make a meeting friday", CALENDAR_PROGRAM),
        ("e2", "count cats", "count (find (cat))"),
    )
    elements = oracle_elements(CALENDAR_PROGRAM)
    result = _cover_ls(elements, pool, {"e1": 0.1, "e2": 0.9}, k=1)
    assert result.ids == ["e1"]


def test_cover_ls_beats_top_k_when_no_single_example_covers():
    pool = pool_of(
        ("d1", "what states border texas", 'answer (state (next_to_2 (stateid ("texas"))))'),
        ("d2", "which state has the most places", "answer (most (state (loc_1 (place (all)))))"),
        ("d3", "what states border ohio", 'answer (state (next_to_2 (stateid ("ohio"))))'),
    )
    predicted = {"state -> next_to_2", "most -> state -> loc_1"}
    scores = {"d1": 0.9, "d3": 0.8, "d2": 0.1}

    covered = _cover_ls(predicted, pool, scores, k=2)
    top = _top_k(pool, scores, 2)

    assert set(top.ids) == {"d1", "d3"}
    assert pool["d1"].template == pool["d3"].template
    assert set(covered.ids) == {"d1", "d2"}

    def coverage(ids):
        union = set()
        for i in ids:
            union |= pool[i].ls_set
        return len(predicted & union)

    assert coverage(covered.ids) == 2
    assert coverage(top.ids) == 1


def test_cover_ls_never_duplicates_templates():
    for case in TRACE_CASES:
        pool = {i: make_example(i, u, p) for i, u, p in case.pool}
        result = _cover_ls(
            case.elements,
            pool,
            case.scores,
            case.k,
            max_ls_size=case.max_ls_size,
            pick=case.pick,
            seed=case.seed,
        )
        templates = [pool[i].template for i in result.ids]
        assert len(templates) == len(set(templates))


def test_cover_ls_with_postings_matches_scan():
    # hand-built posting lists select as the term_postings scan of the pool
    for case in TRACE_CASES:
        pool = {i: make_example(i, u, p) for i, u, p in case.pool}
        rows = pool_rows(pool)
        scores = score_rows(rows, case.scores)
        ls_postings: dict[str, list[str]] = {}
        token_postings: dict[str, list[str]] = {}
        for ex_id in sorted(pool):
            for canonical in pool[ex_id].ls_set:
                ls_postings.setdefault(canonical, []).append(ex_id)
            for token in set(pool[ex_id].utt_tokens):
                token_postings.setdefault(token, []).append(ex_id)
        options = dict(max_ls_size=case.max_ls_size, pick=case.pick, seed=case.seed)
        direct = _cover_ls(case.elements, pool, case.scores, case.k, **options)
        indexed = cover_ls(
            case.elements, rows, scores, case.k, postings=row_postings(rows, ls_postings), **options
        )
        assert direct.items == indexed.items
        assert direct.coverage_trace == indexed.coverage_trace

        utterance = " ".join(u for _, u, _ in reversed(case.pool)) + " unseen"
        direct = _cover_utt(utterance, pool, case.scores, case.k, idf=len)
        indexed = cover_utt(
            utterance, rows, scores, case.k, idf=len, postings=row_postings(rows, token_postings)
        )
        assert direct.items == indexed.items
        assert direct.coverage_trace == indexed.coverage_trace


@pytest.mark.parametrize("max_ls_size", [None, 1, 2, 3])
def test_cover_ls_over_codes_equals_cover_ls_over_names(max_ls_size):
    # a target's structures coded over the index's vocabulary walk in the
    # order of their names, and read the same rows by code: test targets
    # hold structures that no pool example holds, and one holds names that
    # the vocabulary lacks
    fixture = gen_fixture(n_train=80, n_test=12, split="held-out-ls", seed=4)
    bundle = build_indexes(fixture.corpus)
    pool, postings = bundle.pool, bundle.ls_postings
    tests = fixture.corpus.split("test")
    novel = make_example("novel", tests[0].utterance, f"novel ({tests[0].program})")
    for example in [*tests, novel]:
        scores = bundle.bm25_utterance.scores(example.utt_tokens)
        coded, names = bundle.coded(example), set(example.ls_counts)
        for k in (1, 4, 9):
            options = dict(max_ls_size=max_ls_size, postings=postings)
            assert cover_ls(coded, pool, scores, k, **options) == cover_ls(
                names, pool, scores, k, **options
            )
    for seed, target in enumerate(pool.values()[:12]):
        options = dict(postings=postings, exclude=target.id)
        assert training_mode_select(bundle.coded(target), pool, 5, seed=seed, **options) == (
            training_mode_select(target.ls_counts, pool, 5, seed=seed, **options)
        )


def test_cover_utt_hand_walk():
    pool = pool_of(
        ("u1", "red dog", "p1"),
        ("u2", "big cat runs", "p2"),
        ("u3", "fast horse", "p3"),
        ("u4", "red big dog fast runs", "p4"),
        ("u5", "red wolf", "p5"),
    )
    scores = {"u1": 0.9, "u2": 0.8, "u3": 0.7, "u4": 0.1, "u5": 0.95}
    idf = {"big": 2.0, "red": 3.0, "dog": 1.0, "runs": 0.5, "fast": 0.5}
    result = _cover_utt(
        "big red dog runs fast", pool, scores, k=3, idf=lambda t: idf.get(t, 0.0)
    )
    assert result.items == [("u5", 0.95), ("u2", 0.8), ("u1", 0.9)]
    assert result.coverage_trace == [("red", "u5"), ("big", "u2"), ("dog", "u1")]


def test_cover_utt_skips_unknown_word():
    pool = pool_of(("u1", "red dog", "p1"))
    result = _cover_utt("purple dog", pool, {"u1": 0.5}, k=1)
    assert result.coverage_trace[0] == ("purple", None)
    assert result.ids == ["u1"]


def test_cover_utt_full_containment_single_pick():
    pool = pool_of(
        ("u1", "the big red dog", "p1"),
        ("u2", "a cat", "p2"),
    )
    result = _cover_utt("big red dog", pool, {"u1": 0.4, "u2": 0.9}, k=1)
    assert result.ids == ["u1"]


# --- DPP ---------------------------------------------------------------------


def test_dpp_duplicate_vectors_underfill():
    weights = {"a": {"u": 1.0}, "b": {"u": 1.0}}
    scores = {"a": 0.6, "b": 0.6}
    result = dpp_select(*dpp_rows(scores, weights), k=2)
    assert result.ids == ["a"]
    assert result.underfilled


def test_dpp_orthogonal_equal_quality_orders_by_id():
    weights = {"c1": {"u": 1.0}, "c2": {"v": 1.0}, "c3": {"w": 1.0}}
    scores = {"c1": 0.8, "c2": 0.8, "c3": 0.8}
    result = dpp_select(*dpp_rows(scores, weights), k=3)
    assert result.ids == ["c1", "c2", "c3"]
    assert sum(result.gains) == pytest.approx(0.0, abs=1e-12)


def test_dpp_orthogonal_unequal_quality_gains_decrease():
    weights = {"c1": {"u": 1.0}, "c2": {"v": 1.0}, "c3": {"w": 1.0}}
    scores = {"c1": 1.0, "c2": 0.5, "c3": 0.25}
    result = dpp_select(*dpp_rows(scores, weights), k=3)
    assert result.ids == ["c1", "c2", "c3"]
    expected = [0.0, math.log(0.25), math.log(0.0625)]
    assert result.gains == pytest.approx(expected, abs=1e-9)


def _random_dpp_instance(rng):
    n = rng.randint(2, 8)
    dims = ["u", "v", "w", "x", "y"]
    weights = {}
    scores = {}
    for i in range(n):
        weights[f"c{i}"] = {
            d: rng.random() for d in rng.sample(dims, rng.randint(1, len(dims)))
        }
        scores[f"c{i}"] = 0.1 + rng.random()
    return scores, normalized_rows(weights), dpp_rows(scores, weights)


def _oracle_kernel(scores, vectors, candidates):
    qmax = max(scores.values())
    q = np.array([max(scores[i] / qmax, 1e-6) for i in candidates])
    dims = sorted({d for i in candidates for d in vectors[i][0].tolist()})
    phi = np.zeros((len(candidates), len(dims)))
    for row, i in enumerate(candidates):
        for d, w in zip(*vectors[i]):
            phi[row, dims.index(d)] = w
    return (q[:, None] * q[None, :]) * (phi @ phi.T)


def test_dpp_greedy_steps_are_exact_argmax():
    rng = random.Random(77)
    for _ in range(40):
        scores, vectors, rows = _random_dpp_instance(rng)
        k = rng.randint(1, 3)
        result = dpp_select(*rows, k, candidate_pool_size=8)
        candidates = sorted(scores, key=lambda i: (-scores[i], i))
        kernel = _oracle_kernel(scores, vectors, candidates)
        index_of = {c: i for i, c in enumerate(candidates)}
        chosen: list[int] = []
        for step, picked in enumerate(result.ids):
            if chosen:
                _, base = np.linalg.slogdet(kernel[np.ix_(chosen, chosen)])
            else:
                base = 0.0
            best = -np.inf
            for row in range(len(candidates)):
                if row in chosen:
                    continue
                grown = chosen + [row]
                sign, logdet = np.linalg.slogdet(kernel[np.ix_(grown, grown)])
                gain = logdet - base if sign > 0 else -np.inf
                best = max(best, gain)
            assert result.gains[step] >= best - 1e-9
            chosen.append(index_of[picked])
        for left, right in zip(result.gains, result.gains[1:]):
            assert right <= left + 1e-9


def test_dpp_stops_at_kernel_rank():
    rng = random.Random(5)
    dims = ["u", "v", "w", "x", "y"]
    for _ in range(50):
        directions = [
            {d: rng.random() for d in rng.sample(dims, rng.randint(1, len(dims)))}
            for _ in range(3)
        ]
        maps = {f"c{i}": directions[i % 3] for i in range(8)}
        vectors = normalized_rows(maps)
        scores = {f"c{i}": 0.1 + rng.random() for i in range(8)}
        phi = np.zeros((len(vectors), len(dims)))
        for row, (columns, weights) in enumerate(vectors.values()):
            phi[row, columns] = weights
        result = dpp_select(*dpp_rows(scores, maps), k=6)
        assert len(result.ids) == np.linalg.matrix_rank(phi)
        assert result.underfilled


def _slogdet_greedy(kernel, k):
    """Reference greedy: one determinant per candidate per step."""
    selected: list[int] = []
    gains: list[float] = []
    while len(selected) < min(k, len(kernel)):
        base = np.linalg.slogdet(kernel[np.ix_(selected, selected)])[1] if selected else 0.0
        best_gain, best_row = -np.inf, None
        for row in range(len(kernel)):
            if row in selected:
                continue
            grown = selected + [row]
            sign, logdet = np.linalg.slogdet(kernel[np.ix_(grown, grown)])
            gain = logdet - base if sign > 0 else -np.inf
            if gain > best_gain + 1e-12:
                best_gain, best_row = gain, row
        if best_row is None or not np.isfinite(best_gain):
            break
        selected.append(best_row)
        gains.append(float(best_gain))
    return selected, gains


def test_dpp_matches_determinant_greedy_on_large_instances():
    rng = random.Random(2018)
    shared = [f"s{j}" for j in range(40)]
    for _ in range(30):
        n = rng.randint(24, 60)
        k = rng.randint(1, 24)
        weights, scores = {}, {}
        for i in range(n):
            # an own dimension keeps the kernel full-rank
            own = {f"own{i}": 0.2 + rng.random()}
            own.update({d: rng.random() for d in rng.sample(shared, rng.randint(1, 12))})
            weights[f"c{i:02d}"] = own
            scores[f"c{i:02d}"] = 0.1 + rng.random()
        vectors = normalized_rows(weights)
        result = dpp_select(*dpp_rows(scores, weights), k, candidate_pool_size=n)
        candidates = sorted(scores, key=lambda i: (-scores[i], i))
        rows, gains = _slogdet_greedy(_oracle_kernel(scores, vectors, candidates), k)
        assert result.ids == [candidates[r] for r in rows]
        assert len(result.ids) == k and not result.underfilled
        assert result.gains == pytest.approx(gains, abs=1e-9)


# --- training mode and oracle elements ----------------------------------------


def test_training_mode_forced_symbol_cover():
    pool = pool_of(
        ("e1", "one", "f (a)"),
        ("e2", "two", "g (b)"),
        ("e3", "three", "h (c)"),
    )
    result = _training_mode(read_structures("a (b)").counts, pool, k=2, seed=3)
    assert set(result.ids) == {"e1", "e2"}
    assert all(score == 0.0 for _, score in result.items)


def test_training_mode_seed_reproducible():
    pool = pool_of(
        ("e1", "one", "f (a)"),
        ("e2", "two", "g (a)"),
        ("e3", "three", "h (a)"),
    )
    first = _training_mode(read_structures("top (a)").counts, pool, k=2, seed=11)
    second = _training_mode(read_structures("top (a)").counts, pool, k=2, seed=11)
    assert first.items == second.items
    assert first.ids[0] in {"e1", "e2", "e3"}


def test_training_mode_exclude_equals_pool_without_target():
    pool = pool_of(
        ("e1", "one", "f (a, b)"),
        ("e2", "two", "g (a)"),
        ("e3", "three", "h (b)"),
        ("e4", "four", "f (g (a))"),
        ("e5", "five", "top (h (b), a)"),
    )
    for target in pool.values():
        rest = {i: ex for i, ex in pool.items() if i != target.id}
        for seed in range(6):
            excluded = _training_mode(
                target.ls_counts, pool, k=3, seed=seed, exclude=target.id
            )
            copied = _training_mode(target.ls_counts, rest, k=3, seed=seed)
            assert target.id not in excluded.ids
            assert excluded == copied


def test_oracle_elements_matches_enumeration():
    elements = oracle_elements(CALENDAR_PROGRAM)
    assert len(elements) == 32
    ast = anonymize(parse_program(CALENDAR_PROGRAM))
    direct = enumerate_local_structures(build_structure_graph(ast))
    assert elements == {ls.canonical for ls in direct}
    assert elements == set(read_structures(CALENDAR_PROGRAM).counts)


def test_oracle_elements_single_symbol():
    assert oracle_elements("foo") == {"foo", "<root> -> foo"}

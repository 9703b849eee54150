"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run ``pytest tests/test_acceptance.py -s`` to see the lines as they print.
The heavier criteria share one synthetic held-out-structure experiment
(1,000 training examples, 250 test utterances, seed 41) built once per
module.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from demoselect import (
    Bm25Index,
    anonymize,
    build_indexes,
    build_structure_graph,
    classify_errors,
    cover_ls,
    cover_utt,
    coverage_metrics,
    dpp_select,
    enumerate_local_structures,
    exact_match,
    format_prompt,
    gen_fixture,
    mock_complete,
    oracle_elements,
    parse_program,
    select_top_k,
    tokenize_utterance,
)

from geo_pool import TEST_UTTERANCE, demos_for
from helpers import brute_force_local_structures, random_program
from test_evaluation import ERROR_CASES
from test_retrieval import HAND_SCORES, TOY_DOCS
from test_selection import _oracle_kernel, _random_dpp_instance
from trace_cases import TRACE_CASES, assert_case

GOLDEN_DIR = Path(__file__).parent / "golden"

FIXTURE_SEED = 41
N_TRAIN, N_TEST = 1000, 250
K_SWEEP = (1, 2, 4, 8)

CALENDAR_PROGRAM = (
    'CreateEvent (AND (has_subject ("Work on Project"), '
    'starts_at (NextDOW ("Friday"))))'
)


@contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.time() - start
    print(f"\n[acceptance] criterion {number:2d} PASS  {description} ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def experiment():
    """Selection metrics for both strategies over the shared synthetic split."""
    start = time.time()
    fixture = gen_fixture(
        n_train=N_TRAIN, n_test=N_TEST, split="held-out-ls", seed=FIXTURE_SEED
    )
    bundle = build_indexes(fixture.corpus)
    tests = fixture.corpus.split("test")
    runs: dict[tuple[str, int], list[dict]] = {}
    coverage_selections: list[tuple[list[str], bool]] = []  # (templates, underfilled)

    def observe(selection, example):
        demos = [bundle.corpus.by_id[i] for i in selection.ids]
        symbol_cov, ls_cov, unique = coverage_metrics(
            [d.ls_set for d in demos], example.ls_set
        )
        assert symbol_cov >= ls_cov - 1e-12  # single symbols are easiest to cover
        prediction = mock_complete([d.program for d in demos], example.program)
        return {
            "em": exact_match(prediction, example.program),
            "symbol_cov": symbol_cov,
            "ls_cov": ls_cov,
            "unique": unique,
        }

    for k in K_SWEEP:
        for strategy in ("cover-ls", "top-k"):
            rows = []
            for example in tests:
                scores = bundle.bm25_utterance.scores(
                    tokenize_utterance(example.utterance)
                )
                if strategy == "cover-ls":
                    selection = cover_ls(
                        oracle_elements(example.program),
                        bundle.pool,
                        scores,
                        k,
                        postings=bundle.ls_postings,
                    )
                    coverage_selections.append(
                        (
                            [bundle.corpus.by_id[i].template for i in selection.ids],
                            selection.underfilled,
                        )
                    )
                else:
                    selection = select_top_k(bundle.pool, scores, k)
                rows.append(observe(selection, example))
            runs[(strategy, k)] = rows
    for example in tests:
        scores = bundle.bm25_utterance.scores(tokenize_utterance(example.utterance))
        selection = cover_utt(
            example.utterance,
            bundle.pool,
            scores,
            4,
            idf=bundle.bm25_utterance.idf,
            postings=bundle.token_postings,
        )
        coverage_selections.append(
            (
                [bundle.corpus.by_id[i].template for i in selection.ids],
                selection.underfilled,
            )
        )
    return {
        "runs": runs,
        "coverage_selections": coverage_selections,
        "elapsed": time.time() - start,
    }


def _mean(rows, key):
    return sum(row[key] for row in rows) / len(rows)


def test_criterion_1_published_structure_table():
    with criterion(1, "worked-example structure table reproduced exactly"):
        start = time.time()
        graph = build_structure_graph(anonymize(parse_program(CALENDAR_PROGRAM)))
        structures = enumerate_local_structures(graph)
        by_size = {}
        for ls in structures:
            by_size.setdefault(ls.size, set()).add(ls.canonical)
        assert by_size[1] == {
            "CreateEvent",
            "AND",
            "has_subject",
            "string",
            "starts_at",
            "NextDOW",
        }
        assert by_size[2] == {
            "<root> -> CreateEvent",
            "CreateEvent -> AND",
            "AND -> has_subject",
            "AND -> starts_at",
            "has_subject <-> starts_at",
            "has_subject -> string",
            "starts_at -> NextDOW",
            "NextDOW -> string",
        }
        assert by_size[3] == {
            "<root> -> CreateEvent -> AND",
            "CreateEvent -> AND -> has_subject",
            "CreateEvent -> AND -> starts_at",
            "AND -> has_subject <-> starts_at",
            "AND -> has_subject -> string",
            "AND -> starts_at -> NextDOW",
            "starts_at -> NextDOW -> string",
        }
        assert by_size[6] == {
            "<root> -> CreateEvent -> AND -> starts_at -> NextDOW -> string"
        }
        assert len(by_size[1]) == 6
        assert len(by_size[2]) == 8
        assert len(by_size[3]) == 7
        assert time.time() - start < 1.0


def test_criterion_2_enumerator_equals_brute_force():
    with criterion(2, "fast enumeration equals subset brute force on 500 programs"):
        start = time.time()
        rng = random.Random(99)
        for _ in range(500):
            graph = build_structure_graph(
                anonymize(parse_program(random_program(rng, max_nodes=11)))
            )
            assert graph.node_count <= 12
            expected = brute_force_local_structures(graph)
            got = {ls.canonical for ls in enumerate_local_structures(graph)}
            assert got == expected
        assert time.time() - start < 60.0


def test_criterion_3_coverage_loop_trace_conformance():
    with criterion(3, "coverage loop matches 10 hand-executed walks"):
        assert len(TRACE_CASES) == 10
        for case in TRACE_CASES:
            assert_case(case)


def test_criterion_4_dpp_greedy_exactness():
    with criterion(4, "greedy kernel selection is stepwise-exact on 200 instances"):
        rng = random.Random(1234)
        for _ in range(200):
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


def test_criterion_5_coverage_dominance(experiment):
    with criterion(5, "structure coverage and diversity dominate top-k at k=4"):
        cover = experiment["runs"][("cover-ls", 4)]
        top = experiment["runs"][("top-k", 4)]
        assert _mean(cover, "ls_cov") > _mean(top, "ls_cov")
        assert _mean(cover, "unique") > _mean(top, "unique")
        assert experiment["elapsed"] < 300.0


def test_criterion_6_mock_oracle_separation(experiment):
    with criterion(6, "mock-oracle accuracy separation and k-monotonicity"):
        accuracies = {
            k: _mean(experiment["runs"][("cover-ls", k)], "em") for k in K_SWEEP
        }
        top_k4 = _mean(experiment["runs"][("top-k", 4)], "em")
        assert accuracies[4] - top_k4 >= 0.10
        inversions = [
            accuracies[a] - accuracies[b]
            for a, b in zip(K_SWEEP, K_SWEEP[1:])
            if accuracies[b] < accuracies[a]
        ]
        assert len(inversions) <= 1
        assert all(drop <= 0.02 for drop in inversions)
        assert experiment["elapsed"] < 300.0


def test_criterion_7_prompt_golden_files():
    with criterion(7, "prompt rendering is byte-identical to golden files"):
        for method in ("top_k", "dpp", "cover_ls"):
            prompt = format_prompt(demos_for(method), TEST_UTTERANCE)
            golden = (GOLDEN_DIR / f"prompt_{method}.txt").read_bytes()
            assert prompt.text.encode("utf-8") == golden


def test_criterion_8_error_classifier_suite():
    with criterion(8, "error classifier verified on 12 constructed triples"):
        assert len(ERROR_CASES) == 12
        for name, pred, gold, demos, expected in ERROR_CASES:
            assert not exact_match(pred, gold), name
            assert classify_errors(pred, gold, demos) == expected, name


def test_criterion_9_bm25_hand_computation():
    with criterion(9, "BM25 scores match the documented hand computation"):
        index = Bm25Index(TOY_DOCS)
        for query, expected_scores in HAND_SCORES.items():
            scores = index.scores(list(query))
            ranked = index.rank(list(query))
            for doc_id, expected in expected_scores.items():
                assert abs(scores[doc_id] - expected) < 1e-9
            resorted = sorted(
                expected_scores.items(), key=lambda kv: (-kv[1], kv[0])
            )
            assert [doc for doc, _ in ranked] == [doc for doc, _ in resorted]


def test_criterion_10_template_deduplication(experiment):
    with criterion(10, "no duplicate templates across 1,250 coverage selections"):
        selections = experiment["coverage_selections"]
        assert len(selections) >= 1000
        for templates, underfilled in selections:
            if len(templates) != len(set(templates)):
                assert underfilled
                pytest.fail("duplicate templates in a filled selection")

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demoselect import (
    DialectConfig,
    EvalRecord,
    aggregate,
    anonymize,
    classify_errors,
    coverage_metrics,
    evaluate_record,
    exact_match,
    parse_program,
    unobserved_ls,
)
from demoselect.evaluation import (
    LABEL_MISSING,
    LABEL_OOV,
    LABEL_OVER_COPY,
    LABEL_SYNTAX,
    _symbols_and_template,
    program_symbols,
)
from demoselect.programs import DEFAULT_DIALECT
from demoselect.structures import build_structure_graph, enumerate_local_structures

from helpers import count_parses, random_texts, reference_symbols_and_template


def ls_set_of(program: str) -> set[str]:
    graph = build_structure_graph(anonymize(parse_program(program)))
    return {ls.canonical for ls in enumerate_local_structures(graph)}


def test_exact_match_identical():
    assert exact_match("f (a)", "f (a)")


def test_exact_match_ignores_whitespace_runs():
    assert exact_match("f  (a,   b)", "f (a, b)")
    assert exact_match("  f (a) ", "f (a)")


def test_exact_match_differs_on_symbols():
    assert not exact_match("f (a)", "f (b)")


# --- coverage ----------------------------------------------------------------


def test_coverage_full_when_gold_among_demos():
    gold = "f (a, g (b))"
    gold_set = ls_set_of(gold)
    symbol_cov, ls_cov, unique = coverage_metrics([gold_set], gold_set)
    assert symbol_cov == 1.0
    assert ls_cov == 1.0
    assert unique >= len(gold_set)


def test_coverage_zero_without_demos():
    assert coverage_metrics([], ls_set_of("f (a)")) == (0.0, 0.0, 0)


def test_coverage_half_symbols_fixture():
    # gold has symbols {f, a, g, b}; the demo covers {f, a} plus the three
    # shared path fragments, 5 of the gold's 15 structures in total.
    gold_set = ls_set_of("f (a, g (b))")
    demo_set = ls_set_of("f (a)")
    symbol_cov, ls_cov, unique = coverage_metrics([demo_set], gold_set)
    assert len(gold_set) == 15
    assert symbol_cov == pytest.approx(0.5)
    assert ls_cov == pytest.approx(5 / 15)
    assert unique == 5


def test_symbol_coverage_never_below_ls_coverage_here():
    gold_set = ls_set_of("f (filter (a, find (b)), count (c))")
    for demo_prog in ("f (a)", "filter (a, find (b))", "count (c)"):
        symbol_cov, ls_cov, _ = coverage_metrics([ls_set_of(demo_prog)], gold_set)
        assert symbol_cov >= ls_cov


# --- error classification ------------------------------------------------------

# Constructed (pred, gold, demos) triples covering each label alone and every
# attainable co-occurrence; the last one exercises the token-scan fallback
# for text that stays unparseable after repair.
ERROR_CASES = [
    ("syntax alone", "f (g (h)", "f (g (h))", ["x (y)"], {LABEL_SYNTAX}),
    ("over-copy alone", "f (b, a)", "f (a, b)", ["f (b, a)"], {LABEL_OVER_COPY}),
    ("missing alone", "f (a, b)", "f (a, g (b))", ["q (r)"], {LABEL_MISSING}),
    ("oov alone", "f (a, z (b))", "f (a, b)", ["q (r)"], {LABEL_OOV}),
    (
        "syntax with over-copy",
        "f (b, a))",
        "f (a, b)",
        ["f (b, a)"],
        {LABEL_SYNTAX, LABEL_OVER_COPY},
    ),
    (
        "syntax with oov",
        "f (a, z (b)",
        "f (a, b)",
        ["q (r)"],
        {LABEL_SYNTAX, LABEL_OOV},
    ),
    (
        "syntax with missing",
        "f (a, b",
        "f (a, g (b))",
        ["q (r)"],
        {LABEL_SYNTAX, LABEL_MISSING},
    ),
    (
        "over-copy with missing",
        "f (a, b)",
        "f (a, g (b))",
        ["f (a, b)"],
        {LABEL_OVER_COPY, LABEL_MISSING},
    ),
    (
        "oov with missing",
        "f (a, z (b))",
        "f (a, g (b))",
        ["q (r)"],
        {LABEL_OOV, LABEL_MISSING},
    ),
    (
        "syntax, over-copy and missing",
        "f (a, b))",
        "f (a, g (b))",
        ["f (a, b)"],
        {LABEL_SYNTAX, LABEL_OVER_COPY, LABEL_MISSING},
    ),
    (
        "syntax, oov and missing",
        "f (a, z (b",
        "f (a, g (b))",
        ["q (r)"],
        {LABEL_SYNTAX, LABEL_OOV, LABEL_MISSING},
    ),
    (
        "token-scan fallback",
        "f (a,,b",
        "f (a, b, c)",
        ["q (r)"],
        {LABEL_SYNTAX, LABEL_MISSING},
    ),
]


@pytest.mark.parametrize(
    "pred,gold,demos,expected",
    [case[1:] for case in ERROR_CASES],
    ids=[case[0] for case in ERROR_CASES],
)
def test_error_labels(pred, gold, demos, expected):
    assert not exact_match(pred, gold)
    assert classify_errors(pred, gold, demos) == expected


def test_wrong_prediction_can_carry_no_labels():
    # Same symbol set, different arrangement: wrong but unlabeled.
    pred, gold = "f (g (a), b)", "f (a, g (b))"
    assert not exact_match(pred, gold)
    assert classify_errors(pred, gold, ["q (r)"]) == set()


def test_over_copy_and_oov_cannot_cooccur():
    # A copied template shares the demo's symbols, so nothing is out of
    # vocabulary by construction.
    labels = classify_errors("f (z, a)", "f (a, b)", ["f (z, a)"])
    assert LABEL_OVER_COPY in labels
    assert LABEL_OOV not in labels


def test_program_symbols_token_scan_handles_values():
    assert program_symbols('f (3, "a town", g') == {"f", "number", "string", "g"}


VALUE_PARENTS = DialectConfig(name="vp", value_parents=frozenset({"g", "scan"}))


@settings(max_examples=500, deadline=None)
@given(text=random_texts(), dialect=st.sampled_from([DEFAULT_DIALECT, VALUE_PARENTS]))
def test_symbols_and_template_equal_the_reference(text, dialect):
    assert _symbols_and_template(text, dialect) == reference_symbols_and_template(
        text, dialect
    )


def test_classify_errors_parses_a_repaired_prediction_once(monkeypatch):
    parsed = count_parses(monkeypatch)
    labels = classify_errors("f (g (a)", "f (g (b))", [])
    assert labels == {LABEL_SYNTAX, LABEL_OOV, LABEL_MISSING}
    assert parsed == {"f (g (a))": 1, "f (g (b))": 1}


# --- unobserved structures -----------------------------------------------------


def test_unobserved_false_when_seen_in_training():
    gold_set = ls_set_of("f (a)")
    assert not unobserved_ls(gold_set, training_ls_union=set(gold_set))


def test_unobserved_true_for_novel_edge():
    gold_set = ls_set_of("f (a)")
    training = ls_set_of("f (b)")
    assert unobserved_ls(gold_set, training)


def test_unobserved_ignores_large_structures():
    gold = "f (g (h (i (j))))"
    gold_set = ls_set_of(gold)
    small = {c for c in gold_set if len(c.split(" -> ")) <= 4}
    assert not unobserved_ls(gold_set, training_ls_union=small, max_size=4)


def test_unobserved_monotone_in_training_growth():
    gold_set = ls_set_of("f (a, g (b))")
    smaller = ls_set_of("f (a)")
    bigger = smaller | ls_set_of("f (a, g (b))")
    assert unobserved_ls(gold_set, smaller)
    assert not unobserved_ls(gold_set, bigger)


# --- records and aggregation ----------------------------------------------------


def _record(i, em, sym=1.0, ls=1.0, labels=(), unobs=False, strategy="s"):
    return EvalRecord(
        example_id=f"r{i}",
        exact_match=em,
        symbol_coverage=sym,
        ls_coverage=ls,
        unique_ls_count=10,
        error_labels=set(labels),
        unobserved_ls=unobs,
        strategy=strategy,
    )


def test_evaluate_record_guards_labels_behind_exact_match():
    gold = "f (a, b)"
    gold_set = ls_set_of(gold)
    record = evaluate_record(
        example_id="x",
        pred="f  (a, b)",
        gold=gold,
        demo_programs=["f (a, b)"],
        demo_ls_sets=[gold_set],
        gold_ls_set=gold_set,
        training_ls_union=gold_set,
    )
    assert record.exact_match
    assert record.error_labels == set()


def test_aggregate_single_record_reports_itself():
    report = aggregate([_record(0, True, sym=0.7, ls=0.4)])
    assert report["count"] == 1
    assert report["accuracy"] == 1.0
    assert report["symbol_coverage"] == pytest.approx(0.7)
    assert report["ls_coverage"] == pytest.approx(0.4)


def test_aggregate_mixed_accuracy():
    report = aggregate([_record(0, True), _record(1, False, labels=[LABEL_MISSING])])
    assert report["accuracy"] == 0.5
    assert report["error_rates"][LABEL_MISSING] == 1.0
    assert report["error_rates"][LABEL_SYNTAX] == 0.0


def test_aggregate_matches_hand_averages():
    records = [
        _record(0, True, sym=1.0, ls=0.9, unobs=True),
        _record(1, False, sym=0.5, ls=0.3, labels=[LABEL_MISSING, LABEL_OOV]),
        _record(2, False, sym=0.8, ls=0.6, labels=[LABEL_MISSING]),
        _record(3, True, sym=0.7, ls=0.2),
    ]
    report = aggregate(records)
    assert report["accuracy"] == pytest.approx(0.5)
    assert report["symbol_coverage"] == pytest.approx((1.0 + 0.5 + 0.8 + 0.7) / 4)
    assert report["ls_coverage"] == pytest.approx((0.9 + 0.3 + 0.6 + 0.2) / 4)
    assert report["unobserved_ls_rate"] == pytest.approx(0.25)
    assert report["error_rates"][LABEL_MISSING] == pytest.approx(1.0)
    assert report["error_rates"][LABEL_OOV] == pytest.approx(0.5)


def test_aggregate_empty_is_empty():
    assert aggregate([]) == {"count": 0}


def test_aggregate_by_strategy_groups():
    records = [
        _record(0, True, strategy="top-k"),
        _record(1, False, labels=[LABEL_MISSING], strategy="cover-ls"),
    ]
    report = aggregate(records, by_strategy=True)
    assert report["by_strategy"]["top-k"]["accuracy"] == 1.0
    assert report["by_strategy"]["cover-ls"]["accuracy"] == 0.0

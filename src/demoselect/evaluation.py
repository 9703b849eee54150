"""Prediction scoring: exact match, coverage, error labels, aggregation.

Error labels parse each text once, through
:func:`~demoselect.programs.repair_parentheses`, and read its template and
symbols from :func:`~demoselect.structures.analyze`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .programs import (
    DEFAULT_DIALECT,
    DialectConfig,
    parens_balanced,
    repair_parentheses,
    scan_symbols,
)
from .structures import analyze, ls_size

LABEL_SYNTAX = "syntax"
LABEL_OVER_COPY = "over-copy"
LABEL_OOV = "oov-hallucination"
LABEL_MISSING = "missing-symbols"


def normalize_whitespace(text: str) -> str:
    return " ".join(text.split())


def exact_match(pred: str, gold: str) -> bool:
    """String equality after collapsing whitespace runs and trimming."""
    return normalize_whitespace(pred) == normalize_whitespace(gold)


def coverage_metrics(
    demo_ls_sets: Sequence[Iterable[str]], gold_ls_set: Iterable[str]
) -> tuple[float, float, int]:
    """(symbol coverage, structure coverage, unique structures in demos).

    Symbols are the single-node structures of the gold program; structure
    coverage spans the gold program's full structure set.
    """
    union: set[str] = set()
    for ls_set in demo_ls_sets:
        union |= set(ls_set)
    gold = set(gold_ls_set)
    gold_symbols = {c for c in gold if ls_size(c) == 1}
    symbol_cov = len(gold_symbols & union) / len(gold_symbols) if gold_symbols else 0.0
    ls_cov = len(gold & union) / len(gold) if gold else 0.0
    return symbol_cov, ls_cov, len(union)


def program_symbols(text: str, dialect: DialectConfig = DEFAULT_DIALECT) -> set[str]:
    """Anonymized symbol set of a program; falls back to a token scan when
    the text cannot be parsed even after parenthesis repair."""
    return _symbols_and_template(text, dialect)[0]


def _symbols_and_template(text, dialect) -> tuple[set[str], str | None]:
    """A program's anonymized symbols and template from one parse, after
    repair; unrepairable text has token-scan symbols and no template."""
    ast = repair_parentheses(text, dialect).ast
    if ast is None:
        return scan_symbols(text), None
    template, symbols = analyze(ast, max_size=1)
    return set(symbols), template


def classify_errors(
    pred: str,
    gold: str,
    demo_programs: Sequence[str],
    dialect: DialectConfig = DEFAULT_DIALECT,
) -> set[str]:
    """Label a wrong prediction; labels may co-occur.

    * syntax: unbalanced parentheses (or text unparseable even after repair).
    * over-copy: the prediction's template equals some demonstration's.
    * oov-hallucination: a predicted symbol absent from gold and all demos.
    * missing-symbols: a gold symbol absent from the prediction.

    Template and symbol tests run on the repaired form when the raw text
    does not parse; if even that fails, symbol tests use a plain token scan
    and the template test is skipped.
    """
    labels: set[str] = set()
    if not parens_balanced(pred):
        labels.add(LABEL_SYNTAX)
    pred_symbols, pred_template = _symbols_and_template(pred, dialect)
    if pred_template is None:
        labels.add(LABEL_SYNTAX)
    demo_symbols: set[str] = set()
    demo_templates: set[str | None] = set()
    for program in demo_programs:
        symbols, template = _symbols_and_template(program, dialect)
        demo_symbols |= symbols
        demo_templates.add(template)
    if pred_template is not None and pred_template in demo_templates:
        labels.add(LABEL_OVER_COPY)
    gold_symbols = program_symbols(gold, dialect)
    if pred_symbols - (gold_symbols | demo_symbols):
        labels.add(LABEL_OOV)
    if gold_symbols - pred_symbols:
        labels.add(LABEL_MISSING)
    return labels


def unobserved_ls(
    gold_ls_set: Iterable[str], training_ls_union: set[str], max_size: int = 4
) -> bool:
    """True when the gold program has a small structure never seen in training."""
    return any(
        c not in training_ls_union for c in gold_ls_set if ls_size(c) <= max_size
    )


@dataclass
class EvalRecord:
    example_id: str
    exact_match: bool
    symbol_coverage: float
    ls_coverage: float
    unique_ls_count: int
    error_labels: set[str] = field(default_factory=set)
    unobserved_ls: bool = False
    strategy: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.example_id,
            "exact_match": self.exact_match,
            "symbol_coverage": self.symbol_coverage,
            "ls_coverage": self.ls_coverage,
            "unique_ls_count": self.unique_ls_count,
            "error_labels": sorted(self.error_labels),
            "unobserved_ls": self.unobserved_ls,
            "strategy": self.strategy,
        }


def evaluate_record(
    example_id: str,
    pred: str,
    gold: str,
    demo_programs: Sequence[str],
    demo_ls_sets: Sequence[Iterable[str]],
    gold_ls_set: Iterable[str],
    training_ls_union: set[str],
    dialect: DialectConfig = DEFAULT_DIALECT,
    strategy: str = "",
) -> EvalRecord:
    """Score one prediction; error labels only exist for wrong predictions."""
    matched = exact_match(pred, gold)
    symbol_cov, ls_cov, unique = coverage_metrics(demo_ls_sets, gold_ls_set)
    labels = set() if matched else classify_errors(pred, gold, demo_programs, dialect)
    return EvalRecord(
        example_id=example_id,
        exact_match=matched,
        symbol_coverage=symbol_cov,
        ls_coverage=ls_cov,
        unique_ls_count=unique,
        error_labels=labels,
        unobserved_ls=unobserved_ls(gold_ls_set, training_ls_union),
        strategy=strategy,
    )


ALL_LABELS = (LABEL_SYNTAX, LABEL_OVER_COPY, LABEL_OOV, LABEL_MISSING)


def _summarize(records: Sequence[EvalRecord]) -> dict:
    n = len(records)
    wrong = [r for r in records if not r.exact_match]
    label_counts = Counter(label for r in wrong for label in r.error_labels)
    return {
        "count": n,
        "accuracy": sum(r.exact_match for r in records) / n,
        "symbol_coverage": sum(r.symbol_coverage for r in records) / n,
        "ls_coverage": sum(r.ls_coverage for r in records) / n,
        "unique_ls_count": sum(r.unique_ls_count for r in records) / n,
        "unobserved_ls_rate": sum(r.unobserved_ls for r in records) / n,
        "error_rates": {
            label: (label_counts[label] / len(wrong)) if wrong else 0.0
            for label in ALL_LABELS
        },
    }


def aggregate(
    records: Sequence[EvalRecord], by_strategy: bool = False
) -> dict:
    """Mean metrics, accuracy, and error-label rates over wrong predictions."""
    if not records:
        return {"count": 0}
    summary = _summarize(records)
    if by_strategy:
        groups: Mapping[str, list[EvalRecord]] = {}
        for record in records:
            groups.setdefault(record.strategy, []).append(record)
        summary["by_strategy"] = {
            name: _summarize(group) for name, group in sorted(groups.items())
        }
    return summary

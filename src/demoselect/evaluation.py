"""Prediction scoring: exact match, coverage, error labels, aggregation.

One rule scores a prediction (:func:`evaluate_coded`): exact match; the
symbol and structure coverage of the gold program by the demonstrations'
structures, and the count of their distinct structures; and whether the gold
holds a small structure that no pool example holds. It reads structures as
codes (see :class:`~demoselect.structures.CodedStructures`): the pipeline
passes each demonstration's row of the index's structure codes and builds no
demonstration example. :func:`evaluate_example` (over examples) and
:func:`evaluate_record` (over program text and structure sets) code their
sets over the names they hold and apply the same rule, as
:func:`coverage_metrics` and :func:`unobserved_ls` do for theirs.

The error-label rule (:func:`error_labels`), for a wrong prediction only,
takes the gold's and the demonstrations' symbols and templates, and reads
only the prediction, once, in the walk that
:func:`~demoselect.programs.repair_parentheses` returns: its template and
anonymized symbols, with no tree built and no structure enumerated. The
pipeline and :func:`evaluate_example` read the gold's and the
demonstrations' symbols and templates from what the index or the examples
hold, so no gold or demonstration program is parsed; :func:`classify_errors`
derives them from program text. A wrong prediction that is the program of
one of its demonstrations needs no parse at all: the pipeline takes its
labels from that pool row's codes (:func:`copy_labels`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, Callable, Iterable, Mapping, Sequence

import numpy as np

from .programs import (
    DEFAULT_DIALECT,
    DialectConfig,
    parens_balanced,
    repair_parentheses,
    scan_symbols,
)
from .retrieval import sequential_sum
from .structures import CodedStructures, coded_sets

if TYPE_CHECKING:
    from .corpus import Example

LABEL_SYNTAX = "syntax"
LABEL_OVER_COPY = "over-copy"
LABEL_OOV = "oov-hallucination"
LABEL_MISSING = "missing-symbols"
# the largest structures (in nodes) whose absence from training unobserved_ls counts
UNOBSERVED_MAX_SIZE = 4


def normalize_whitespace(text: str) -> str:
    return " ".join(text.split())


def exact_match(pred: str, gold: str) -> bool:
    """String equality after collapsing whitespace runs and trimming."""
    return normalize_whitespace(pred) == normalize_whitespace(gold)


def _coverage(held: np.ndarray, gold: CodedStructures) -> tuple[float, float, int]:
    """(symbol coverage, structure coverage, unique structures in demos) from
    ``held``, the mask of the codes the demonstrations hold.

    Symbols are the single-node structures of the gold program; structure
    coverage spans the gold program's full structure set.
    """
    covered = held[gold.codes]
    n_symbols = int(np.count_nonzero(gold.symbols))
    n_covered_symbols = int(np.count_nonzero(covered & gold.symbols))
    symbol_cov = n_covered_symbols / n_symbols if n_symbols else 0.0
    ls_cov = int(np.count_nonzero(covered)) / len(covered) if len(covered) else 0.0
    return symbol_cov, ls_cov, int(np.count_nonzero(held))


def coverage_metrics(
    demo_ls_sets: Sequence[Iterable[str]], gold_ls_set: Iterable[str]
) -> tuple[float, float, int]:
    """(symbol coverage, structure coverage, unique structures in demos) of
    structure sets, coded over the names they hold."""
    _, rows, gold = coded_sets(demo_ls_sets, gold_ls_set)
    return _coverage(gold.union(rows), gold)


def program_symbols(text: str, dialect: DialectConfig = DEFAULT_DIALECT) -> set[str]:
    """Anonymized symbol set of a program; falls back to a token scan when
    the text cannot be parsed even after parenthesis repair."""
    return _symbols_and_template(text, dialect)[0]


def _symbols_and_template(text, dialect) -> tuple[set[str], str | None]:
    """A program's anonymized symbols and template from one walk, after
    repair; unrepairable text has token-scan symbols and no template."""
    walk = repair_parentheses(text, dialect).walk
    if walk is None:
        return scan_symbols(text), None
    return set(walk.symbols[1:]), walk.template


def error_labels(
    pred: str,
    gold_symbols: AbstractSet[str],
    demo_symbols: AbstractSet[str],
    demo_templates: AbstractSet[str | None],
    dialect: DialectConfig = DEFAULT_DIALECT,
) -> set[str]:
    """Label a wrong prediction from the gold's symbols and the
    demonstrations' symbols (their union) and templates; labels may co-occur.

    * syntax: unbalanced parentheses (or text unparseable even after repair).
    * over-copy: the prediction's template equals some demonstration's.
    * oov-hallucination: a predicted symbol absent from gold and all demos.
    * missing-symbols: a gold symbol absent from the prediction.

    Template and symbol tests run on the repaired form when the raw text
    does not parse; if even that fails, symbol tests use a plain token scan
    and the template test is skipped. Only ``pred`` is parsed.
    """
    labels: set[str] = set()
    if not parens_balanced(pred):
        labels.add(LABEL_SYNTAX)
    pred_symbols, pred_template = _symbols_and_template(pred, dialect)
    if pred_template is None:
        labels.add(LABEL_SYNTAX)
    elif pred_template in demo_templates:
        labels.add(LABEL_OVER_COPY)
    if not pred_symbols <= gold_symbols | demo_symbols:
        labels.add(LABEL_OOV)
    if not gold_symbols <= pred_symbols:
        labels.add(LABEL_MISSING)
    return labels


def copy_labels(gold: CodedStructures, copied: np.ndarray) -> set[str]:
    """The labels :func:`error_labels` gives a wrong prediction that is the
    program of one of its demonstrations, read from that demonstration's
    structure codes ``copied`` and the gold's codes, with no parse. The index
    parsed that text under the same dialect: its parentheses balance, its
    template is that demonstration's and its symbols are among theirs. So it
    is an over-copy, and misses symbols if the gold holds one it lacks."""
    labels = {LABEL_OVER_COPY}
    if not gold.union([copied])[gold.codes[gold.symbols]].all():
        labels.add(LABEL_MISSING)
    return labels


def classify_errors(
    pred: str,
    gold: str,
    demo_programs: Sequence[str],
    dialect: DialectConfig = DEFAULT_DIALECT,
) -> set[str]:
    """:func:`error_labels` over program text: the gold's and each
    demonstration's symbols and template come from parsing it, after repair
    (see :func:`program_symbols`)."""
    demo_symbols: set[str] = set()
    demo_templates: set[str | None] = set()
    for program in demo_programs:
        symbols, template = _symbols_and_template(program, dialect)
        demo_symbols |= symbols
        demo_templates.add(template)
    return error_labels(
        pred, program_symbols(gold, dialect), demo_symbols, demo_templates, dialect
    )


def _unobserved(gold: CodedStructures, observed: np.ndarray) -> bool:
    """Whether the gold program has a small structure (of at most
    :data:`UNOBSERVED_MAX_SIZE` nodes) whose code ``observed``, the mask of
    the training structures' codes, does not hold."""
    return not observed[gold.codes[gold.sizes <= UNOBSERVED_MAX_SIZE]].all()


def _observed(codes: Mapping[str, int], training_ls_union: AbstractSet[str]) -> np.ndarray:
    """The mask of the ``codes`` (see
    :func:`~demoselect.structures.structure_codes`), in their order, that name
    a training structure; the code of the names they lack names none."""
    return np.array([name in training_ls_union for name in codes] + [False])


def unobserved_ls(gold_ls_set: Iterable[str], training_ls_union: AbstractSet[str]) -> bool:
    """True when the gold program has a small structure (of at most
    :data:`UNOBSERVED_MAX_SIZE` nodes) never seen in training."""
    codes, _, gold = coded_sets([], gold_ls_set)
    return _unobserved(gold, _observed(codes, training_ls_union))


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


def evaluate_coded(
    example_id: str,
    pred: str,
    gold_program: str,
    demo_rows: Sequence[np.ndarray],
    gold: CodedStructures,
    observed: np.ndarray,
    labels: Callable[[], set[str]],
    strategy: str = "",
) -> EvalRecord:
    """Score one prediction from structure codes: the demonstrations' rows
    and the gold's codes, over one vocabulary, and ``observed``, the mask of
    the training structures' codes. ``labels()`` gives the error labels of a
    wrong prediction, and is not called for a right one."""
    matched = exact_match(pred, gold_program)
    symbol_cov, ls_cov, unique = _coverage(gold.union(demo_rows), gold)
    return EvalRecord(
        example_id=example_id,
        exact_match=matched,
        symbol_coverage=symbol_cov,
        ls_coverage=ls_cov,
        unique_ls_count=unique,
        error_labels=set() if matched else labels(),
        unobserved_ls=_unobserved(gold, observed),
        strategy=strategy,
    )


def evaluate_record(
    example_id: str,
    pred: str,
    gold: str,
    demo_programs: Sequence[str],
    demo_ls_sets: Sequence[Iterable[str]],
    gold_ls_set: Iterable[str],
    training_ls_union: AbstractSet[str],
    dialect: DialectConfig = DEFAULT_DIALECT,
    strategy: str = "",
) -> EvalRecord:
    """:func:`evaluate_coded` over structure sets, coded over the names they
    hold, with the labels of :func:`classify_errors`."""
    codes, rows, coded = coded_sets(demo_ls_sets, gold_ls_set)
    observed = _observed(codes, training_ls_union)

    def labels() -> set[str]:
        return classify_errors(pred, gold, demo_programs, dialect)

    return evaluate_coded(example_id, pred, gold, rows, coded, observed, labels, strategy)


def evaluate_example(
    example: Example,
    pred: str,
    demos: Sequence[Example],
    training_ls_union: AbstractSet[str],
    dialect: DialectConfig = DEFAULT_DIALECT,
    strategy: str = "",
) -> EvalRecord:
    """:func:`evaluate_record` for a gold example and its demonstration
    examples: symbols, templates and structure sets come from the examples,
    and only a wrong prediction is parsed."""

    def labels() -> set[str]:
        demo_symbols = set().union(*(demo.symbol_seq for demo in demos))
        gold_symbols = set(example.symbol_seq)
        return error_labels(pred, gold_symbols, demo_symbols, {d.template for d in demos}, dialect)

    codes, rows, coded = coded_sets([demo.ls_counts for demo in demos], example.ls_counts)
    observed = _observed(codes, training_ls_union)
    program = example.program
    return evaluate_coded(example.id, pred, program, rows, coded, observed, labels, strategy)


ALL_LABELS = (LABEL_SYNTAX, LABEL_OVER_COPY, LABEL_OOV, LABEL_MISSING)


def _summarize(records: Sequence[EvalRecord]) -> dict:
    n = len(records)
    wrong = [r for r in records if not r.exact_match]
    label_counts = Counter(label for r in wrong for label in r.error_labels)
    return {
        "count": n,
        "accuracy": sum(r.exact_match for r in records) / n,
        "symbol_coverage": sequential_sum(r.symbol_coverage for r in records) / n,
        "ls_coverage": sequential_sum(r.ls_coverage for r in records) / n,
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

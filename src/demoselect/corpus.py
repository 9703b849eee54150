"""Dataset ingestion, cached structure sets, retrieval indexes, persistence.

Corpora are JSONL files with ``{"id"?, "utterance", "program", "split"?}``
lines. A program is parsed once, when its example is made: the example keeps
the program's template and local-structure counts, and the index stores
exactly the fields of :data:`STORED_FIELDS`, so loading an index parses no
program. The utterance tokens and the symbol sequence (the size-1
structures) derive from the stored fields. Every loaded beam keeps its
local-structure set. Selection reads these caches. Loading builds only the
utterance BM25, whose per-posting impacts are computed once there; the
structure and token posting lists, the symbol BM25 and the tf-idf rows
(arrays, for ``dpp`` only) are built on first use, so a strategy pays only
for what it reads. The CLI's mock model and training mode read the stored
structure counts too; only the error labels of evaluation
(:func:`~demoselect.evaluation.classify_errors`) still re-derive structures,
symbols and templates from program text.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import CorpusError, IndexVersionError, IoError, ParseError
from .programs import (
    DEFAULT_DIALECT,
    DialectConfig,
    anonymize,
    parse_program,
    render,
    repair_parentheses,
)
from .retrieval import Bm25Index, ls_tfidf_vectors, term_postings, tokenize_utterance
from .structures import (
    build_structure_graph,
    count_local_structures,
    ls_size,
    program_structures,
)

logger = logging.getLogger(__name__)

INDEX_MAGIC = "demoselect-index"
INDEX_VERSION = 2
STORED_FIELDS = ("id", "utterance", "program", "template", "ls_counts", "split")


def read_text(path: str | Path, what: str) -> str:
    """A UTF-8 file's text; an unreadable or undecodable file is an IoError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc


def write_text(path: str | Path, text: str, what: str) -> None:
    """Write a UTF-8 file whole, through a temporary file beside it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise IoError(f"cannot write {what} {path}: {exc}") from exc


@dataclass
class Example:
    id: str
    utterance: str
    program: str
    template: str
    ls_counts: dict[str, int]
    split: str = "train"
    utt_tokens: list[str] = field(init=False)

    def __post_init__(self):
        self.utt_tokens = tokenize_utterance(self.utterance)

    @property
    def ls_set(self) -> set[str]:
        return set(self.ls_counts)

    @cached_property
    def symbol_seq(self) -> list[str]:
        """The program's symbols: each size-1 structure once per occurrence
        (a symbol holds no space, and every larger structure holds a
        separator)."""
        counts = self.ls_counts
        return [c for c in counts if " " not in c for _ in range(counts[c])]


def make_example(
    example_id: str,
    utterance: str,
    program: str,
    split: str = "train",
    dialect: DialectConfig = DEFAULT_DIALECT,
) -> Example:
    anon = anonymize(parse_program(program, dialect))
    return Example(
        id=example_id,
        utterance=utterance,
        program=program,
        template=render(anon),
        ls_counts=dict(count_local_structures(build_structure_graph(anon))),
        split=split,
    )


@dataclass
class Corpus:
    examples: list[Example]
    dialect: DialectConfig = DEFAULT_DIALECT
    failures: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.by_id = {ex.id: ex for ex in self.examples}

    def __len__(self) -> int:
        return len(self.examples)

    def split(self, name: str) -> list[Example]:
        return [ex for ex in self.examples if ex.split == name]


def load_examples(
    path: str | Path,
    dialect: DialectConfig = DEFAULT_DIALECT,
    default_split: str = "train",
) -> Corpus:
    """Load and preprocess a JSONL corpus.

    Individual bad lines are collected, not fatal; more than 10% bad lines
    raises :class:`CorpusError`.
    """
    raw = read_text(path, "corpus file")
    examples: list[Example] = []
    failures: list[dict] = []
    seen_ids: set[str] = set()
    lines = [ln for ln in raw.splitlines() if ln.strip()]
    for lineno, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
            utterance = record["utterance"]
            program = record["program"]
            example_id = str(record.get("id") or f"ex{lineno:05d}")
            if example_id in seen_ids:
                raise ValueError(f"duplicate example id {example_id!r}")
            example = make_example(
                example_id,
                utterance,
                program,
                split=record.get("split", default_split),
                dialect=dialect,
            )
        except (ValueError, KeyError, ParseError) as exc:
            failures.append({"line": lineno, "error": str(exc)})
            continue
        seen_ids.add(example_id)
        examples.append(example)
    if not lines:
        logger.warning("corpus file %s is empty", path)
    if lines and len(failures) > 0.1 * len(lines):
        raise CorpusError(
            f"{len(failures)} of {len(lines)} corpus lines failed to load",
            failures=failures,
        )
    return Corpus(examples=examples, dialect=dialect, failures=failures)


@dataclass
class PredictionBundle:
    """Beam candidates for one test example, repaired and structure-cached."""

    example_id: str
    beams: list[str]
    repaired: list[bool]
    beam_ls_sets: list[set[str]] = field(default_factory=list)

    @property
    def beam_count(self) -> int:
        return len(self.beams)

    @property
    def ls_union(self) -> set[str]:
        return set().union(*self.beam_ls_sets)

    def first(self, n: int) -> "PredictionBundle":
        """The bundle of the first ``n`` kept beams."""
        return PredictionBundle(
            self.example_id, self.beams[:n], self.repaired[:n], self.beam_ls_sets[:n]
        )


def load_predictions(
    path: str | Path, dialect: DialectConfig = DEFAULT_DIALECT
) -> dict[str, PredictionBundle]:
    """Load beam-candidate JSONL ``{"id": ..., "beams": [...]}``.

    A beam that does not parse gets its trailing parentheses repaired (a
    well-formed one is parsed once); unrepairable beams are dropped, possibly
    leaving an empty bundle (empty structure set).
    """
    raw = read_text(path, "predictions file")
    bundles: dict[str, PredictionBundle] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            example_id = str(record["id"])
        except (ValueError, KeyError, TypeError) as exc:
            raise CorpusError(
                f"{path}:{lineno}: not a JSON object with an id: {exc}"
            ) from exc
        beams = record.get("beams", [])
        if not isinstance(beams, list) or not all(isinstance(b, str) for b in beams):
            raise CorpusError(f"{path}:{lineno}: beams must be a list of strings")
        bundle = PredictionBundle(example_id=example_id, beams=[], repaired=[])
        for beam in beams:
            text, repaired = beam, False
            try:
                structures = program_structures(text, dialect)
            except ParseError:
                result = repair_parentheses(beam, dialect)
                if not result.ok:
                    logger.warning(
                        "dropping unrepairable beam for %s (line %d)", example_id, lineno
                    )
                    continue
                text, repaired = result.text, result.repaired
                structures = program_structures(text, dialect)
            bundle.beams.append(text)
            bundle.repaired.append(repaired)
            bundle.beam_ls_sets.append(set(structures))
        bundles[example_id] = bundle
    return bundles


class IndexBundle:
    """All retrieval state for a corpus: posting lists, BM25, tf-idf rows.

    Only the training split is indexed as the selection pool; queries come
    from test utterances or predicted symbols. The bundle persists to a
    versioned JSON file and is rebuilt deterministically on load.
    """

    def __init__(self, corpus: Corpus, k1: float = 1.2, b: float = 0.75):
        self.corpus = corpus
        self.k1 = k1
        self.b = b
        self.pool = {ex.id: ex for ex in corpus.split("train")}
        self.bm25_utterance = Bm25Index(
            {i: ex.utt_tokens for i, ex in self.pool.items()}, k1=k1, b=b
        )

    @cached_property
    def ls_postings(self) -> dict[str, list[str]]:
        return term_postings({i: ex.ls_counts for i, ex in self.pool.items()})

    @cached_property
    def token_postings(self) -> dict[str, list[str]]:
        ids = self.bm25_utterance.doc_ids
        return {
            token: [ids[row] for row in rows.tolist()]
            for token, (rows, _) in self.bm25_utterance.impacts.items()
        }

    @cached_property
    def bm25_symbols(self) -> Bm25Index:
        return Bm25Index(
            {i: ex.symbol_seq for i, ex in self.pool.items()}, k1=self.k1, b=self.b
        )

    @cached_property
    def tfidf(self):
        return ls_tfidf_vectors({i: ex.ls_counts for i, ex in self.pool.items()})

    def training_ls_union(self, max_size: int | None = None) -> set[str]:
        union = set().union(*(ex.ls_counts for ex in self.pool.values()))
        return {c for c in union if max_size is None or ls_size(c) <= max_size}

    def stats(self) -> dict:
        pool = list(self.pool.values())
        return {
            "examples": len(self.corpus),
            "train": len(pool),
            "test": len(self.corpus.split("test")),
            "unique_templates": len({ex.template for ex in pool}),
            "unique_ls": len(self.training_ls_union()),
        }

    def save(self, path: str | Path) -> None:
        payload = {
            "magic": INDEX_MAGIC,
            "version": INDEX_VERSION,
            "k1": self.k1,
            "b": self.b,
            "dialect": self.corpus.dialect.to_dict(),
            "examples": [
                {name: getattr(ex, name) for name in STORED_FIELDS}
                for ex in self.corpus.examples
            ],
        }
        write_text(path, json.dumps(payload, sort_keys=True), "index file")

    @classmethod
    def load(cls, path: str | Path) -> "IndexBundle":
        try:
            payload = json.loads(read_text(path, "index file"))
        except ValueError as exc:
            raise IoError(f"index file {path} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("magic") != INDEX_MAGIC:
            raise IndexVersionError(f"{path} is not an index file")
        if payload.get("version") != INDEX_VERSION:
            raise IndexVersionError(
                f"{path}: index version {payload.get('version')} unsupported "
                f"(expected {INDEX_VERSION}); rebuild it with `demoselect index`"
            )
        try:
            dialect = DialectConfig.from_dict(payload["dialect"])
            examples = [
                Example(**{name: rec[name] for name in STORED_FIELDS})
                for rec in payload["examples"]
            ]
            k1, b = payload["k1"], payload["b"]
        except (KeyError, TypeError) as exc:
            raise IoError(f"index file {path} has a malformed record: {exc!r}") from exc
        return cls(Corpus(examples=examples, dialect=dialect), k1=k1, b=b)


def build_indexes(corpus: Corpus, k1: float = 1.2, b: float = 0.75) -> IndexBundle:
    return IndexBundle(corpus, k1=k1, b=b)

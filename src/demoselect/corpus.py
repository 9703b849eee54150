"""Dataset ingestion, cached structure sets, retrieval indexes, persistence.

Every JSON value is decoded by :func:`decode_json`. :func:`read_json` and
:func:`write_json` read and write whole JSON files; :func:`read_rows`, the
lenient :func:`load_examples` (each row checked by :func:`check_row`) and
:func:`write_rows` the JSONL files. Corpora are JSONL files with
``{"id"?, "utterance", "program", "split"?}`` lines (:data:`CORPUS_ROW`).
A program is read once, when its example is made, in one walk over its
tokens (:func:`~demoselect.structures.read_structures`): its template, its
local-structure counts and each structure's node count, with no graph built.
Every loaded beam is read once, in the walk that
:func:`~demoselect.programs.repair_parentheses` returns, and keeps its
local-structure set and their node counts.

A corpus holds its examples as an :class:`ExampleTable`: the record columns
of :data:`RECORD_FIELDS`, and each example built the first time it is read
and kept from then on. The pool's ids, ``Corpus.by_id`` (an id → row map) and
``Corpus.split`` read the columns, not the examples.

:func:`build_indexes` orders the corpus pool first, its training examples in
id order, so that example ``r`` of the pool is pool row ``r`` (see
:class:`~demoselect.selection.Pool`) in every array; the header count
``pool`` ends it. It computes, once, the arrays of :data:`ARRAY_DTYPES`: the
record columns (each text column as UTF-8 bytes plus offsets, the templates as
codes), every example's structure counts as CSR rows over the sorted structure
vocabulary, the pool's entries of those rows again by structure (their CSC
form), and the pool's utterance BM25 impacts and tf-idf weights, one per
``ls`` entry of the pool's rows, whose offsets and columns the tf-idf rows
share. An index file stores these arrays after a short JSON header line.
Loading maps the file read-only and takes each array as a view of the
mapping, copying nothing. An array is checked against its CRC-32 and its
layout rule when first read: loading's layout checks read all but
``ls_counts``, ``lsc_rows``, ``lsc_counts``, ``bm25_contrib`` and
``tfidf_weights``, which are checked when a command first reads them (see
:data:`ARRAY_DTYPES`). Loading decodes the example ids and no other text,
parses no program, tokenizes no utterance, decodes no structure-count map and
builds no example.

Both end in the one :class:`IndexBundle` constructor, so a built and a loaded
bundle serve the same state by construction, all of it from the arrays and
each part on first use: the pool's template codes and the statistics read the
code arrays, the utterance BM25 and the tf-idf rows (``dpp`` only) are views
of the arrays, and the structure postings (``cover-ls``), the symbol BM25 and
the training structure union read the stored CSC form: each structure's
document frequency is the difference of its offsets, and a structure's
posting list is its slice of the stored rows, cut when it is looked up. No
command sorts the pool's entries. The token postings are the BM25 impact
rows.

A pool row is read where it is stored, and no command builds a pool
:class:`Example` to serve a demonstration: the bundle's row readers give a
record's texts (``IndexBundle.records``), its structures as vocabulary codes
or names (``IndexBundle.ls``, a :class:`StructureRows`), and a pool row's
utterance tokens. They refer to no bundle, so that no reference cycle keeps
a dropped bundle, and the file it maps, alive. The prompt reads a
demonstration's texts, the coverage loop a pick's structures or tokens, and
the mock and evaluation its codes, against each target's structures coded
once over the vocabulary from the node counts its example holds
(:meth:`IndexBundle.coded`). The coverage loop reads each walked
structure's candidate rows by its code. A wrong prediction that is a
demonstration's program takes its error labels from that pool row; any
other reads the demonstrations' symbols (their codes under
:attr:`IndexBundle.symbol_mask`) and templates. So ``run`` reads only its
``--test`` rows, its beams and the wrong predictions that copy no
demonstration. An
example is built only for a caller that reads one: a test example of the
index, a training target (``--train-mode``), or a library caller's
``pool[id]``. It is built the first time it is read, with its texts decoded
and its structure-count dict decoded from its slice of the ``ls`` arrays;
its utterance tokens wait until they are first read.
"""

from __future__ import annotations

import json
import logging
import mmap
import os
import re
import threading
import zlib
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter, lt
from pathlib import Path
from typing import BinaryIO, Callable

import numpy as np

from .errors import CorpusError, IndexVersionError, IoError, ParseError
from .programs import DEFAULT_DIALECT, DialectConfig, repair_parentheses
from .retrieval import (
    Bm25Index,
    ColumnPostings,
    RowPostings,
    SparseRows,
    ls_tfidf_arrays,
    tokenize_utterance,
)
from .selection import Pool
from .structures import CodedStructures, is_symbol, local_structures, ls_size, read_structures

logger = logging.getLogger(__name__)

SPLITS = ("train", "test")
INDEX_MAGIC = "demoselect-index"
INDEX_VERSION = 10
RECORD_FIELDS = ("id", "utterance", "program", "template", "split")
# An index file lists its examples pool first: its header count "pool" of
# training examples in id order, then the test examples in the order they were
# indexed. Record r and every group's row r then all mean pool row r. Built or
# read, the arrays go to the one IndexBundle constructor. Each is 1-D and of its
# dtype here, little-endian on any machine (a file stores no dtype or shape);
# they form groups of rows stored back to back (see retrieval.row_slices), each
# group with its offsets:
# - id, utterance, program: one UTF-8 text per record, its bytes in
#   <name>_bytes (Apache Arrow's string layout); a lone surrogate, which JSON
#   can hold, is stored as its three bytes (see _UTF8_ERRORS);
# - template: the distinct templates, one UTF-8 text each, in the order the
#   records first hold them; template_codes gives each record's row of them;
# - ls: every example's structure counts, by record; the columns index the
#   sorted structure vocabulary;
# - lsc: the pool's ls entries (the first ones) by column, their CSC form, as
#   a postings list groups documents by term: lsc_offsets holds one offset per
#   vocabulary code, plus one, and column c's entries hold the pool rows
#   holding structure c, ascending (lsc_rows), and their counts (lsc_counts);
# - bm25: the pool's utterance BM25 postings, term by term (see Bm25Index);
# - tfidf_weights: the pool's tf-idf rows, one weight per ls entry of the
#   pool's records, read with their ls offsets and columns.
# A loaded array is checked, its CRC-32 and then its layout rule, the first
# time it is read (see _CheckedArrays). _check_layout reads every array at
# load but ls_counts, lsc_rows, lsc_counts, bm25_contrib and tfidf_weights,
# whose lengths it checks from the header; those are checked at their first
# read, so a command pays only for the arrays it reads.
TEXT_FIELDS = ("id", "utterance", "program", "template")
ARRAY_DTYPES = {
    "id_offsets": np.dtype("<i8"),
    "id_bytes": np.dtype("u1"),
    "utterance_offsets": np.dtype("<i8"),
    "utterance_bytes": np.dtype("u1"),
    "program_offsets": np.dtype("<i8"),
    "program_bytes": np.dtype("u1"),
    "template_offsets": np.dtype("<i8"),
    "template_bytes": np.dtype("u1"),
    "template_codes": np.dtype("<i4"),
    "ls_offsets": np.dtype("<i8"),
    "ls_columns": np.dtype("<i4"),
    "ls_counts": np.dtype("<i4"),
    "lsc_offsets": np.dtype("<i8"),
    "lsc_rows": np.dtype("<i4"),
    "lsc_counts": np.dtype("<i4"),
    "bm25_offsets": np.dtype("<i8"),
    "bm25_rows": np.dtype("<i8"),
    "bm25_contrib": np.dtype("<f8"),
    "tfidf_weights": np.dtype("<f8"),
}
# encode and decode a text column's lone surrogates (JSON's "\ud800") as
# three bytes each, so that every corpus string round-trips through an index
_UTF8_ERRORS = "surrogatepass"
_ALIGN = 64
_REBUILD = "rebuild it with `demoselect index`"


def read_text(path: str | Path, what: str) -> str:
    """A UTF-8 file's text; an unreadable or undecodable file is an IoError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {what} {path}: {exc}") from exc


def write_file(path: str | Path, write: Callable[[BinaryIO], object], what: str) -> None:
    """Write a file whole: ``write`` fills a temporary file beside it, which
    then replaces it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise IoError(f"cannot write {what} {path}: {exc}") from exc


def write_text(path: str | Path, text: str, what: str) -> None:
    """Write ``text`` whole as UTF-8, each lone surrogate as its ``\\udXXX`` escape."""
    data = text.encode("utf-8", "backslashreplace")
    write_file(path, lambda handle: handle.write(data), what)


# --- JSON values and JSONL rows ----------------------------------------------


class _NotANumber(ValueError):
    """NaN, Infinity or -Infinity: RFC 8259 §6 has no number for them."""


def _no_number(name: str) -> None:
    raise _NotANumber(f"{name} is not a JSON number (RFC 8259 §6)")


_DECODER = json.JSONDecoder(parse_constant=_no_number)  # the one JSON decoder
# a JSON string, or a bare NaN, Infinity or -Infinity (group 1)
_STRING_OR_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)')


def decode_json(text: str | bytes) -> object:
    """The JSON value ``text`` (bytes as UTF-8) holds, else ValueError ``not valid JSON: …``
    caused by the parser's ValueError or RecursionError (RFC 8259 §9 lets a parser limit
    nesting); NaN, Infinity and -Infinity are not JSON."""
    try:
        return _DECODER.decode(text if isinstance(text, str) else str(text, "utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object a UTF-8 file holds, else an IoError naming the file (and line)."""
    text = read_text(path, what)
    try:
        value = decode_json(text)
        check_row(value, {})
    except ValueError as exc:
        cause = exc.__cause__
        if isinstance(cause, _NotANumber):
            # parse_constant is given no place; the decoder reads in order, so
            # the constant it met is the first outside a string
            at = next(m for m in _STRING_OR_CONSTANT.finditer(text) if m[1]).start()
            cause = json.JSONDecodeError(str(cause), text, at)
        line = f":{cause.lineno}" if isinstance(cause, json.JSONDecodeError) else ""
        raise IoError(f"{path}{line}: {exc}") from exc
    return value


def write_json(path: str | Path, value: object, what: str) -> None:
    """Write ``value`` whole as key-sorted JSON indented by two spaces."""
    write_text(path, json.dumps(value, sort_keys=True, indent=2), what)


# What a row's value must be: a description and its check.
STRING = ("a string", lambda value: isinstance(value, str))
ID = ("a non-empty string", lambda value: isinstance(value, str) and value != "")
STRINGS = (
    "a list of strings", lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)
)
SPLIT = (" or ".join(map(repr, SPLITS)), lambda value: value in SPLITS)

# The keys of a corpus line, its id and split filled in when it has none, and
# of a beam file's row.
CORPUS_ROW = {"id": ID, "utterance": STRING, "program": STRING, "split": SPLIT}
BEAMS_ROW = {"id": ID, "beams": STRINGS}


def write_rows(path: str | Path, rows: list[dict], what: str) -> None:
    """Write ``rows`` whole as JSONL, one key-sorted JSON object a line."""
    text = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    write_text(path, text, what)


def check_row(row: object, fields: dict[str, tuple]) -> None:
    """Raise ValueError, naming the first defect, unless ``row`` is an object
    holding each key of ``fields`` with a value its check accepts."""
    if not isinstance(row, dict):
        raise ValueError("not a JSON object")
    for key, (description, check) in fields.items():
        if key not in row:
            raise ValueError(f"{key} is missing")
        if not check(row[key]):
            raise ValueError(f"{key} must be {description}, got {row[key]!r}")


def _check_new_id(seen: dict[str, int], example_id: str, lineno: int) -> None:
    """Note ``example_id``'s line in ``seen``; raise ValueError if it holds one."""
    first = seen.setdefault(example_id, lineno)
    if first != lineno:
        raise ValueError(f"id {example_id!r} repeats line {first}")


def _json_lines(path: str | Path, what: str) -> list[tuple[int, str]]:
    """The numbered lines of a UTF-8 file that are not blank."""
    lines = enumerate(read_text(path, what).splitlines(), start=1)
    return [(lineno, line) for lineno, line in lines if line.strip()]


def read_rows(path: str | Path, fields: dict[str, tuple], what: str) -> list[dict]:
    """The rows of a JSONL file: every line JSON, then every row passing
    :func:`check_row` with ``fields``, which hold an ``"id"``, and no two
    rows of one id. The first bad line is an :class:`IoError` naming it."""
    numbered, seen = [], {}
    try:
        for lineno, line in _json_lines(path, what):
            numbered.append((lineno, decode_json(line)))
        for lineno, row in numbered:
            check_row(row, fields)
            _check_new_id(seen, row["id"], lineno)
    except ValueError as exc:
        raise IoError(f"{path}:{lineno}: {exc}") from exc
    return [row for _, row in numbered]


@dataclass
class Example:
    id: str
    utterance: str
    program: str
    template: str
    ls_counts: dict[str, int]
    split: str = "train"
    # each structure of ls_counts mapped to its node count, in its order: the
    # sizes the program's walk gave, else counted from the names
    ls_sizes: dict[str, int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.ls_sizes is None:
            self.ls_sizes = {name: ls_size(name) for name in self.ls_counts}

    @cached_property
    def utt_tokens(self) -> list[str]:
        return tokenize_utterance(self.utterance)

    @property
    def ls_set(self) -> set[str]:
        return set(self.ls_counts)

    @cached_property
    def symbol_seq(self) -> list[str]:
        """The program's symbols (its one-node structures), each once per occurrence."""
        counts = self.ls_counts
        return [c for c, size in self.ls_sizes.items() if size == 1 for _ in range(counts[c])]


def make_example(
    example_id: str,
    utterance: str,
    program: str,
    split: str = "train",
    dialect: DialectConfig = DEFAULT_DIALECT,
) -> Example:
    """An example whose program is read in one walk
    (:func:`~demoselect.structures.read_structures`), no graph built. Its
    structures are key-sorted, as a saved index stores them, so that a built
    and a reloaded example hold the same map (tf-idf norms sum in its order)."""
    structures = read_structures(program, dialect)
    return Example(
        id=example_id,
        utterance=utterance,
        program=program,
        template=structures.template,
        ls_counts=structures.counts,
        split=split,
        ls_sizes=structures.sizes,
    )


class _TextColumn(Sequence):
    """The text column ``name`` of an index's ``arrays``: UTF-8 texts stored
    back to back, text ``r`` the bytes ``data[offsets[r]:offsets[r + 1]]`` of
    ``<name>_bytes`` and ``<name>_offsets``, decoded each time it is read.
    The offsets are read as a list the first time a text is."""

    def __init__(self, arrays: dict[str, np.ndarray], name: str):
        self._data = memoryview(arrays[f"{name}_bytes"])
        self._offset_array = arrays[f"{name}_offsets"]

    @cached_property
    def _offsets(self) -> list[int]:
        return self._offset_array.tolist()

    def __getitem__(self, r) -> str:
        offsets = self._offsets
        r = range(len(offsets) - 1)[r]
        return str(self._data[offsets[r] : offsets[r + 1]], "utf-8", _UTF8_ERRORS)

    def __len__(self) -> int:
        return len(self._offset_array) - 1


class _CodedColumn(Sequence):
    """Row ``r`` is ``names[codes[r]]``."""

    def __init__(self, names: Sequence[str], codes: np.ndarray):
        self._names = names
        self._codes = codes

    def __getitem__(self, r) -> str:
        return self._names[self._codes[r]]

    def __len__(self) -> int:
        return len(self._codes)


class ExampleTable(Sequence):
    """A corpus's examples: ``records``, the columns of :data:`RECORD_FIELDS`
    (``records[name][r]`` is field ``name`` of example ``r``), and the
    examples, each built the first time it is read and kept, so that every
    read of row ``r`` returns the same object. :meth:`of` makes the table of
    examples already built; an index's table builds example ``r`` from
    its records, which decode a row's texts when it is read, and
    ``structures(r)``, its structure counts."""

    def __init__(
        self,
        records: dict[str, Sequence],
        structures: Callable[[int], dict[str, int]] | None = None,
        examples: Iterable[Example] = (),
    ):
        self.records = records
        self._structures = structures
        self._built = dict(enumerate(examples))

    @classmethod
    def of(cls, examples: Iterable[Example]) -> "ExampleTable":
        examples = list(examples)
        records = {name: [getattr(ex, name) for ex in examples] for name in RECORD_FIELDS}
        return cls(records, examples=examples)

    def __getitem__(self, r):
        # a negative row counts from the end, and a slice is a list
        row = range(len(self))[r]
        if isinstance(row, range):
            return [self[i] for i in row]
        example = self._built.get(row)
        if example is None:
            fields = {name: column[row] for name, column in self.records.items()}
            # setdefault: threads that build one row at once keep the first
            example = self._built.setdefault(
                row, Example(**fields, ls_counts=self._structures(row))
            )
        return example

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __len__(self) -> int:
        return len(self.records["id"])


class ExamplesById(Mapping):
    """A read-only id → example view of an :class:`ExampleTable`, over an
    id → row map; an example is built only when it is read."""

    def __init__(self, examples: ExampleTable):
        self._examples = examples
        self._rows = dict(zip(examples.records["id"], range(len(examples))))

    def __getitem__(self, key: str) -> Example:
        return self._examples[self._rows[key]]

    def __contains__(self, key: object) -> bool:
        return key in self._rows

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


@dataclass
class Corpus:
    """Examples, held as an :class:`ExampleTable` whatever sequence of
    examples made the corpus."""

    examples: Sequence[Example]
    dialect: DialectConfig = DEFAULT_DIALECT
    failures: list[dict] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.examples, ExampleTable):
            self.examples = ExampleTable.of(self.examples)

    @cached_property
    def by_id(self) -> ExamplesById:
        """The examples by id, each built only when it is read."""
        return ExamplesById(self.examples)

    def __len__(self) -> int:
        return len(self.examples)

    def split(self, name: str) -> list[Example]:
        splits = self.examples.records["split"]
        return [self.examples[r] for r, split in enumerate(splits) if split == name]


def load_examples(
    path: str | Path,
    dialect: DialectConfig = DEFAULT_DIALECT,
    default_split: str = "train",
    loaded: dict[str, str] | None = None,
) -> Corpus:
    """Load and preprocess a JSONL corpus.

    A line without an ``id`` gets one from its line number, and a line
    without a ``split`` gets ``default_split``. Individual bad lines (not
    JSON, failing :func:`check_row` with :data:`CORPUS_ROW`, repeating an
    earlier line's id, or holding a program that does not parse) are
    collected, not fatal; more than 10% bad lines raises
    :class:`CorpusError` naming the file and the first bad line.
    ``loaded`` maps ids loaded from other files to their ``file:line``: a
    repeat of one raises :class:`CorpusError` naming both; new ids join it.
    """
    lines = _json_lines(path, "corpus file")
    examples: list[Example] = []
    failures: list[dict] = []
    seen: dict[str, int] = {}
    for lineno, line in lines:
        try:
            row = decode_json(line)
            if isinstance(row, dict):
                row = {"id": f"ex{lineno:05d}", "split": default_split, **row}
            check_row(row, CORPUS_ROW)
            _check_new_id(seen, row["id"], lineno)
            example = make_example(
                row["id"], row["utterance"], row["program"], row["split"], dialect
            )
        except (ValueError, ParseError) as exc:
            failures.append({"line": lineno, "error": str(exc)})
            continue
        if loaded is not None:
            if example.id in loaded:
                raise CorpusError(
                    f"example id {example.id!r} occurs twice in the indexed corpus: "
                    f"at {loaded[example.id]} and at {path}:{lineno}"
                )
            loaded[example.id] = f"{path}:{lineno}"
        examples.append(example)
    if not lines:
        logger.warning("corpus file %s is empty", path)
    if lines and len(failures) > 0.1 * len(lines):
        first = failures[0]
        raise CorpusError(
            f"{path}:{first['line']}: {first['error']} ({len(failures)} of "
            f"{len(lines)} corpus lines failed to load)",
            failures=failures,
        )
    return Corpus(examples=examples, dialect=dialect, failures=failures)


@dataclass
class PredictionBundle:
    """Beam candidates for one test example, repaired and structure-cached:
    each beam's structure set, and each structure of a beam mapped to its
    node count (``ls_sizes``)."""

    example_id: str
    beams: list[str]
    repaired: list[bool]
    beam_ls_sets: list[set[str]] = field(default_factory=list)
    ls_sizes: dict[str, int] = field(default_factory=dict)

    @property
    def ls_union(self) -> set[str]:
        return set().union(*self.beam_ls_sets)


def load_predictions(
    path: str | Path, dialect: DialectConfig = DEFAULT_DIALECT
) -> dict[str, PredictionBundle]:
    """Load beam-candidate JSONL, its rows read with :data:`BEAMS_ROW`.

    Each beam is read once, in one walk of the text that
    :func:`~demoselect.programs.repair_parentheses` settles on: itself, or
    itself with its trailing parentheses repaired. Unrepairable beams are
    dropped, possibly leaving an empty bundle (empty structure set).
    """
    bundles: dict[str, PredictionBundle] = {}
    for row in read_rows(path, BEAMS_ROW, "predictions file"):
        example_id = row["id"]
        bundle = bundles[example_id] = PredictionBundle(example_id, beams=[], repaired=[])
        for beam in row["beams"]:
            result = repair_parentheses(beam, dialect)
            walk = result.walk
            if walk is None:
                logger.warning("dropping unrepairable beam for %s in %s", example_id, path)
                continue
            counts, sizes = local_structures(walk.symbols, walk.parents, walk.children)
            bundle.beams.append(result.text)
            bundle.repaired.append(result.repaired)
            bundle.beam_ls_sets.append(set(counts))
            bundle.ls_sizes.update(sizes)
    return bundles


class StructureRows:
    """The ``ls`` rows of an index's records, read where they are stored:
    record ``r``'s structures as vocabulary codes (its slice of
    ``ls_columns``), as names, or as a name → count map."""

    def __init__(self, vocab: list[str], arrays: Mapping[str, np.ndarray]):
        self.vocab = vocab
        self.arrays = arrays

    @cached_property
    def _offsets(self) -> list[int]:
        return self.arrays["ls_offsets"].tolist()

    def _slice(self, r: int) -> slice:
        return slice(self._offsets[r], self._offsets[r + 1])

    def codes(self, r: int) -> np.ndarray:
        """Record ``r``'s structures as vocabulary codes."""
        return self.arrays["ls_columns"][self._slice(r)]

    def names(self, r: int) -> list[str]:
        """Record ``r``'s structures."""
        return list(map(self.vocab.__getitem__, self.codes(r).tolist()))

    def counts(self, r: int) -> dict[str, int]:
        return dict(zip(self.names(r), self.arrays["ls_counts"][self._slice(r)].tolist()))


class IndexBundle:
    """All retrieval state for a corpus, its examples included, served from
    what an index file holds: the dialect, the sorted structure ``vocab``, the
    utterance BM25's terms, the count ``pool``, the arrays of
    :data:`ARRAY_DTYPES` and the example ids they hold. :func:`build_indexes`
    and :meth:`load` both end in this one constructor, so a built and a loaded
    bundle of one corpus serve the same state by construction.

    Only the training split is indexed as the selection pool, a
    :class:`~demoselect.selection.Pool` in id order: the first ``pool``
    records; the rest are test examples. Queries come from test utterances or
    predicted symbols. Scores, posting lists and tf-idf rows are aligned with
    the pool's rows.
    """

    def __init__(
        self,
        dialect: DialectConfig,
        vocab: list[str],
        bm25_terms: list[str],
        pool: int,
        arrays: Mapping[str, np.ndarray],
        ids: list[str],
    ):
        self.vocab = vocab
        self.bm25_terms = bm25_terms
        self.arrays = arrays
        self.records = {
            "id": ids,
            "utterance": _TextColumn(arrays, "utterance"),
            "program": _TextColumn(arrays, "program"),
            "template": _CodedColumn(_TextColumn(arrays, "template"), arrays["template_codes"]),
            "split": ["train"] * pool + ["test"] * (len(ids) - pool),
        }
        self.ls = StructureRows(vocab, arrays)
        utterances = self.records["utterance"]
        examples = ExampleTable(self.records, self.ls.counts)
        self.corpus = Corpus(examples=examples, dialect=dialect)
        self.pool = Pool(
            ids[:pool],
            examples,
            arrays["template_codes"][:pool],
            structures=self.ls.names,
            tokens=lambda r: tokenize_utterance(utterances[r]),
        )
        self._coded: dict[str, tuple[Example, CodedStructures]] = {}

    @cached_property
    def _codes(self) -> dict[str, int]:
        """Each structure's vocabulary code."""
        return dict(zip(self.vocab, range(len(self.vocab))))

    def code(self, sizes: Mapping[str, int]) -> CodedStructures:
        """Structures, each mapped to its node count, as codes over the
        vocabulary (see :class:`~demoselect.structures.CodedStructures`)."""
        return CodedStructures.of(sizes, self._codes)

    def coded(self, example: Example) -> CodedStructures:
        """An example's structures as codes over the vocabulary, from the
        sizes it holds (see :meth:`code`), coded the first time it is asked
        for, and kept for that example object."""
        held = self._coded.get(example.id)
        if held is None or held[0] is not example:
            held = self._coded[example.id] = (example, self.code(example.ls_sizes))
        return held[1]

    @cached_property
    def symbol_mask(self) -> np.ndarray:
        """The mask of the vocabulary codes of symbols (one-node structures)."""
        return np.fromiter(map(is_symbol, self.vocab), bool, len(self.vocab))

    @cached_property
    def bm25_utterance(self) -> Bm25Index:
        """BM25 over the pool's utterance tokens: its stored impacts."""
        arrays = (self.arrays[name] for name in ("bm25_offsets", "bm25_rows", "bm25_contrib"))
        return Bm25Index.from_arrays(self.pool.ids, self.bm25_terms, *arrays)

    @cached_property
    def _ls_df(self) -> np.ndarray:
        """How many pool examples hold each structure: its column's length."""
        return np.diff(self.arrays["lsc_offsets"])

    @cached_property
    def ls_postings(self) -> ColumnPostings:
        """The pool rows holding each structure, ascending: its stored column."""
        arrays = self.arrays
        return ColumnPostings(self.pool.ids, self.vocab, arrays["lsc_offsets"], arrays["lsc_rows"])

    @cached_property
    def token_postings(self) -> RowPostings:
        """The pool rows holding each utterance token: the BM25 impact rows."""
        impacts = self.bm25_utterance.impacts
        return RowPostings(self.pool.ids, {token: rows for token, (rows, _) in impacts.items()})

    @cached_property
    def bm25_symbols(self) -> Bm25Index:
        """BM25 over the pool's symbols, each as often as the example holds it:
        the stored columns of the size-1 structures."""
        df, symbol = self._ls_df, self.symbol_mask
        present = np.flatnonzero(symbol & (df > 0))
        keep = np.repeat(symbol, df)  # the symbols' entries
        return Bm25Index.from_postings(
            self.pool.ids,
            [self.vocab[c] for c in present.tolist()],
            np.repeat(np.arange(len(present)), df[present]),
            self.arrays["lsc_rows"][keep],
            self.arrays["lsc_counts"][keep],
        )

    @cached_property
    def tfidf(self) -> SparseRows:
        """The pool's tf-idf rows, by pool row: its ``ls`` rows, weighted."""
        arrays, end = self.arrays, len(self.pool) + 1
        return SparseRows(
            self.pool.ids, arrays["ls_offsets"][:end], arrays["ls_columns"], arrays["tfidf_weights"]
        )

    def training_ls_union(self) -> set[str]:
        """The structures held by some pool example."""
        return set(compress(self.vocab, self._ls_df.tolist()))

    @cached_property
    def training_ls_mask(self) -> np.ndarray:
        """The mask of the codes of :meth:`training_ls_union`, over the codes
        of :meth:`coded`: the code of the names missing from the vocabulary
        is not among them."""
        return np.append(self._ls_df > 0, False)

    def stats(self) -> dict:
        return {
            "examples": len(self.corpus),
            "train": len(self.pool),
            "test": len(self.corpus) - len(self.pool),  # every record is train or test
            "unique_templates": len(np.unique(self.pool.template_codes)),
            "unique_ls": int(np.count_nonzero(self._ls_df)),
        }

    def save(self, path: str | Path) -> None:
        """Write the index at exactly ``path``: one UTF-8 JSON header line,
        then the arrays of :data:`ARRAY_DTYPES` (see :func:`_write_index`)."""
        header = {
            "magic": INDEX_MAGIC,
            "version": INDEX_VERSION,
            "dialect": self.corpus.dialect.to_dict(),
            "vocab": self.vocab,
            "bm25_terms": self.bm25_terms,
            "pool": len(self.pool),
        }
        write_file(path, lambda handle: _write_index(handle, header, self.arrays), "index file")

    @classmethod
    def load(cls, path: str | Path) -> "IndexBundle":
        """Map an index file read-only, checking every array's place; nothing
        in it is copied or unpickled. The arrays that :func:`_check_layout`
        reads are checked against their CRC-32 here; ``ls_counts``,
        ``lsc_rows``, ``lsc_counts``, ``bm25_contrib`` and ``tfidf_weights``
        only when first read (see :class:`_CheckedArrays`), so a damaged one
        raises its :class:`IoError` there. An older or a foreign file raises
        :class:`IndexVersionError`, any other bad file :class:`IoError`. Only
        the example ids are decoded, and no example is built: each is built,
        its texts decoded, when it is first read. Renaming a new file over it,
        as :meth:`save` does, is safe; rewriting or truncating it in place
        (``cp new old``) can kill the process with SIGBUS."""
        header, arrays = _read_index(path)
        try:
            vocab, terms, pool = header["vocab"], header["bm25_terms"], header["pool"]
            dialect = DialectConfig.from_dict(header["dialect"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise IoError(f"index file {path} has a malformed header: {exc!r}") from exc
        ids = _check_layout(path, vocab, terms, pool, arrays)
        return cls(dialect, vocab, terms, pool, arrays, ids)


def _check_version(path: str | Path, header: object) -> None:
    if not isinstance(header, dict) or header.get("magic") != INDEX_MAGIC:
        raise IndexVersionError(f"{path} is not an index file; {_REBUILD}")
    if header.get("version") != INDEX_VERSION:
        raise IndexVersionError(
            f"{path}: index version {header.get('version')} unsupported "
            f"(expected {INDEX_VERSION}); {_REBUILD}"
        )


def _aligned(size: int) -> int:
    """``size`` rounded up to a multiple of :data:`_ALIGN`."""
    return -(-size // _ALIGN) * _ALIGN


def _write_index(handle: BinaryIO, header: dict, arrays: Mapping[str, np.ndarray]) -> None:
    """Write an index file: ``header`` as one JSON line, with each array's
    place ``[offset, count, crc32]`` under ``"arrays"``; zero padding up to
    the data start; then the arrays of :data:`ARRAY_DTYPES`, each at its
    offset from the data start. Both are multiples of :data:`_ALIGN`."""
    places, offset = {}, 0
    for name in ARRAY_DTYPES:
        array = arrays[name]
        places[name] = [offset, len(array), zlib.crc32(array)]
        offset = _aligned(offset + array.nbytes)
    line = json.dumps({**header, "arrays": places}, sort_keys=True).encode("utf-8") + b"\n"
    handle.write(line.ljust(_aligned(len(line)), b"\0"))
    for name in ARRAY_DTYPES:
        handle.write(arrays[name])
        handle.write(bytes(_aligned(arrays[name].nbytes) - arrays[name].nbytes))


class _CheckedArrays(Mapping):
    """A mapped index file's arrays by name, each checked the first time it
    is read: its CRC-32, then the value rule in ``rules`` (a check and what it
    requires) if :func:`_check_layout` gave it one. A failed check raises an
    IoError naming the file and the array, at that read and every later one.
    ``lengths`` gives each array's length from its place, reading nothing.
    Threads that first read an array together (``infer --jobs``) take turns:
    the first checks it, and the others get the checked array or check again
    and raise the same error."""

    def __init__(self, path: str | Path, views: dict[str, np.ndarray], crcs: dict[str, int]):
        self.path = path
        self.lengths = {name: len(view) for name, view in views.items()}
        self.rules: dict[str, tuple[Callable[[np.ndarray], bool], str]] = {}
        self._views = views
        self._crcs = crcs
        self._checked: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def __getitem__(self, name: str) -> np.ndarray:
        array = self._checked.get(name)
        return self._check(name) if array is None else array

    def _check(self, name: str) -> np.ndarray:
        array = self._views[name]
        with self._lock:
            if name in self._checked:
                return array
            if zlib.crc32(array) != self._crcs[name]:
                raise IoError(f"cannot read index file {self.path}: array {name} fails its CRC-32")
            check, required = self.rules.get(name, (None, ""))
            if check is not None and not check(array):
                raise IoError(f"index file {self.path}: {required}")
            self._checked[name] = array
        return array

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


def _read_index(path: str | Path) -> tuple[dict, _CheckedArrays]:
    """An index file's header, with its magic and version checked, and its
    arrays (see :func:`_write_index`): the file is mapped read-only, as Apache
    Arrow maps its IPC files, and each array is a view of the mapping (which
    starts on a page, so aligned), checked against its CRC-32 when first read
    (see :class:`_CheckedArrays`). An index of
    version 1 or 2 was one JSON object, one of version 3 or 4 a ``.npz``
    archive, and one of version 5 held its records in its header."""
    try:
        with open(path, "rb") as handle:
            try:
                header = decode_json(handle.readline())
            except ValueError:
                header = None  # not an index file
            _check_version(path, header)
            start = _aligned(handle.tell())
            data = np.frombuffer(mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ), np.uint8)
    except OSError as exc:
        raise IoError(f"cannot read index file {path}: {exc}") from exc
    data = data[start:]
    places = header.get("arrays")
    views, crcs = {}, {}
    for name, dtype in ARRAY_DTYPES.items():
        place = places.get(name) if isinstance(places, dict) else None
        if not (
            isinstance(place, list)
            and len(place) == 3
            and all(type(v) is int and v >= 0 for v in place)
        ):
            raise IoError(f"index file {path} has no array {name}: its place is {place!r}")
        offset, count, crc = place
        end = offset + count * dtype.itemsize
        if end > len(data):
            raise IoError(f"cannot read index file {path}: array {name} runs past the end")
        views[name], crcs[name] = data[offset:end].view(dtype), crc
    return header, _CheckedArrays(path, views, crcs)


def _fits(offsets: np.ndarray, n_rows: int, *lengths: int) -> bool:
    """Whether ``offsets`` cut ``n_rows`` rows out of arrays of ``lengths``."""
    return (
        len(offsets) == n_rows + 1
        and offsets[0] == 0
        and all(n == offsets[-1] for n in lengths)
        and not np.any(offsets[1:] < offsets[:-1])
    )


def _indexes(values: np.ndarray, size: int) -> bool:
    """Whether every value indexes a sequence of ``size`` items."""
    return not len(values) or (values.min() >= 0 and values.max() < size)


def _decoded(data: np.ndarray, offsets: np.ndarray) -> str | None:
    """``data`` decoded, if it is UTF-8 (its lone surrogates passing, see
    ``_UTF8_ERRORS``) and ``offsets``, which fit it, cut it between
    characters: no row starts at a continuation byte (``0b10xxxxxx``)."""
    try:
        text = str(data, "utf-8", _UTF8_ERRORS)
    except UnicodeDecodeError:
        return None
    starts = offsets[:-1]
    return None if np.any(data[starts[starts < len(data)]] >> 6 == 2) else text


def _check_layout(path, vocab, terms, pool, arrays: _CheckedArrays) -> list[str]:
    """Raise IoError unless a loaded header and its arrays fit together;
    return the example ids. The arrays it reads are checked as it reads them;
    of the others it checks the lengths, and gives ``lsc_rows`` its value rule."""
    if not all(isinstance(s, list) and set(map(type, s)) <= {str} for s in (vocab, terms)):
        raise IoError(f"index file {path} has a malformed header")
    n_records = max(len(arrays["id_offsets"]) - 1, 0)
    n_templates = max(len(arrays["template_offsets"]) - 1, 0)
    for name in TEXT_FIELDS:
        offsets, data = arrays[f"{name}_offsets"], arrays[f"{name}_bytes"]
        n_rows = n_templates if name == "template" else n_records
        if not _fits(offsets, n_rows, len(data)):
            raise IoError(f"index file {path}: the {name} arrays do not fit {n_rows} texts")
        text = _decoded(data, offsets)
        if text is None:
            raise IoError(f"index file {path} has a malformed {name} column: not UTF-8 texts")
        if name == "id":
            # an id's character offset is its byte offset less the continuation
            # bytes before it: each character, lone surrogates too, has one lead byte
            continuations = np.flatnonzero(data >> 6 == 2)
            cuts = (offsets - np.searchsorted(continuations, offsets)).tolist()
            ids = [text[s:e] for s, e in zip(cuts, cuts[1:])]
    codes, held = arrays["template_codes"], f"{n_records} codes below {n_templates}"
    if not (len(codes) == n_records and _indexes(codes, n_templates)):
        raise IoError(f"index file {path}: template_codes does not hold {held}")
    if not (type(pool) is int and 0 <= pool <= n_records):
        raise IoError(f"index file {path}: pool {pool!r} is not an integer from 0 to {n_records}")
    train = ids[:pool]
    for bad, what in (
        (len(set(ids)) != len(ids), "holds an example id twice"),
        # distinct ids, so in order when sorted (one timsort pass)
        (sorted(train) != train, "does not list its training examples in id order"),
        (not all(map(lt, vocab, vocab[1:])), "has a structure vocabulary out of order"),
        (len(set(terms)) != len(terms), "lists a BM25 term twice"),
    ):
        if bad:
            raise IoError(f"index file {path} {what}")
    layout = (
        # group, its index and value arrays, its rows, the size its indexes address
        ("ls", "columns", "counts", n_records, len(vocab)),
        ("bm25", "rows", "contrib", len(terms), pool),
    )
    lengths = arrays.lengths
    for group, index, value, n_rows, size in layout:
        index, n_values = arrays[f"{group}_{index}"], lengths[f"{group}_{value}"]
        offsets = arrays[f"{group}_offsets"]
        if not (_fits(offsets, n_rows, len(index), n_values) and _indexes(index, size)):
            raise IoError(
                f"index file {path}: the {group} arrays do not fit "
                f"{n_rows} rows over {size} columns"
            )
    entries = int(arrays["ls_offsets"][pool])  # the pool's ls entries; ls fits, checked above
    if lengths["tfidf_weights"] != entries:
        raise IoError(f"index file {path}: tfidf_weights does not hold a weight per pool ls entry")
    lsc = lengths["lsc_rows"], lengths["lsc_counts"]
    if not (_fits(arrays["lsc_offsets"], len(vocab), *lsc) and lsc[0] == entries):
        raise IoError(
            f"index file {path}: the lsc arrays do not fit {len(vocab)} columns "
            f"over the pool's {entries} ls entries"
        )
    arrays.rules["lsc_rows"] = (
        lambda rows: _indexes(rows, pool), f"lsc_rows holds a row outside the pool of {pool}"
    )
    return ids


def _text_arrays(name: str, texts: Iterable[str]) -> dict[str, np.ndarray]:
    """The arrays ``<name>_offsets`` and ``<name>_bytes`` of a text column
    (see :class:`_TextColumn`) holding ``texts``."""
    encoded = [text.encode("utf-8", _UTF8_ERRORS) for text in texts]
    return {
        f"{name}_offsets": np.cumsum([0, *map(len, encoded)]),
        f"{name}_bytes": np.frombuffer(b"".join(encoded), np.uint8),
    }


def build_indexes(corpus: Corpus) -> IndexBundle:
    """Index ``corpus``, pool first: its training examples in id order, then
    the others in their order. Compute, once, the arrays that the bundle
    serves from and that a saved index stores (see :data:`ARRAY_DTYPES`); the
    pool's ``lsc`` columns are its ``ls`` entries by one stable sort, so the
    two forms agree by construction."""
    twice = [i for i, n in Counter(ex.id for ex in corpus.examples).items() if n > 1]
    if twice:
        raise CorpusError(f"example id {twice[0]!r} occurs twice in the indexed corpus")
    other = [ex.split for ex in corpus.examples if ex.split not in SPLITS]
    if other:
        raise CorpusError(f"split {other[0]!r} is not one of {', '.join(SPLITS)}")
    pool = sorted((ex for ex in corpus.examples if ex.split == "train"), key=attrgetter("id"))
    examples = pool + [ex for ex in corpus.examples if ex.split != "train"]
    records = ExampleTable.of(examples).records
    # the distinct templates, in the order the records first hold them
    template_code = {t: j for j, t in enumerate(dict.fromkeys(records["template"]))}
    texts = {
        **_text_arrays("id", records["id"]),
        **_text_arrays("utterance", records["utterance"]),
        **_text_arrays("program", records["program"]),
        **_text_arrays("template", template_code),
    }
    maps = [ex.ls_counts for ex in examples]
    counts = np.fromiter(chain.from_iterable(m.values() for m in maps), np.int32)
    if np.any(counts < 1):  # its tf-idf row would hold fewer weights than entries
        ex, name = next((ex, c) for ex in examples for c, n in ex.ls_counts.items() if n < 1)
        count = ex.ls_counts[name]
        raise CorpusError(f"example {ex.id!r} counts structure {name!r} {count!r} times, not >= 1")
    vocab = sorted(set().union(*maps))
    column = {name: j for j, name in enumerate(vocab)}
    bm25 = Bm25Index({ex.id: ex.utt_tokens for ex in pool})
    offsets = np.cumsum([0, *map(len, maps)])
    columns = np.fromiter(map(column.__getitem__, chain.from_iterable(maps)), np.int32)
    # the pool's entries (the first ones) by column, each column's rows ascending
    entries = offsets[len(pool)]
    order = np.argsort(columns[:entries], kind="stable")
    arrays = {
        **texts,
        "template_codes": np.fromiter(map(template_code.__getitem__, records["template"]), np.int32),
        "ls_offsets": offsets,
        "ls_columns": columns,
        "ls_counts": counts,
        "lsc_offsets": np.cumsum([0, *np.bincount(columns[:entries], minlength=len(vocab))]),
        "lsc_rows": np.repeat(np.arange(len(pool)), np.diff(offsets[: len(pool) + 1]))[order],
        "lsc_counts": counts[order],
        "bm25_offsets": bm25.offsets,
        "bm25_rows": bm25.rows,
        "bm25_contrib": bm25.contrib,
        "tfidf_weights": ls_tfidf_arrays({ex.id: ex.ls_counts for ex in pool})[2],
    }
    arrays = {name: np.ascontiguousarray(a, ARRAY_DTYPES[name]) for name, a in arrays.items()}
    return IndexBundle(corpus.dialect, vocab, bm25.terms, len(pool), arrays, records["id"])

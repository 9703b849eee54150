from __future__ import annotations

import gc
import json
import mmap
import os
import pickle
import random
import sys
import tempfile
import threading
import weakref
import zlib
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from demoselect import (
    Corpus,
    CorpusError,
    DialectConfig,
    Example,
    GenerationError,
    IndexVersionError,
    IoError,
    build_indexes,
    gen_fixture,
    load_examples,
    load_predictions,
    write_fixture,
)
from demoselect.cli import main
from demoselect.corpus import (
    ARRAY_DTYPES,
    INDEX_VERSION,
    RECORD_FIELDS,
    SPLITS,
    IndexBundle,
    make_example,
    write_text,
)
from demoselect.retrieval import Bm25Index, SparseRows, ls_tfidf_vectors
from demoselect.selection import dpp_select
from demoselect.structures import (
    build_structure_graph,
    count_local_structures,
    ls_size,
    read_structures,
)
from demoselect.programs import MAX_DEPTH, anonymize, parse_program

from geo_pool import POOL_ROWS
from helpers import count_parses, random_program, sparse_row, term_postings, unobserved

TABLE_ROWS = [
    {
        "id": "cal-1",
        "utterance": "Can you make a meeting with David Lax 's reports ?",
        "program": (
            "CreateEvent (with_attendee (FindReports (recipient= refer "
            "(Recipient? (name= LIKE (David Lax))))))"
        ),
    },
    {
        "id": "geo-1",
        "utterance": "What is the most populous state through which the mississippi runs ?",
        "program": 'largest_one (population_1 (state (traverse_1 (riverid ("mississippi")))))',
    },
    {
        "id": "syn-1",
        "utterance": "What is the color of square dog ?",
        "program": "query_attr[color] (filter (square, find (dog)))",
    },
]


def _write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def test_load_mixed_dataset_rows(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, TABLE_ROWS)
    dialect = DialectConfig(value_parents=frozenset({"LIKE"}))
    corpus = load_examples(path, dialect)
    assert len(corpus) == 3
    assert not corpus.failures
    for example in corpus.examples:
        assert example.ls_set
        assert example.template
    calendar = corpus.by_id["cal-1"]
    assert "string" in calendar.symbol_seq  # David Lax anonymized away
    assert "LIKE -> string" in calendar.ls_set


def test_load_assigns_ids_when_absent(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"utterance": "u", "program": "f (a)"}])
    corpus = load_examples(path)
    assert corpus.examples[0].id == "ex00001"


def test_load_empty_file_warns_not_fails(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("", encoding="utf-8")
    corpus = load_examples(path)
    assert len(corpus) == 0


def test_load_skips_and_records_bad_lines(tmp_path):
    rows = [{"utterance": f"u{i}", "program": "f (a)", "id": f"e{i}"} for i in range(20)]
    path = tmp_path / "corpus.jsonl"
    lines = [json.dumps(r) for r in rows]
    lines.insert(3, json.dumps({"utterance": "bad", "program": "f (a", "id": "broken"}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = load_examples(path)
    assert len(corpus) == 20
    assert len(corpus.failures) == 1
    assert corpus.failures[0]["line"] == 4


def test_load_fails_when_too_many_bad_lines(tmp_path):
    rows = [
        {"utterance": "ok", "program": "f (a)", "id": "good"},
        {"utterance": "bad", "program": "f ((", "id": "b1"},
        {"utterance": "bad", "program": ")(", "id": "b2"},
    ]
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, rows)
    with pytest.raises(CorpusError) as err:
        load_examples(path)
    assert len(err.value.failures) == 2


def test_load_records_malformed_rows_as_failures(tmp_path):
    good = [json.dumps({"utterance": f"u{i}", "program": "f (a)", "id": f"e{i}"}) for i in range(40)]
    bad = [
        "[1, 2]",
        json.dumps({"utterance": 5, "program": "f (a)", "id": "b1"}),
        json.dumps({"utterance": "u", "program": 7, "id": "b2"}),
        json.dumps({"utterance": "u", "program": "f (a)", "id": "b3", "split": 5}),
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(good + bad) + "\n", encoding="utf-8")
    corpus = load_examples(path)
    assert len(corpus) == 40
    assert [f["line"] for f in corpus.failures] == [41, 42, 43, 44]
    # a blank line is skipped but counted: the message names the file's line
    path.write_text("\n".join(good[:2] + ["", bad[2]]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"corpus.jsonl:4: program must be a string"):
        load_examples(path)


def test_load_missing_file_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        load_examples(tmp_path / "absent.jsonl")


def test_duplicate_ids_recorded_as_failures(tmp_path):
    rows = [
        {"utterance": "u1", "program": "f (a)", "id": "dup"},
        {"utterance": "u2", "program": "f (b)", "id": "dup"},
    ]
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, rows)
    with pytest.raises(CorpusError):
        load_examples(path)


def test_index_rejects_a_structure_count_below_one():
    # a zero count once gave example a the weight of b's structure and b an
    # empty tf-idf row, and the saved file was refused at load
    a = Example("a", "u", "f (a)", "f (a)", {"x": 0}, "train")
    b = Example("b", "v", "g (b)", "g (b)", {"y": 1}, "train")
    with pytest.raises(CorpusError, match="example 'a' counts structure 'x' 0 times"):
        build_indexes(Corpus(examples=[a, b]))


def test_load_names_a_missing_key(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"program": "f (a)"}])
    with pytest.raises(CorpusError, match=r"corpus.jsonl:1: utterance is missing \(1 of 1"):
        load_examples(path)


def test_cached_structures_match_fresh_enumeration(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, TABLE_ROWS[1:])
    corpus = load_examples(path)
    for example in corpus.examples:
        graph = build_structure_graph(
            anonymize(parse_program(example.program, corpus.dialect))
        )
        assert example.ls_counts == dict(count_local_structures(graph))


# --- predictions ---------------------------------------------------------------


def test_load_predictions_single_beam(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({"id": "t1", "beams": ["f (a)"]}), encoding="utf-8")
    bundles = load_predictions(path)
    assert len(bundles["t1"].beams) == 1
    assert "f -> a" in bundles["t1"].ls_union
    assert bundles["t1"].repaired == [False]


def test_load_predictions_repairs_trailing_paren(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({"id": "t1", "beams": ["f (g (a)"]}), encoding="utf-8")
    bundles = load_predictions(path)
    assert bundles["t1"].beams == ["f (g (a))"]
    assert bundles["t1"].repaired == [True]
    assert "g -> a" in bundles["t1"].ls_union


def test_load_predictions_drops_unrepairable_beams(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(
        json.dumps({"id": "t1", "beams": [")(", "f )( g"]}), encoding="utf-8"
    )
    bundles = load_predictions(path)
    assert bundles["t1"].beams == []
    assert bundles["t1"].ls_union == set()


def test_load_predictions_drops_a_too_deep_beam(tmp_path, caplog):
    path = tmp_path / "preds.jsonl"
    deep = "f (" * MAX_DEPTH + "a" + ")" * MAX_DEPTH
    path.write_text(json.dumps({"id": "t1", "beams": [deep, "f (a)"]}), encoding="utf-8")
    with caplog.at_level("WARNING"):
        bundles = load_predictions(path)
    assert bundles["t1"].beams == ["f (a)"]
    assert f"dropping unrepairable beam for t1 in {path}" in caplog.text


def test_load_predictions_needs_beams(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({"id": "t1", "beams": []}) + "\n" + json.dumps({"id": "t2"}))
    with pytest.raises(IoError, match=r"preds.jsonl:2: beams is missing"):
        load_predictions(path)
    path.write_text(json.dumps({"id": "t1", "beams": []}))
    assert load_predictions(path)["t1"].beam_ls_sets == []


def test_load_predictions_union_over_beams(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(
        json.dumps({"id": "t1", "beams": ["f (g)", "f (h)"]}), encoding="utf-8"
    )
    bundles = load_predictions(path)
    assert {"f -> g", "f -> h"} <= bundles["t1"].ls_union


def test_load_predictions_parses_a_well_formed_beam_once(tmp_path, monkeypatch):
    import demoselect.programs
    import demoselect.structures

    parsed = []

    def counted(function):
        def wrapper(text, *args, **kwargs):
            parsed.append(text)
            return function(text, *args, **kwargs)

        return wrapper

    for module in (demoselect.programs, demoselect.structures):
        monkeypatch.setattr(module, "parse_program", counted(module.parse_program))
    path = tmp_path / "preds.jsonl"
    beams = ["f (g)", "f (g (a)", "f (h))", ")("]
    path.write_text(json.dumps({"id": "t1", "beams": beams}), encoding="utf-8")
    bundle = load_predictions(path)["t1"]
    assert parsed.count("f (g)") == 1
    assert bundle.beams == ["f (g)", "f (g (a))", "f (h)"]
    assert bundle.repaired == [False, True, True]
    assert bundle.beam_ls_sets == [
        set(read_structures(text).counts) for text in ("f (g)", "f (g (a))", "f (h)")
    ]


def test_make_example_and_load_predictions_build_no_tree(tmp_path, monkeypatch):
    # a program is read in one walk: no rendered text, anonymized copy or
    # StructureGraph is built for an example or a beam
    program = TABLE_ROWS[0]["program"]
    dialect = DialectConfig(value_parents=frozenset({"LIKE"}))
    expected = make_example("cal-1", "u", program, dialect=dialect)
    graph = build_structure_graph(anonymize(parse_program(program, dialect)))

    def forbidden(*args, **kwargs):
        raise AssertionError("a program was rendered, anonymized or graphed")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "demoselect":
            for attribute in ("render", "anonymize", "StructureGraph"):
                if hasattr(module, attribute):
                    monkeypatch.setattr(module, attribute, forbidden)
    example = make_example("cal-1", "u", program, dialect=dialect)
    assert example == expected
    assert example.ls_counts == dict(sorted(count_local_structures(graph).items()))
    assert example.ls_sizes == {name: ls_size(name) for name in example.ls_counts}
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({"id": "t1", "beams": [program, program + ")"]}), encoding="utf-8")
    bundle = load_predictions(path, dialect)["t1"]
    assert bundle.beam_ls_sets == [set(example.ls_counts)] * 2
    assert bundle.ls_sizes == example.ls_sizes


def test_load_predictions_parses_a_repaired_beam_once(tmp_path, monkeypatch):
    parsed = count_parses(monkeypatch)
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({"id": "t1", "beams": ["f (g (a)", "f (h))"]}), encoding="utf-8")
    bundle = load_predictions(path)["t1"]
    assert bundle.beams == ["f (g (a))", "f (h)"]
    assert parsed == {"f (g (a))": 1, "f (h)": 1}


# --- indexes ---------------------------------------------------------------------


def _geo_corpus(tmp_path):
    rows = [
        {"id": i, "utterance": u, "program": p, "split": "train"}
        for i, u, p in POOL_ROWS
    ]
    path = tmp_path / "geo.jsonl"
    _write_jsonl(path, rows)
    return load_examples(path)


def _posting_ids(bundle, postings):
    """Posting lists of pool rows as the pool's ids at those rows; every
    list's rows ascend, so its ids are in id order."""
    assert postings.ids is bundle.pool.ids
    out = {}
    for term, rows in postings.items():
        assert rows.dtype.kind == "i" and np.all(np.diff(rows) > 0)
        out[term] = [bundle.pool.ids[r] for r in rows.tolist()]
    return out


def test_posting_lists_match_hand_enumeration(tmp_path):
    bundle = build_indexes(_geo_corpus(tmp_path))
    ls_postings = _posting_ids(bundle, bundle.ls_postings)
    token_postings = _posting_ids(bundle, bundle.token_postings)
    # riverid appears in g1, g2, g3 and g6; fewest only in g7.
    assert ls_postings["riverid"] == ["g1", "g2", "g3", "g6"]
    assert ls_postings["fewest"] == ["g7"]
    assert token_postings["texas"] == ["g8"]
    assert token_postings["mississippi"] == ["g1", "g6"]


def test_posting_lists_equal_linear_scan(tmp_path):
    bundle = build_indexes(_geo_corpus(tmp_path))
    for canonical, ids in _posting_ids(bundle, bundle.ls_postings).items():
        scanned = sorted(
            ex.id for ex in bundle.pool.values() if canonical in ex.ls_set
        )
        assert ids == scanned
    for token, ids in _posting_ids(bundle, bundle.token_postings).items():
        scanned = sorted(
            ex.id for ex in bundle.pool.values() if token in ex.utt_tokens
        )
        assert ids == scanned
    union = set().union(*(ex.ls_set for ex in bundle.pool.values()))
    assert bundle.training_ls_union() == union


def test_index_round_trip_preserves_rankings(tmp_path):
    bundle = build_indexes(_geo_corpus(tmp_path))
    path = tmp_path / "index.json"
    bundle.save(path)
    reloaded = IndexBundle.load(path)
    for query in (["longest", "river"], ["states", "mississippi"], []):
        assert reloaded.bm25_utterance.rank(query) == bundle.bm25_utterance.rank(query)
    for query in (["riverid", "string"], ["longest", "river", "all"], ["fewest"], []):
        assert reloaded.bm25_symbols.rank(query) == bundle.bm25_symbols.rank(query)
    assert _posting_ids(reloaded, reloaded.ls_postings) == _posting_ids(
        bundle, bundle.ls_postings
    )
    _assert_rows_equal(reloaded.tfidf, bundle.tfidf)


def _assert_rows_equal(rows, expected):
    assert rows.ids == expected.ids
    for ex_id in expected.ids:
        columns, weights = sparse_row(expected, ex_id)
        assert np.array_equal(sparse_row(rows, ex_id)[0], columns)
        assert np.array_equal(sparse_row(rows, ex_id)[1], weights)


def test_built_and_reloaded_tfidf_rows_are_equal(tmp_path):
    # A built example keeps its structure counts in the key-sorted order the
    # index stores, so the tf-idf norms sum in one order either way.
    bundle = build_indexes(gen_fixture(n_train=60, n_test=10, seed=5).corpus)
    path = tmp_path / "index.json"
    bundle.save(path)
    _assert_rows_equal(IndexBundle.load(path).tfidf, bundle.tfidf)


def _aligned(size):
    return -(-size // 64) * 64


def _index_parts(path):
    """An index file's JSON header, its arrays, and the offset of its data."""
    data = path.read_bytes()
    line = data[: data.index(b"\n") + 1]
    header, start = json.loads(line), _aligned(len(line))
    arrays = {
        name: np.frombuffer(data, ARRAY_DTYPES[name], count, start + offset).copy()
        for name, (offset, count, _) in header["arrays"].items()
    }
    return header, arrays, start


def _write_index(path, header, arrays, **places):
    """Write an index of ``header`` and ``arrays``; ``places`` maps an array
    to the place to list for it instead of the one it is written at."""
    written, data = {}, b""
    for name, array in arrays.items():
        written[name] = [len(data), len(array), zlib.crc32(array.tobytes())]
        data += array.tobytes().ljust(_aligned(array.nbytes), b"\0")
    line = json.dumps({**header, "arrays": {**written, **places}}).encode("utf-8") + b"\n"
    path.write_bytes(line.ljust(_aligned(len(line)), b"\0") + data)


def test_index_file_is_a_header_line_then_aligned_arrays(tmp_path):
    bundle = build_indexes(gen_fixture(n_train=60, n_test=10, seed=5).corpus)
    path, again = tmp_path / "index.json", tmp_path / "again.json"
    bundle.save(path)
    header, arrays, start = _index_parts(path)
    data = path.read_bytes()
    assert start % 64 == 0 and not data[data.index(b"\n") + 1 : start].strip(b"\0")
    assert sorted(header["arrays"]) == sorted(ARRAY_DTYPES)
    for name, (offset, count, crc) in header["arrays"].items():
        assert offset % 64 == 0
        assert np.array_equal(arrays[name], bundle.arrays[name]) and count == len(arrays[name])
        assert zlib.crc32(data[start + offset :][: arrays[name].nbytes]) == crc
    IndexBundle.load(path).save(again)
    assert again.read_bytes() == data


@pytest.mark.parametrize("split", ["train", "all"], ids=["train-only", "with-test-split"])
def test_index_stores_no_array_twice(tmp_path, split):
    corpus = gen_fixture(n_train=60, n_test=10, seed=5).corpus
    if split == "train":
        corpus = Corpus(examples=corpus.split("train"))
    path = tmp_path / "index.json"
    build_indexes(corpus).save(path)
    _, arrays, _ = _index_parts(path)
    first = {}
    for name, array in arrays.items():
        key = (array.dtype.str, len(array), array.tobytes())
        assert key not in first, f"{name} holds the bytes of {first.get(key)}"
        first[key] = name


@pytest.mark.parametrize("seed", [2, 9])
def test_dpp_over_the_index_rows_equals_dpp_over_pool_vocabulary_rows(tmp_path, seed):
    # held-out-ls test examples hold structures that no pool example holds,
    # so the index's vocabulary numbers the pool's structures differently
    # from the pool's own vocabulary
    corpus = gen_fixture(n_train=120, n_test=20, split="held-out-ls", seed=seed).corpus
    built = build_indexes(corpus)
    path = tmp_path / "index.json"
    built.save(path)
    pool = built.pool
    rows = ls_tfidf_vectors({i: ex.ls_counts for i, ex in pool.items()})
    lengths = [len(columns) for columns, _ in rows.values()]
    reference = SparseRows(
        pool.ids,
        np.cumsum([0, *lengths]),
        np.concatenate([columns for columns, _ in rows.values()]),
        np.concatenate([weights for _, weights in rows.values()]),
    )
    assert len(built.vocab) > len(built.training_ls_union())
    assert not np.array_equal(built.tfidf.columns[: len(reference.columns)], reference.columns)
    for bundle in (built, IndexBundle.load(path)):
        for ex in bundle.corpus.split("test"):
            scores = bundle.bm25_utterance.scores(ex.utt_tokens)
            for k in (8, 24):
                got = dpp_select(scores, bundle.tfidf, k, 60)
                expected = dpp_select(scores, reference, k, 60)
                assert got.items == expected.items and got.underfilled == expected.underfilled
                assert np.array(got.gains).tobytes() == np.array(expected.gains).tobytes()


def test_index_version_mismatch_rejected(tmp_path):
    bundle = build_indexes(_geo_corpus(tmp_path))
    path = tmp_path / "index.json"
    bundle.save(path)
    header, arrays, _ = _index_parts(path)
    assert header["version"] == INDEX_VERSION == 10
    assert "examples" not in header
    for version in (1, 2, 3, 4, 5, 6, 7, 8, 9, 99):
        _write_index(path, {**header, "version": version}, arrays)
        with pytest.raises(IndexVersionError, match="demoselect index"):
            IndexBundle.load(path)
    del arrays["template_bytes"]
    _write_index(path, header, arrays)
    with pytest.raises(IoError, match="index.json"):
        IndexBundle.load(path)
    _write_index(path, {**header, "magic": "other"}, arrays)
    with pytest.raises(IndexVersionError):
        IndexBundle.load(path)


def _savez(path, **arrays):
    """Write a ``.npz`` archive, as index versions 3 and 4 were."""
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _version_4_npz(path):
    """The index as a version-4 ``.npz``: a JSON ``header`` array beside the
    arrays."""
    header, arrays, _ = _index_parts(path)
    del header["arrays"]
    text = json.dumps({**header, "version": 4}).encode("utf-8")
    _savez(path, header=np.frombuffer(text, np.uint8), **arrays)


def _flip_a_byte_of(name):
    """A damage that flips the last byte of array ``name``."""

    def damage(path):
        header, arrays, start = _index_parts(path)
        data = bytearray(path.read_bytes())
        data[start + header["arrays"][name][0] + arrays[name].nbytes - 1] ^= 0xFF
        path.write_bytes(bytes(data))

    return damage


def _not_json(path):
    """Replace the header line's opening brace."""
    path.write_bytes(b"[" + path.read_bytes()[1:])


def _too_deep(path):
    """Replace the header line by one nested past the parser's recursion limit."""
    data = path.read_bytes()
    path.write_bytes(b"[" * 100_000 + data[data.index(b"\n"):])


def _place(name, change):
    """A case that lists ``change(place)`` as the place of array ``name``."""

    def mutate(path):
        header, arrays, _ = _index_parts(path)
        _write_index(path, header, arrays, **{name: change(header["arrays"][name])})

    return mutate


def _rewrite(change):
    """A case that rewrites the index through ``change(header, arrays)``."""

    def mutate(path):
        header, arrays, _ = _index_parts(path)
        change(header, arrays)
        _write_index(path, header, arrays)

    return mutate


def _set(name, value):
    """A change that replaces array ``name`` with ``value(array)``, of its dtype."""

    def change(header, arrays):
        arrays[name] = np.asarray(value(arrays[name]), ARRAY_DTYPES[name])

    return change


def _bump_last(offsets):
    return np.concatenate((offsets[:-1], offsets[-1:] + 1))


def _texts(arrays, name):
    """The texts of the text column ``name``."""
    data, cuts = arrays[f"{name}_bytes"].tobytes(), arrays[f"{name}_offsets"].tolist()
    return [data[s:e].decode("utf-8") for s, e in zip(cuts, cuts[1:])]


def _set_texts(arrays, name, texts):
    encoded = [text.encode("utf-8") for text in texts]
    arrays[f"{name}_offsets"] = np.cumsum([0, *map(len, encoded)], dtype=np.int64)
    arrays[f"{name}_bytes"] = np.frombuffer(b"".join(encoded), np.uint8)


def _in_texts(name, change):
    """A change that applies ``change`` to the list of texts of column ``name``."""

    def edit(header, arrays):
        texts = _texts(arrays, name)
        change(texts)
        _set_texts(arrays, name, texts)

    return edit


def _in_header(key, change):
    """A change that applies ``change`` to the header list at ``key``."""
    return lambda header, arrays: change(header[key])


def _drop_one_record(header, arrays):
    for name in ("id", "utterance", "program"):
        _in_texts(name, list.pop)(header, arrays)
    arrays["template_codes"] = arrays["template_codes"][:-1]


def _cut_inside_a_character(header, arrays):
    """Start utterance 1 with an ``é`` and cut it after the character's first byte."""
    texts = _texts(arrays, "utterance")
    texts[1] = "é" + texts[1]
    _set_texts(arrays, "utterance", texts)
    arrays["utterance_offsets"][1] += 1


def _grow_the_last_column(header, arrays):
    for name, value in (("lsc_rows", 0), ("lsc_counts", 1)):
        arrays[name] = np.append(arrays[name], np.asarray(value, ARRAY_DTYPES[name]))
    arrays["lsc_offsets"] = _bump_last(arrays["lsc_offsets"])


def _repeat_first(values):
    values[1] = values[0]


def _swap(i, j):
    """A change that swaps entries ``i`` and ``j`` of a list or an array."""

    def change(values):
        values[i], values[j] = values[j], values[i]

    return change


# How a saved index gets damaged, and the error (class, message pattern)
# that loading it must raise; every message names the file.
BAD_INDEX_CASES = {
    "version-2-json": (
        lambda path: path.write_text(
            json.dumps({"magic": "demoselect-index", "version": 2, "examples": []})
        ),
        IndexVersionError,
        rf"index version 2 unsupported \(expected {INDEX_VERSION}\); rebuild it with `demoselect index`",
    ),
    "text": (
        lambda path: path.write_text("id,utterance\n1,hello\n"),
        IndexVersionError,
        "is not an index file; rebuild it",
    ),
    "garbage": (
        lambda path: path.write_bytes(bytes(range(256))),
        IndexVersionError,
        "not an index",
    ),
    "empty": (lambda path: path.write_bytes(b""), IndexVersionError, "not an index"),
    "foreign-npz": (
        lambda path: _savez(path, weights=np.zeros(3)),
        IndexVersionError,
        "not an index",
    ),
    "header-not-json": (
        lambda path: _savez(path, header=np.frombuffer(b"{no", np.uint8)),
        IndexVersionError,
        "not an index",
    ),
    "truncated": (
        lambda path: path.write_bytes(path.read_bytes()[: path.stat().st_size // 2]),
        IoError,
        "cannot read index file",
    ),
    "missing-array": (
        _rewrite(lambda header, arrays: arrays.pop("tfidf_weights")),
        IoError,
        "has no array tfidf_weights",
    ),
    "header-line-not-json": (_not_json, IndexVersionError, "not an index"),
    "header-line-nested-too-deep": (_too_deep, IndexVersionError, "is not an index file"),
    "header-holds-nan": (
        # json.dumps writes NaN, which RFC 8259 §6 has no number for
        _rewrite(lambda header, _: header.update(pool=float("nan"))),
        IndexVersionError,
        "is not an index file",
    ),
    "version-4-npz": (
        _version_4_npz,
        IndexVersionError,
        "is not an index file; rebuild it with `demoselect index`",
    ),
    "array-place-not-ints": (
        _place("ls_counts", lambda place: [place[0], True, place[2]]),
        IoError,
        r"has no array ls_counts: its place is \[\d+, True, \d+\]",
    ),
    "array-offset-negative": (
        _place("bm25_rows", lambda place: [-64, *place[1:]]),
        IoError,
        r"has no array bm25_rows: its place is \[-64, ",
    ),
    "array-past-the-end": (
        _place("tfidf_weights", lambda place: [place[0], place[1] + 1000, place[2]]),
        IoError,
        "cannot read index file .*: array tfidf_weights runs past the end",
    ),
    "array-crc-mismatch": (
        _place("bm25_contrib", lambda place: [*place[:2], place[2] ^ 1]),
        IoError,
        "cannot read index file .*: array bm25_contrib fails its CRC-32",
    ),
    "offsets-past-the-entries": (
        _rewrite(_set("ls_offsets", _bump_last)),
        IoError,
        "the ls arrays do not fit 70 rows over",
    ),
    "offsets-decreasing": (
        _rewrite(_set("ls_offsets", lambda a: np.concatenate((a[:1], a[2:3], a[1:2], a[3:])))),
        IoError,
        "the ls arrays do not fit 70 rows",
    ),
    "offsets-cut-short": (
        # too short to hold the pool's end, which the tf-idf check reads
        _rewrite(_set("ls_offsets", lambda a: a[:5])),
        IoError,
        "the ls arrays do not fit 70 rows",
    ),
    "lsc-offsets-not-one-per-structure": (
        _rewrite(_set("lsc_offsets", lambda a: a[:-1])),
        IoError,
        r"the lsc arrays do not fit \d+ columns over the pool's \d+ ls entries",
    ),
    "lsc-offsets-past-the-pool-entries": (
        # the lsc arrays fit each other, with one entry more than the pool holds
        _rewrite(_grow_the_last_column),
        IoError,
        r"the lsc arrays do not fit \d+ columns over the pool's \d+ ls entries",
    ),
    "lsc-row-outside-the-pool": (
        _rewrite(_set("lsc_rows", lambda a: np.where(a == a.max(), 60, a))),
        IoError,
        "lsc_rows holds a row outside the pool of 60",
    ),
    "tfidf-weights-not-one-per-pool-entry": (
        _rewrite(_set("tfidf_weights", lambda a: a[:-1])),
        IoError,
        "tfidf_weights does not hold a weight per pool ls entry",
    ),
    "bm25-row-outside-the-pool": (
        _rewrite(_set("bm25_rows", lambda a: np.where(a == a.max(), 60, a))),
        IoError,
        "the bm25 arrays do not fit .* over 60 columns",
    ),
    "column-outside-the-vocabulary": (
        _rewrite(_set("ls_columns", lambda a: -a)),
        IoError,
        "the ls arrays do not fit",
    ),
    "record-count-not-offsets": (
        _rewrite(_drop_one_record),
        IoError,
        "the ls arrays do not fit 69 rows over",
    ),
    "id-twice": (_rewrite(_in_texts("id", _repeat_first)), IoError, "holds an example id twice"),
    "pool-missing": (
        _rewrite(lambda header, _: header.pop("pool")),
        IoError,
        "has a malformed header: KeyError\\('pool'\\)",
    ),
    "pool-true": (
        _rewrite(lambda header, _: header.update(pool=True)),
        IoError,
        "pool True is not an integer from 0 to 70",
    ),
    "pool-not-an-integer": (
        _rewrite(lambda header, _: header.update(pool=1.5)),
        IoError,
        "pool 1.5 is not an integer from 0 to 70",
    ),
    "pool-negative": (
        _rewrite(lambda header, _: header.update(pool=-1)),
        IoError,
        "pool -1 is not an integer from 0 to 70",
    ),
    "pool-past-the-records": (
        _rewrite(lambda header, _: header.update(pool=71)),
        IoError,
        "pool 71 is not an integer from 0 to 70",
    ),
    "pool-ids-out-of-order": (
        _rewrite(_in_texts("id", _swap(0, 1))),
        IoError,
        "does not list its training examples in id order",
    ),
    "vocab-out-of-order": (
        _rewrite(_in_header("vocab", _swap(0, 1))),
        IoError,
        "has a structure vocabulary out of order",
    ),
    "bm25-term-twice": (
        _rewrite(_in_header("bm25_terms", _repeat_first)),
        IoError,
        "lists a BM25 term twice",
    ),
    "member-crc-mismatch": (
        _flip_a_byte_of("ls_counts"),
        IoError,
        "cannot read index file .*: array ls_counts fails its CRC-32",
    ),
    "utterance-not-a-string": (
        # 0xFF is no byte of any UTF-8 text
        _rewrite(_set("utterance_bytes", lambda a: [0xFF, *a[1:]])),
        IoError,
        "has a malformed utterance column: not UTF-8",
    ),
    "text-cut-inside-a-character": (
        _rewrite(_cut_inside_a_character),
        IoError,
        "has a malformed utterance column: not UTF-8",
    ),
    "text-offsets-past-the-bytes": (
        _rewrite(_set("program_offsets", _bump_last)),
        IoError,
        "the program arrays do not fit 70 texts",
    ),
    "template-offsets-decreasing": (
        _rewrite(_set("template_offsets", lambda a: np.concatenate((a[:1], a[2:3], a[1:2], a[3:])))),
        IoError,
        "the template arrays do not fit",
    ),
    "template-code-out-of-range": (
        _rewrite(_set("template_codes", lambda a: a + 1)),
        IoError,
        "template_codes does not hold 70 codes below",
    ),
    "dialect-parents-a-string": (
        _rewrite(lambda header, _: header["dialect"].update(value_parents="LIKE")),
        IoError,
        "malformed header",
    ),
    "dialect-not-strings": (
        _rewrite(lambda header, _: header.update(dialect={"name": 7, "value_parents": [1, 2]})),
        IoError,
        "malformed header",
    ),
}


# The cases whose damage is found when the damaged array is first read, not
# at load: the array, and the select flags of a command that reads it.
FIRST_READ_CASES = {
    "array-crc-mismatch": ("bm25_contrib", ["--strategy", "top-k"]),
    "member-crc-mismatch": ("ls_counts", ["--strategy", "top-k"]),
    "lsc-row-outside-the-pool": ("lsc_rows", ["--strategy", "cover-ls", "--oracle"]),
}


@pytest.mark.parametrize("case", sorted(BAD_INDEX_CASES))
def test_bad_index_file_exits_2_naming_it(tmp_path, capsys, monkeypatch, case):
    damage, error, message = BAD_INDEX_CASES[case]
    path = tmp_path / "index.json"
    build_indexes(gen_fixture(n_train=60, n_test=10, seed=5).corpus).save(path)
    damage(path)

    def forbidden(*args, **kwargs):
        raise AssertionError("an index file was unpickled")

    monkeypatch.setattr(pickle, "load", forbidden)
    monkeypatch.setattr(pickle, "loads", forbidden)
    name, flags = FIRST_READ_CASES.get(case, (None, ["--strategy", "top-k"]))
    with pytest.raises(error, match=message) as raised:
        bundle = IndexBundle.load(path)
        assert name is not None, "loading did not find the damage"
        bundle.arrays[name]
    assert str(path) in str(raised.value)
    argv = ["select", *flags, "--index", str(path), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert f"error: {raised.value}" in capsys.readouterr().err


# The select flags of a command that reads each array loading does not check.
READ_AFTER_LOAD = {
    "ls_counts": ["--strategy", "top-k"],
    "bm25_contrib": ["--strategy", "top-k"],
    "tfidf_weights": ["--strategy", "dpp"],
    "lsc_rows": ["--strategy", "cover-ls", "--oracle"],
    "lsc_counts": ["--strategy", "top-k", "--retriever", "bm25-symbols", "--oracle"],
}


@pytest.mark.parametrize("name", list(ARRAY_DTYPES))
def test_a_damaged_array_exits_2_naming_the_file_and_the_array(tmp_path, capsys, name):
    path = tmp_path / "index.json"
    build_indexes(gen_fixture(n_train=60, n_test=10, seed=5).corpus).save(path)
    _flip_a_byte_of(name)(path)
    if name in READ_AFTER_LOAD:
        IndexBundle.load(path)
    else:
        with pytest.raises(IoError, match=f"array {name} fails its CRC-32"):
            IndexBundle.load(path)
    flags = READ_AFTER_LOAD.get(name, ["--strategy", "top-k"])
    assert main(["select", *flags, "--index", str(path), "--out", str(tmp_path / "o")]) == 2
    error = f"error: cannot read index file {path}: array {name} fails its CRC-32"
    assert error in capsys.readouterr().err


def test_a_dropped_bundle_is_freed_without_the_cycle_collector(tmp_path):
    # no reference cycle may keep a bundle, and the file it maps, alive after
    # its last user drops it: a process that runs command after command would
    # grow by a mapped index per command until the collector ran
    corpus = gen_fixture(n_train=60, n_test=10, seed=5).corpus
    path = tmp_path / "index.json"
    build_indexes(corpus).save(path)
    gc.disable()
    try:
        for make in (lambda: IndexBundle.load(path), lambda: build_indexes(corpus)):
            bundle = make()
            pool = bundle.pool
            pool.structures(0), pool.tokens(0), pool[pool.ids[1]], bundle.ls.codes(2)
            bundle.coded(bundle.corpus.examples[-1]), bundle.training_ls_mask
            freed = weakref.ref(bundle)
            del bundle, pool
            assert freed() is None
    finally:
        gc.enable()


def test_threads_that_first_read_an_array_together_check_it_alike(tmp_path):
    # as infer --jobs threads may, more threads than cores and switching often:
    # every read returns the checked array, or every read raises the damaged
    # array's error
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    build_indexes(gen_fixture(n_train=60, n_test=10, seed=5).corpus).save(good)
    bad.write_bytes(good.read_bytes())
    _flip_a_byte_of("tfidf_weights")(bad)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for path in (good, bad):
            arrays = IndexBundle.load(path).arrays
            barrier = threading.Barrier(8)

            def read():
                barrier.wait(timeout=10)
                try:
                    return arrays["tfidf_weights"]
                except IoError as exc:
                    return str(exc)

            with ThreadPoolExecutor(8) as threads:
                futures = [threads.submit(read) for _ in range(8)]
                got = [future.result(timeout=10) for future in futures]
            if path == good:
                assert all(array is arrays["tfidf_weights"] for array in got)
            else:
                error = f"cannot read index file {bad}: array tfidf_weights fails its CRC-32"
                assert got == [error] * 8
    finally:
        sys.setswitchinterval(interval)


def test_symbol_mask_marks_the_one_node_structures(tmp_path):
    bundle = build_indexes(_geo_corpus(tmp_path))
    assert bundle.symbol_mask.tolist() == [ls_size(name) == 1 for name in bundle.vocab]


def test_index_load_parses_no_program(tmp_path, monkeypatch):
    bundle = build_indexes(_geo_corpus(tmp_path))
    path = tmp_path / "index.json"
    bundle.save(path)

    def forbidden(*args, **kwargs):
        raise AssertionError("IndexBundle.load must not parse programs")

    monkeypatch.setattr("demoselect.corpus.read_structures", forbidden)
    monkeypatch.setattr("demoselect.corpus.local_structures", forbidden)
    reloaded = IndexBundle.load(path)
    for built, loaded in zip(bundle.corpus.examples, reloaded.corpus.examples, strict=True):
        assert loaded.template == built.template
        assert loaded.ls_counts == built.ls_counts
        assert loaded.utt_tokens == built.utt_tokens
        assert Counter(loaded.symbol_seq) == Counter(built.symbol_seq)


def _assert_same_index(loaded, built, queries):
    """A loaded bundle serves exactly what the built one serves, from
    read-only, C-contiguous arrays that each start at a multiple of 64 bytes."""
    assert list(loaded.arrays) == list(built.arrays) == list(ARRAY_DTYPES)
    for name, array in loaded.arrays.items():
        assert array.dtype == ARRAY_DTYPES[name] and np.array_equal(array, built.arrays[name])
        assert array.flags.c_contiguous and not array.flags.writeable
        assert array.ctypes.data % 64 == 0
    for ex, ref in zip(loaded.corpus.examples, built.corpus.examples, strict=True):
        assert [getattr(ex, f) for f in RECORD_FIELDS] == [getattr(ref, f) for f in RECORD_FIELDS]
        assert list(ex.ls_counts.items()) == list(ref.ls_counts.items())
    assert loaded.bm25_utterance.doc_ids == built.bm25_utterance.doc_ids
    for query in queries:
        scores = loaded.bm25_utterance.scores(query)
        expected = built.bm25_utterance.scores(query)
        assert list(scores) == list(expected)
        # bit for bit, not merely equal
        bits = np.array(list(scores.values())).tobytes()
        assert bits == np.array(list(expected.values())).tobytes()
    for name in ("ls_postings", "token_postings"):
        postings = _posting_ids(loaded, getattr(loaded, name))
        assert postings == _posting_ids(built, getattr(built, name))
    assert loaded.training_ls_union() == built.training_ls_union()
    assert loaded.stats() == built.stats()
    _assert_rows_equal(loaded.tfidf, built.tfidf)


def _assert_index_matches_its_maps(bundle):
    """The array-derived state equals what the dict-based functions compute
    from the examples' own structure counts and tokens."""
    pool = bundle.pool
    assert _posting_ids(bundle, bundle.ls_postings) == term_postings(
        {i: ex.ls_counts for i, ex in pool.items()}
    )
    assert _posting_ids(bundle, bundle.token_postings) == term_postings(
        {i: ex.utt_tokens for i, ex in pool.items()}
    )
    union = set().union(*(ex.ls_counts for ex in pool.values()))
    assert bundle.training_ls_union() == union
    # the stored columns are the pool's ls entries grouped by structure, each
    # structure's rows ascending, with their counts
    column = {name: c for c, name in enumerate(bundle.vocab)}
    by_column = [[] for _ in bundle.vocab]
    for row, ex in enumerate(pool.values()):
        for name, count in ex.ls_counts.items():
            by_column[column[name]].append((row, count))
    arrays = bundle.arrays
    assert arrays["lsc_offsets"].tolist() == list(accumulate(map(len, by_column), initial=0))
    stored = zip(arrays["lsc_rows"].tolist(), arrays["lsc_counts"].tolist())
    assert list(stored) == [entry for entries in by_column for entry in entries]
    # the tf-idf rows, over the whole structure vocabulary, name the same
    # structures with the same weights bit for bit as the rows over the
    # pool's own vocabulary
    expected = ls_tfidf_vectors({i: ex.ls_counts for i, ex in pool.items()})
    pool_vocab = sorted(union)
    assert bundle.tfidf.ids == list(expected)
    for ex_id, (columns, weights) in expected.items():
        got_columns, got_weights = sparse_row(bundle.tfidf, ex_id)
        names = [bundle.vocab[c] for c in got_columns.tolist()]
        assert names == [pool_vocab[c] for c in columns.tolist()]
        assert got_weights.tobytes() == weights.tobytes()
    # the symbol BM25 built from the structure columns scores bit for bit as
    # the BM25 over every example's symbol sequence
    symbols = Bm25Index({i: ex.symbol_seq for i, ex in pool.items()})
    assert bundle.bm25_symbols.doc_ids == symbols.doc_ids
    names = sorted({c for ex in pool.values() for c in ex.symbol_seq})
    for query in ([], names, [*names[:3], *names[:2], "zz-unknown"]):
        scores = bundle.bm25_symbols.scores(query).array
        assert scores.tobytes() == symbols.scores(query).array.tobytes()
    for name in [*names, "zz-unknown"]:
        assert bundle.bm25_symbols.idf(name) == symbols.idf(name)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    split=st.sampled_from(["held-out-ls", "template", "iid"]),
    seed=st.integers(0, 10_000),
    n_train=st.integers(8, 60),
    n_test=st.integers(1, 12),
    data=st.data(),
)
def test_saved_index_round_trips(split, seed, n_train, n_test, data):
    try:
        corpus = gen_fixture(n_train=n_train, n_test=n_test, split=split, seed=seed).corpus
    except GenerationError:
        reject()
    built = build_indexes(corpus)
    _assert_index_matches_its_maps(built)
    words = sorted({t for ex in corpus.examples for t in ex.utt_tokens}) + ["unseen"]
    queries = data.draw(st.lists(st.lists(st.sampled_from(words), max_size=8), max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp, "index.json"), Path(tmp, "again.json")
        built.save(path)
        loaded = IndexBundle.load(path)
        _assert_same_index(loaded, built, [[], *queries])
        _assert_index_matches_its_maps(loaded)
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["again.json", "index.json"]


def _hand_corpus(*rows):
    return Corpus(examples=[Example(*row) for row in rows])


@pytest.mark.parametrize(
    "corpus",
    [
        _hand_corpus(),
        # no train rows: an empty pool
        _hand_corpus(("t1", "what is x", "f (x)", "f (x)", {"f": 1, "x": 1}, "test")),
        # a pool example without structures, beside one with them
        _hand_corpus(
            ("e1", "nothing here", "", "", {}, "train"),
            ("e2", "pick a", "f (a)", "f (a)", {"a": 1, "f": 1, "f -> a": 1}, "train"),
            ("t1", "pick b", "f (b)", "f (b)", {"b": 1, "f": 1}, "test"),
        ),
        # texts whose byte offsets are not their character offsets, ids that
        # JSON would escape, and lone surrogates, which JSON can hold
        Corpus(
            examples=[
                make_example('q"uote', "où est 日本 🎉 ?", 'größe (stadt ("日本 🎉"))'),
                make_example("back\\slash", "pick a", "f (a)"),
                make_example("lone-\udfff", "half \ud800 a pair", 'g\ud83c ("\ud83c")'),
                make_example("new\nline", "café ?", 'größe (fluss ("é"))'),
                make_example("é-id", "🎉🎉", 'f ("🎉")'),
                make_example("t-日本", "pick 日本", 'größe (stadt ("日本"))', "test"),
            ]
        ),
    ],
    ids=["empty-corpus", "no-train-rows", "pool-example-without-structures", "multi-byte-texts"],
)
def test_index_edge_cases_round_trip(tmp_path, corpus):
    built = build_indexes(corpus)
    _assert_index_matches_its_maps(built)
    path = tmp_path / "index.json"
    built.save(path)
    loaded = IndexBundle.load(path)
    _assert_same_index(loaded, built, [[], ["pick", "a"], ["nothing"]])
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    for ex in corpus.examples:
        assert [getattr(loaded.corpus.by_id[ex.id], f) for f in RECORD_FIELDS] == [
            getattr(ex, f) for f in RECORD_FIELDS
        ]
    if "e1" in built.pool:
        assert dict(loaded.pool["e1"].ls_counts) == {}
        assert [len(part) for part in sparse_row(loaded.tfidf, "e1")] == [0, 0]
        assert loaded.stats()["unique_ls"] == 3
    assert loaded.stats()["train"] == len(built.pool)


# an id's characters: multi-byte and 4-byte ones, lone surrogates (JSON can
# hold them, and a text column stores each as its three bytes) and NUL
ID_CHARACTERS = st.one_of(
    st.sampled_from(["a", "z", "\0", "é", "日", "🎉", "\U0010ffff", "\ud800", "\udfff", "\n"]),
    st.characters(exclude_categories=()),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    ids=st.lists(st.text(ID_CHARACTERS, max_size=6), max_size=8, unique=True),
    data=st.data(),
)
def test_any_ids_round_trip_save_and_load(ids, data):
    splits = data.draw(st.lists(st.sampled_from(SPLITS), min_size=len(ids), max_size=len(ids)))
    examples = [Example(i, "u", "f (a)", "f (a)", {"a": 1, "f": 1}, s) for i, s in zip(ids, splits)]
    built = build_indexes(Corpus(examples))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "index.json")
        built.save(path)
        loaded = IndexBundle.load(path)
    assert loaded.corpus.examples.records["id"] == built.corpus.examples.records["id"]
    assert loaded.pool.ids == built.pool.ids
    assert [ex.id for ex in loaded.corpus.examples] == [ex.id for ex in built.corpus.examples]


def test_a_loaded_index_is_read_only_views_of_its_mapped_file(tmp_path):
    path = tmp_path / "index.json"
    build_indexes(_geo_corpus(tmp_path)).save(path)
    loaded = IndexBundle.load(path)
    line = path.read_bytes().split(b"\n", 1)[0]
    header, data_start = json.loads(line), -(-(len(line) + 1) // 64) * 64
    for name, array in loaded.arrays.items():
        base = array
        while isinstance(base, np.ndarray):
            base = base.base
        mapping = getattr(base, "obj", base)  # a memoryview's object
        assert isinstance(mapping, mmap.mmap) and len(mapping) == path.stat().st_size
        # the array lies in the mapping, at its place in the file: nothing was copied
        start = np.frombuffer(mapping, np.uint8).ctypes.data
        assert array.ctypes.data == start + data_start + header["arrays"][name][0]
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flags.writeable = True


def test_a_loaded_index_serves_the_same_after_index_replaces_its_file(tmp_path):
    corpus = gen_fixture(n_train=40, n_test=8, seed=5).corpus
    path = tmp_path / "index.json"
    build_indexes(corpus).save(path)
    loaded = IndexBundle.load(path)
    other = write_fixture(gen_fixture(n_train=30, n_test=6, seed=6), tmp_path / "other")
    before = path.read_bytes()
    argv = ["index", "--corpus", str(other["train"]), "--corpus", str(other["test"])]
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() != before
    # read only now, from the replaced file's mapping
    words = sorted({t for ex in corpus.examples for t in ex.utt_tokens})
    _assert_same_index(loaded, build_indexes(corpus), [[], words[:5], words[-3:]])


def test_a_vocabulary_wider_than_16_bits_groups_its_structures(tmp_path):
    # past 1 << 16 structures a column code does not fit in 16 bits; each
    # program holds 300 arguments of its own and "zz", which every program
    # holds and which sorts after them
    def program(j):
        return f"f ({', '.join(f'x{j}_{i}' for i in range(300))}, zz)"

    built = build_indexes(Corpus([make_example(f"p{j:02d}", "u", program(j)) for j in range(40)]))
    assert len(built.vocab) > 1 << 16 and built.vocab.index("zz") >= 1 << 16
    path = tmp_path / "index.json"
    built.save(path)
    for bundle in (built, IndexBundle.load(path)):
        assert bundle.ls_postings["zz"].tolist() == list(range(40))
        assert len(bundle.arrays["lsc_offsets"]) == len(bundle.vocab) + 1
        _assert_index_matches_its_maps(bundle)


def test_index_load_builds_no_structure_dict(tmp_path, monkeypatch):
    path = tmp_path / "index.json"
    build_indexes(_geo_corpus(tmp_path)).save(path)
    built = []
    init = Example.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.id)

    monkeypatch.setattr(Example, "__init__", counted)
    reloaded = IndexBundle.load(path)
    # everything the bundle serves comes from its arrays
    reloaded.bm25_utterance.scores(["longest", "river"])
    reloaded.ls_postings, reloaded.token_postings, reloaded.tfidf, reloaded.stats()
    assert built == []
    g1 = reloaded.pool["g1"]
    assert g1.ls_counts["riverid"] == 1 and "riverid" in g1.ls_set
    assert list(g1.ls_counts) == sorted(g1.ls_counts)
    assert built == ["g1"]  # once, on first read, with its structure dict
    assert [ex.id for ex in reloaded.corpus.examples if "utt_tokens" in vars(ex)] == []


def test_load_rejects_unknown_split_and_non_string_ids(tmp_path):
    good = [{"utterance": f"u{i}", "program": "f (a)", "id": f"e{i}"} for i in range(60)]
    bad = [
        {"utterance": "u", "program": "f (a)", "id": "b1", "split": "dev"},
        {"utterance": "u", "program": "f (a)", "id": 0},
        {"utterance": "u", "program": "f (a)", "id": ["x"]},
        {"utterance": "u", "program": "f (a)", "id": ""},
        {"utterance": "u", "program": "f (a)", "id": None},
        # the generated id a numeric id used to become, now free for this row
        {"utterance": "explicit", "program": "f (b)", "id": "ex00062"},
    ]
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, good + bad)
    corpus = load_examples(path)
    assert [f["line"] for f in corpus.failures] == [61, 62, 63, 64, 65]
    assert corpus.failures[0]["error"] == "split must be 'train' or 'test', got 'dev'"
    assert corpus.failures[1]["error"] == "id must be a non-empty string, got 0"
    assert corpus.failures[2]["error"] == "id must be a non-empty string, got ['x']"
    assert corpus.by_id["ex00062"].utterance == "explicit"
    assert len(corpus) == 61
    assert {ex.split for ex in corpus.examples} == {"train"}


def test_index_takes_only_known_splits():
    dev = Example("d1", "u", "f (a)", "f (a)", {"a": 1, "f": 1}, "dev")
    with pytest.raises(CorpusError, match="split 'dev' is not one of train, test"):
        build_indexes(Corpus(examples=[dev]))


def test_readme_describes_the_index_format():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("An index file is written")
    section = readme[start : readme.index("\n## ", start)]
    assert f"Version {INDEX_VERSION} is" in section
    assert [name for name in ARRAY_DTYPES if f"`{name}`" not in section] == []


def test_write_text_keeps_previous_file_when_replace_fails(tmp_path, monkeypatch):
    target = tmp_path / "index.json"
    write_text(target, "first", "index file")
    assert target.read_bytes() == b"first"

    def failing_replace(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(IoError, match="index.json"):
        write_text(target, "second", "index file")
    assert target.read_bytes() == b"first"
    assert [p.name for p in tmp_path.iterdir()] == ["index.json"]


def test_index_stats(tmp_path):
    bundle = build_indexes(_geo_corpus(tmp_path))
    stats = bundle.stats()
    assert stats["examples"] == 8
    assert stats["train"] == 8
    assert stats["unique_templates"] == 6  # g1, g2 and g3 share one template


# --- fixture generation -----------------------------------------------------------


def test_fixture_determinism():
    first = gen_fixture(n_train=60, n_test=15, split="held-out-ls", seed=5)
    second = gen_fixture(n_train=60, n_test=15, split="held-out-ls", seed=5)
    assert [ex.program for ex in first.corpus.examples] == [
        ex.program for ex in second.corpus.examples
    ]
    assert first.planted_targets == second.planted_targets


def test_fixture_held_out_structures_absent_from_training():
    fixture = gen_fixture(n_train=80, n_test=20, split="held-out-ls", seed=3)
    train_union: set[str] = set()
    for ex in fixture.corpus.split("train"):
        train_union |= {c for c in ex.ls_set if ls_size(c) <= 4}
    assert fixture.planted_targets
    for target in fixture.planted_targets:
        assert target not in train_union
    for ex in fixture.corpus.split("test"):
        assert unobserved(ex.ls_set, train_union)
        assert fixture.planted[ex.id]
        for target in fixture.planted[ex.id]:
            assert target in ex.ls_set


def test_fixture_bookkeeping_matches_unobserved_metric():
    fixture = gen_fixture(n_train=80, n_test=20, split="held-out-ls", seed=7)
    bundle = build_indexes(fixture.corpus)
    union = bundle.training_ls_union()
    flagged = [
        unobserved(ex.ls_set, union) for ex in fixture.corpus.split("test")
    ]
    assert all(flagged)


def test_fixture_template_split_disjoint():
    fixture = gen_fixture(n_train=60, n_test=15, split="template", seed=1)
    train_templates = {ex.template for ex in fixture.corpus.split("train")}
    test_templates = {ex.template for ex in fixture.corpus.split("test")}
    assert train_templates
    assert test_templates
    assert not train_templates & test_templates


def test_fixture_iid_split_overlaps():
    fixture = gen_fixture(n_train=60, n_test=15, split="iid", seed=2)
    train_templates = {ex.template for ex in fixture.corpus.split("train")}
    test_templates = {ex.template for ex in fixture.corpus.split("test")}
    assert train_templates & test_templates


@pytest.mark.parametrize("n_train", [50, 200, 400])
def test_fixture_iid_split_without_tests(n_train):
    # with no test example there is no train/test template overlap to repair
    fixture = gen_fixture(n_train=n_train, n_test=0, split="iid", seed=1)
    assert len(fixture.corpus.split("train")) == n_train
    assert not fixture.corpus.split("test")


def test_fixture_max_filters_zero_draws_no_filter():
    from demoselect import GrammarConfig

    fixture = gen_fixture(grammar=GrammarConfig(max_filters=0), n_train=30, n_test=10, seed=0)
    programs = [ex.program for ex in fixture.corpus.examples]
    assert len(programs) == 40
    assert not any("filter" in program for program in programs)


def test_fixture_rejects_oversized_requests():
    from demoselect import GrammarConfig

    tiny = GrammarConfig(
        entities=("dog",),
        attributes=(),
        attr_types=("color",),
        numbers=(2,),
        max_filters=0,
        logic_rate=0.0,
    )
    with pytest.raises(GenerationError):
        gen_fixture(grammar=tiny, n_train=500, n_test=10, split="iid", seed=0)


def test_write_fixture_round_trips(tmp_path):
    fixture = gen_fixture(n_train=30, n_test=10, split="held-out-ls", seed=9)
    paths = write_fixture(fixture, tmp_path / "fx")
    train = load_examples(paths["train"])
    test = load_examples(paths["test"], default_split="test")
    assert len(train) == 30
    assert len(test) == 10
    meta = json.loads(paths["meta"].read_text(encoding="utf-8"))
    assert meta["planted_targets"] == fixture.planted_targets


def test_make_example_symbol_sequence():
    example = make_example("x", "how many dogs", 'count (find ("dog"))')
    assert example.symbol_seq == ["count", "find", "string"]
    assert example.utt_tokens == ["how", "many", "dogs"]
    rng = random.Random(17)
    for _ in range(60):
        program = random_program(rng)
        expected = anonymize(parse_program(program)).values[1:]
        assert Counter(make_example("r", "u", program).symbol_seq) == Counter(expected)

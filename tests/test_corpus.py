from __future__ import annotations

import json
import os
import random
from collections import Counter

import pytest

from demoselect import (
    CorpusError,
    DialectConfig,
    GenerationError,
    IndexVersionError,
    IoError,
    build_indexes,
    gen_fixture,
    load_examples,
    load_predictions,
    unobserved_ls,
    write_fixture,
)
from demoselect.corpus import IndexBundle, make_example, write_text
from demoselect.structures import (
    build_structure_graph,
    count_local_structures,
    ls_size,
    program_structures,
)
from demoselect.programs import anonymize, parse_program

from geo_pool import POOL_ROWS
from helpers import random_program

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
    dialect = DialectConfig(name="mixed", value_parents=frozenset({"LIKE"}))
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
    assert bundles["t1"].beam_count == 1
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
        set(program_structures(text)) for text in ("f (g)", "f (g (a))", "f (h)")
    ]


# --- indexes ---------------------------------------------------------------------


def _geo_corpus(tmp_path):
    rows = [
        {"id": i, "utterance": u, "program": p, "split": "train"}
        for i, u, p in POOL_ROWS
    ]
    path = tmp_path / "geo.jsonl"
    _write_jsonl(path, rows)
    return load_examples(path)


def test_posting_lists_match_hand_enumeration(tmp_path):
    bundle = build_indexes(_geo_corpus(tmp_path))
    # riverid appears in g1, g2, g3 and g6; fewest only in g7.
    assert bundle.ls_postings["riverid"] == ["g1", "g2", "g3", "g6"]
    assert bundle.ls_postings["fewest"] == ["g7"]
    assert bundle.token_postings["texas"] == ["g8"]
    assert bundle.token_postings["mississippi"] == ["g1", "g6"]


def test_posting_lists_equal_linear_scan(tmp_path):
    bundle = build_indexes(_geo_corpus(tmp_path))
    for canonical, ids in bundle.ls_postings.items():
        scanned = sorted(
            ex.id for ex in bundle.pool.values() if canonical in ex.ls_set
        )
        assert ids == scanned
    for token, ids in bundle.token_postings.items():
        scanned = sorted(
            ex.id for ex in bundle.pool.values() if token in ex.utt_tokens
        )
        assert ids == scanned
    union = set().union(*(ex.ls_set for ex in bundle.pool.values()))
    assert bundle.training_ls_union() == union
    assert bundle.training_ls_union(4) == {c for c in union if ls_size(c) <= 4}
    assert bundle.training_ls_union(4) < union


def test_index_round_trip_preserves_rankings(tmp_path):
    bundle = build_indexes(_geo_corpus(tmp_path))
    path = tmp_path / "index.json"
    bundle.save(path)
    reloaded = IndexBundle.load(path)
    for query in (["longest", "river"], ["states", "mississippi"], []):
        assert reloaded.bm25_utterance.rank(query) == bundle.bm25_utterance.rank(query)
    for query in (["riverid", "string"], ["longest", "river", "all"], ["fewest"], []):
        assert reloaded.bm25_symbols.rank(query) == bundle.bm25_symbols.rank(query)
    assert reloaded.ls_postings == bundle.ls_postings
    assert list(reloaded.tfidf) == list(bundle.tfidf)
    for ex_id, row in bundle.tfidf.items():
        # the saved structure counts are key-sorted, so the rows' entry order
        # (and the order their norms sum in) may differ
        again = reloaded.tfidf[ex_id]
        assert dict(zip(*again)) == pytest.approx(dict(zip(*row)))


def test_index_version_mismatch_rejected(tmp_path):
    bundle = build_indexes(_geo_corpus(tmp_path))
    path = tmp_path / "index.json"
    bundle.save(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["version"] == 2
    assert not any("anonymized" in rec for rec in payload["examples"])
    for version in (1, 99):
        payload["version"] = version
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IndexVersionError, match="demoselect index"):
            IndexBundle.load(path)
    payload["version"] = 2
    del payload["examples"][0]["template"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(IoError, match="index.json"):
        IndexBundle.load(path)
    payload["magic"] = "other"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(IndexVersionError):
        IndexBundle.load(path)


def test_index_load_parses_no_program(tmp_path, monkeypatch):
    bundle = build_indexes(_geo_corpus(tmp_path))
    path = tmp_path / "index.json"
    bundle.save(path)

    def forbidden(*args, **kwargs):
        raise AssertionError("IndexBundle.load must not parse programs")

    monkeypatch.setattr("demoselect.corpus.parse_program", forbidden)
    monkeypatch.setattr("demoselect.corpus.anonymize", forbidden)
    reloaded = IndexBundle.load(path)
    for built, loaded in zip(bundle.corpus.examples, reloaded.corpus.examples, strict=True):
        assert loaded.template == built.template
        assert loaded.ls_counts == built.ls_counts
        assert loaded.utt_tokens == built.utt_tokens
        assert Counter(loaded.symbol_seq) == Counter(built.symbol_seq)


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
        assert unobserved_ls(ex.ls_set, train_union)
        assert fixture.planted[ex.id]
        for target in fixture.planted[ex.id]:
            assert target in ex.ls_set


def test_fixture_bookkeeping_matches_unobserved_metric():
    fixture = gen_fixture(n_train=80, n_test=20, split="held-out-ls", seed=7)
    bundle = build_indexes(fixture.corpus)
    union = bundle.training_ls_union(max_size=4)
    flagged = [
        unobserved_ls(ex.ls_set, union) for ex in fixture.corpus.split("test")
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
        expected = anonymize(parse_program(program)).symbol_sequence()
        assert Counter(make_example("r", "u", program).symbol_seq) == Counter(expected)

from __future__ import annotations

import hashlib
import json
import logging
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from demoselect.cli import build_parser, main
from demoselect.corpus import IndexBundle
from demoselect.programs import MAX_DEPTH

from helpers import count_parses


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    fixture_dir = root / "fixture"
    assert (
        main(
            [
                "gen-fixture",
                "--out-dir",
                str(fixture_dir),
                "--n-train",
                "60",
                "--n-test",
                "10",
                "--split",
                "held-out-ls",
                "--seed",
                "11",
            ]
        )
        == 0
    )
    index = root / "index.json"
    assert (
        main(
            [
                "index",
                "--corpus",
                str(fixture_dir / "train.jsonl"),
                "--corpus",
                str(fixture_dir / "test.jsonl"),
                "--out",
                str(index),
            ]
        )
        == 0
    )
    return {"root": root, "fixture": fixture_dir, "index": index}


def _read_jsonl(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def test_gen_fixture_writes_files(workspace):
    assert (workspace["fixture"] / "train.jsonl").exists()
    assert (workspace["fixture"] / "test.jsonl").exists()
    meta = json.loads((workspace["fixture"] / "meta.json").read_text())
    assert meta["planted_targets"]


# sha256 of `gen-fixture --n-train 60 --n-test 10 --seed 5` per split, and of
# the index built from the held-out-ls files. Like COMPOSITION_DIGESTS they pin
# the bytes: the benchmark compares nothing once its generated inputs change.
FIXTURE_DIGESTS = {
    "held-out-ls": {
        "train.jsonl": "f7a721d8641a8ccd53c6079f0af2c3a19bc12d156c944d5d7b2f96c92db74d6b",
        "test.jsonl": "6f5fa125f37526feb69216942e77fe1ca5bcd7fbc9c357ac4ed512a585650e81",
        "meta.json": "12fecfddfe8e9d5d88c359947219f4dfc5a8258392bdbaf8440227ad409ae9bd",
    },
    "iid": {
        "train.jsonl": "bb316e009c89f3f271466c14e1ae170a646e229be895ffe751a7789a058c1409",
        "test.jsonl": "c7895b429243d06fcea397dbf484d655583d204bc621de46e75f984d7225b531",
        "meta.json": "bfce5eb066bbf990df0c917d859af338200e8a647805eed2e8e0c9f38da5a203",
    },
    "template": {
        "train.jsonl": "8fd8b009b1b3b34b55dead9dca1fbec642e4b813d225a108cb7ccb6f0477c9df",
        "test.jsonl": "f2f0cae8eee864667e2dbfe9d2012ee8804380047a45533ed59e9a73acbf7f83",
        "meta.json": "9d59d6c64f847069228c2083f5a963426085d944221f0df5224dd5932397fa91",
    },
}
INDEX_DIGEST = "84ca1c253366a30694b8bea9c126cdba62e9cfb748cd53be4aea8b4f46173a54"


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_gen_fixture_and_index_bytes_are_pinned(tmp_path):
    for split, expected in FIXTURE_DIGESTS.items():
        out = tmp_path / split
        argv = ["--n-train", "60", "--n-test", "10", "--split", split, "--seed", "5"]
        assert main(["gen-fixture", "--out-dir", str(out), *argv]) == 0
        assert {name: _sha256(out / name) for name in expected} == expected, split
    corpus = tmp_path / "held-out-ls"
    index = tmp_path / "index.json"
    argv = ["--corpus", str(corpus / "train.jsonl"), "--corpus", str(corpus / "test.jsonl")]
    assert main(["index", *argv, "--out", str(index)]) == 0
    assert _sha256(index) == INDEX_DIGEST
    # written at exactly --out, with no temporary file left beside it
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "held-out-ls", "iid", "index.json", "template"
    ]


def test_index_lists_the_pool_first_and_run_keeps_the_test_order(tmp_path):
    # train and test lines interleaved, the ids in neither order
    rows = [
        ("t-9", "test", "pick b", "f (b)"),
        ("p-5", "train", "pick a", "f (a)"),
        ("t-1", "test", "join a and b", "g (a, b)"),
        ("p-2", "train", "join b and a", "g (b, a)"),
        ("p-8", "train", "scan b", "h (b)"),
        ("t-4", "test", "scan a", "h (a)"),
        ("p-0", "train", "top a", "top (a)"),
    ]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(
            json.dumps({"id": i, "split": split, "utterance": u, "program": program}) + "\n"
            for i, split, u, program in rows
        )
    )
    index, again = tmp_path / "index.json", tmp_path / "again.json"
    assert main(["index", "--corpus", str(corpus), "--out", str(index)]) == 0
    bundle = IndexBundle.load(index)
    assert [ex.id for ex in bundle.corpus.examples] == [
        "p-0", "p-2", "p-5", "p-8", "t-9", "t-1", "t-4"
    ]
    bundle.save(again)
    assert again.read_bytes() == index.read_bytes()
    for strategy in ("top-k", "cover-utt", "dpp"):
        workdir = tmp_path / strategy
        argv = ["run", "--index", str(index), "--strategy", strategy, "--k", "2", "--mock"]
        assert main([*argv, "--workdir", str(workdir)]) in (0, 1)
        for name in ("selections.jsonl", "prompts.jsonl", "predictions.jsonl"):
            assert [row["id"] for row in _read_jsonl(workdir / name)] == ["t-9", "t-1", "t-4"]


def test_index_reports_stats(workspace, capsys):
    out = workspace["root"] / "index2.json"
    code = main(
        [
            "index",
            "--corpus",
            str(workspace["fixture"] / "train.jsonl"),
            "--out",
            str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "indexed 60 examples" in captured.out


def test_index_missing_file_exits_2(workspace, capsys):
    code = main(
        [
            "index",
            "--corpus",
            str(workspace["root"] / "nope.jsonl"),
            "--out",
            str(workspace["root"] / "x.json"),
        ]
    )
    assert code == 2


def test_index_tolerates_corrupt_line(workspace, capsys, tmp_path):
    source = (workspace["fixture"] / "train.jsonl").read_text().splitlines()
    source.insert(2, '{"utterance": "broken", "program": "f (", "id": "bad"}')
    corrupted = tmp_path / "corrupt.jsonl"
    corrupted.write_text("\n".join(source) + "\n")
    code = main(
        ["index", "--corpus", str(corrupted), "--out", str(tmp_path / "i.json")]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "1 corpus lines skipped" in captured.out


def test_select_top_k_emits_k_ids(workspace, tmp_path):
    out = tmp_path / "sel.jsonl"
    code = main(
        [
            "select",
            "--index",
            str(workspace["index"]),
            "--out",
            str(out),
            "--strategy",
            "top-k",
            "--k",
            "3",
        ]
    )
    assert code == 0
    rows = _read_jsonl(out)
    assert len(rows) == 10
    for row in rows:
        assert len(row["items"]) == 3
        assert row["coverage_trace"] == []


def test_select_cover_ls_without_elements_source_exits_2(workspace, tmp_path):
    code = main(
        [
            "select",
            "--index",
            str(workspace["index"]),
            "--out",
            str(tmp_path / "sel.jsonl"),
            "--strategy",
            "cover-ls",
        ]
    )
    assert code == 2


def test_select_cover_ls_from_predictions_file(workspace, tmp_path):
    tests = _read_jsonl(workspace["fixture"] / "test.jsonl")
    preds = tmp_path / "beams.jsonl"
    preds.write_text(
        "\n".join(
            json.dumps({"id": row["id"], "beams": [row["program"], row["program"] + ")"]})
            for row in tests
        )
        + "\n"
    )
    out = tmp_path / "sel.jsonl"
    code = main(
        [
            "select",
            "--index",
            str(workspace["index"]),
            "--out",
            str(out),
            "--strategy",
            "cover-ls",
            "--k",
            "4",
            "--predictions",
            str(preds),
        ]
    )
    assert code == 0
    rows = _read_jsonl(out)
    assert all(row["coverage_trace"] for row in rows)


def test_train_mode_reads_no_beam_file(workspace, tmp_path, caplog, monkeypatch):
    # training mode reads no beams, so it neither repairs the beam file's
    # programs nor matches its ids against the (absent) test examples
    import demoselect.corpus

    tests = _read_jsonl(workspace["fixture"] / "test.jsonl")
    beams = tmp_path / "beams.jsonl"
    beams.write_text(
        "".join(json.dumps({"id": row["id"], "beams": [row["program"] + ")"]}) + "\n" for row in tests)
    )
    repairs = Counter()
    original = demoselect.corpus.repair_parentheses

    def counted(text, *args):
        repairs[text] += 1
        return original(text, *args)

    monkeypatch.setattr(demoselect.corpus, "repair_parentheses", counted)
    argv = ["run", "--index", str(workspace["index"]), "--strategy", "cover-ls", "--k", "4"]
    argv += ["--train-mode", "--mock", "--predictions", str(beams)]
    with caplog.at_level(logging.WARNING):
        assert main([*argv, "--workdir", str(tmp_path / "run")]) == 0
    assert sum(repairs.values()) == 0
    assert not [r for r in caplog.records if "is not a test example" in r.getMessage()]


def test_run_mock_produces_report(workspace, tmp_path):
    workdir = tmp_path / "run"
    code = main(
        [
            "run",
            "--index",
            str(workspace["index"]),
            "--workdir",
            str(workdir),
            "--strategy",
            "cover-ls",
            "--oracle",
            "--k",
            "4",
            "--mock",
        ]
    )
    assert code in (0, 1)
    report = json.loads((workdir / "report.json").read_text())
    assert report["count"] == 10
    assert "accuracy" in report
    assert (workdir / "selections.jsonl").exists()
    assert (workdir / "prompts.jsonl").exists()
    assert (workdir / "predictions.jsonl").exists()


def test_mock_infer_parses_no_program(workspace, tmp_path, monkeypatch):
    import sys

    import demoselect.cli

    calls = Counter()
    inside = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += bool(inside)
            return function(*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "demoselect"]
    for module in modules:
        for name in ("parse_program", "program_structures"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    stage_infer = demoselect.cli.stage_infer

    def traced_infer(*args, **kwargs):
        inside.append(True)
        try:
            return stage_infer(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr("demoselect.cli.stage_infer", traced_infer)
    common = ["run", "--index", str(workspace["index"]), "--k", "8", "--mock"]
    for flags in (["top-k"], ["cover-ls", "--oracle"], ["dpp"]):
        workdir = tmp_path / "-".join(flags)
        assert main([*common, "--strategy", *flags, "--workdir", str(workdir)]) in (0, 1)
        assert len(_read_jsonl(workdir / "predictions.jsonl")) == 10
    assert sum(calls.values()) == 0, dict(calls)


def test_mock_predictions_equal_mock_over_program_text(workspace, tmp_path):
    from demoselect import MockOracleConfig, mock_complete

    programs = {
        row["id"]: row["program"]
        for name in ("train.jsonl", "test.jsonl")
        for row in _read_jsonl(workspace["fixture"] / name)
    }
    outcomes = Counter()
    for flags in (["top-k"], ["cover-ls", "--oracle"], ["dpp"]):
        for k in (2, 8):
            for threshold in (1, 2, 3):
                workdir = tmp_path / f"{'-'.join(flags)}-{k}-{threshold}"
                argv = ["run", "--index", str(workspace["index"]), "--strategy", *flags,
                        "--k", str(k), "--mock", "--mock-threshold", str(threshold)]
                assert main([*argv, "--workdir", str(workdir)]) in (0, 1)
                prompts = {r["id"]: r for r in _read_jsonl(workdir / "prompts.jsonl")}
                config = MockOracleConfig(compose_threshold_size=threshold)
                for row in _read_jsonl(workdir / "predictions.jsonl"):
                    demos = [programs[d] for d in prompts[row["id"]]["demo_ids"]]
                    gold = programs[row["id"]]
                    assert row["prediction"] == mock_complete(demos, gold, config)
                    outcomes[row["prediction"] == gold] += 1
    # both branches of the mock are exercised: composed gold and a copied demo
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_run_is_idempotent(workspace, tmp_path):
    args = lambda wd: [  # noqa: E731
        "run",
        "--index",
        str(workspace["index"]),
        "--workdir",
        str(wd),
        "--strategy",
        "cover-utt",
        "--k",
        "3",
        "--mock",
        "--seed",
        "4",
    ]
    main(args(tmp_path / "a"))
    main(args(tmp_path / "b"))
    for name in ("selections.jsonl", "prompts.jsonl", "predictions.jsonl", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# Per strategy: select/pool flags, prompt flags. "{beams}" stands for a beam file.
COMPOSITION_CONFIGS = {
    "top-k": (["--strategy", "top-k"], []),
    "random": (["--strategy", "random"], []),
    "cover-utt-budget": (["--strategy", "cover-utt"], ["--budget", "140"]),
    "dpp": (["--strategy", "dpp"], []),
    "cover-ls-oracle": (["--strategy", "cover-ls", "--oracle"], []),
    "cover-ls-predictions": (["--strategy", "cover-ls", "--predictions", "{beams}"], []),
    "train-mode": (["--strategy", "cover-ls", "--train-mode"], []),
}

# sha256 of run's outputs per configuration. They pin the outputs byte for
# byte: a refactor must leave them unchanged, and only an intended change of
# output may re-record them.
COMPOSITION_DIGESTS = {
    "cover-ls-oracle": {
        "selections.jsonl": "4f297727d2638663d079f6fee1e1f4bb342604718db93f0dbd582d0af5ca4733",
        "prompts.jsonl": "d07c136cfe9479cd069700625af3dccbd3563077de7c236c8f49fae038842863",
        "predictions.jsonl": "38695c84e5616a438dbef26d2d9727b204331abe6c450aee261dd817d10f4df1",
        "report.json": "e2bd310e3afc71f7edd50847e38a5c5e58e4ba150b40c2d52de6b41841c3e976",
    },
    "cover-ls-predictions": {
        "selections.jsonl": "329d99a4fef9fa983a75f009d0a6998da44d69a76e727411bd3c89b42a255192",
        "prompts.jsonl": "99aca914d4959b09f13dfb3e298c8a0f0f62e6237187788d8b97c45c8c35bc3c",
        "predictions.jsonl": "1cd88539a6f0dd32aa404205451c893990655e71a1f8e7e741c06fa56565c5f2",
        "report.json": "fbbc606b3ea44f168954312908ab139e9d9dbd694a346377f9c45b581b799903",
    },
    "cover-utt-budget": {
        "selections.jsonl": "290f5686b32f0cd47d36158f4d76d1e2d690e2939036509efb2855d2371c49fb",
        "prompts.jsonl": "7ce7c0c1a0a604b75136f0ae9ed6e7f8b33e0801a8c3d6b2fc1fa0841d5a9314",
        "predictions.jsonl": "a9131717971111e7dece732dece3f578f1f1a5c8b1318902eaa148b5a6a6b180",
        "report.json": "c13202a176d947618dd4fac12814332a0125e8fc00a1a2695d333c414bb3c7fe",
    },
    "dpp": {
        "selections.jsonl": "9b67ec62cc560a99db8137c3a26324888a2ded19fecd8a5b1ce443749acfc3f3",
        "prompts.jsonl": "417df49cc52ecebd50a84598a88e771ae0ac4834c34584f585ac1655ecbb8518",
        "predictions.jsonl": "50e8286a9299d12b8d29444e50dd0e037eeeb50e759c32037ba944786a9e0d78",
        "report.json": "adc3b3e0d1929ffe9d2df894ccbb9bd583500f4ee272bb3e9479748c0f0112a0",
    },
    "random": {
        "selections.jsonl": "3d530d29ccc5dee2b56193618b4826dcee6e2f087f0d59855d10efcc247f2afc",
        "prompts.jsonl": "7be2563010d7a00a57a78f915898ada1ae56639a5bf24a2ee52e2af8a8d14d52",
        "predictions.jsonl": "e04ef032887cf891f560c177694e661ca618c154f43abf4fbd50ca656d571ae7",
        "report.json": "a68a468b3010eb40bee71167e62f7b861b65054d94509ecd97cb51689f304089",
    },
    "top-k": {
        "selections.jsonl": "8e2497fd3a7c7d3ec98a1e455bfd00fb4ea0edec029119fee06c9313a3859c1f",
        "prompts.jsonl": "8dd99f78e5928b49df13f8a872e3fcc50934a4a896add2467bbb8068464136d0",
        "predictions.jsonl": "5f005a3f08dfa1b5678ec70facc39972e053c9127cf6bf9261ab93ff22044542",
        "report.json": "fb919f69432205c1a59c2ccd7375144c5f4acd07e0cb3204342306addc8f312c",
    },
    "train-mode": {
        "selections.jsonl": "0b8f0eda64e546304892579ca630304cd7b788be9a8b2bcc9e2ce55c3d709279",
        "prompts.jsonl": "84ccc0fc4d07a40e793091087ccc77ddfeb9d3cb7759930f2cbf51e2807fb704",
    },
}

RUN_FILES = ("selections.jsonl", "prompts.jsonl", "predictions.jsonl", "report.json")


def _write_beams(workspace, path):
    """Per test example: its gold program with one paren too many, and a pool program."""
    tests = _read_jsonl(workspace["fixture"] / "test.jsonl")
    train = _read_jsonl(workspace["fixture"] / "train.jsonl")
    path.write_text(
        "".join(
            json.dumps(
                {
                    "id": row["id"],
                    "beams": [row["program"] + ")", train[(7 * n) % len(train)]["program"]],
                }
            )
            + "\n"
            for n, row in enumerate(tests)
        )
    )


@pytest.mark.parametrize("config", sorted(COMPOSITION_CONFIGS))
def test_run_equals_stage_composition(workspace, tmp_path, config):
    beams = tmp_path / "beams.jsonl"
    _write_beams(workspace, beams)
    select_flags, prompt_flags = COMPOSITION_CONFIGS[config]
    select_flags = [str(beams) if f == "{beams}" else f for f in select_flags]
    common = ["--index", str(workspace["index"]), "--k", "4", "--seed", "2"]
    train_mode = "--train-mode" in select_flags
    run_dir = tmp_path / "run"
    codes = [
        main(["run", *common, *select_flags, *prompt_flags, "--mock", "--workdir", str(run_dir)])
    ]

    staged = tmp_path / "staged"
    staged.mkdir()
    sel, prm, pred, report = (str(staged / name) for name in RUN_FILES)
    codes.append(main(["select", *common, *select_flags, "--out", sel]))
    codes.append(
        main(["prompt", *common, *select_flags, *prompt_flags, "--selections", sel, "--out", prm])
    )
    names = RUN_FILES[:2]
    if not train_mode:
        common += select_flags[:2]  # --strategy <name>
        codes.append(main(["infer", *common, "--mock", "--prompts", prm, "--out", pred]))
        codes.append(
            main(["eval", *common, "--prompts", prm, "--predictions", pred, "--out", report])
        )
        names = RUN_FILES
    assert all(code in (0, 1) for code in codes), codes
    digests = {}
    for name in names:
        assert (run_dir / name).read_bytes() == (staged / name).read_bytes(), name
        digests[name] = hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
    assert digests == COMPOSITION_DIGESTS[config]


def test_run_builds_only_the_structures_its_strategy_reads(workspace, tmp_path, monkeypatch):
    import demoselect.corpus
    from demoselect.retrieval import Bm25Index

    calls = Counter()

    def forbidden(*args, **kwargs):
        raise AssertionError("built a structure the strategy does not read")

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    # a loaded index serves its tf-idf rows as stored: none is computed
    monkeypatch.setattr("demoselect.corpus.ls_tfidf_arrays", forbidden)
    monkeypatch.setattr("demoselect.corpus.Example.symbol_seq", property(forbidden))
    # the posting lists of pool rows, built from the structure columns
    monkeypatch.setattr(
        "demoselect.corpus.column_postings",
        counted("ls_postings", demoselect.corpus.column_postings),
    )
    monkeypatch.setattr(
        Bm25Index, "from_postings", counted("bm25_symbols", Bm25Index.from_postings)
    )
    tfidf_rows = []
    sparse_rows = demoselect.corpus.SparseRows
    monkeypatch.setattr(
        "demoselect.corpus.SparseRows",
        lambda ids, *args: tfidf_rows.append(len(ids)) or sparse_rows(ids, *args),
    )
    monkeypatch.setattr(Bm25Index, "scores", counted("bm25_scores", Bm25Index.scores))
    common = ["run", "--index", str(workspace["index"]), "--k", "4", "--mock"]
    built = {}
    for flags in (
        ["top-k"],
        ["random"],
        ["cover-ls", "--oracle"],
        ["cover-utt"],
        ["cover-ls", "--train-mode"],
        ["dpp"],
        ["top-k", "--retriever", "bm25-symbols", "--oracle"],
    ):
        calls.clear()
        workdir = tmp_path / "-".join(flags)
        assert main([*common, "--strategy", *flags, "--workdir", str(workdir)]) in (0, 1)
        built[" ".join(flags)] = dict(calls)
    assert built == {
        "top-k": {"bm25_scores": 10},
        "random": {},
        "cover-ls --oracle": {"bm25_scores": 10, "ls_postings": 1},
        "cover-utt": {"bm25_scores": 10},
        "cover-ls --train-mode": {"ls_postings": 1},
        "dpp": {"bm25_scores": 10},
        "top-k --retriever bm25-symbols --oracle": {"bm25_symbols": 1, "bm25_scores": 10},
    }
    assert tfidf_rows == [60]  # dpp's rows, one per pool example


def test_commands_build_only_the_examples_they_read(workspace, tmp_path, monkeypatch):
    from demoselect.corpus import Example

    built = []
    init = Example.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.id)

    monkeypatch.setattr(Example, "__init__", counted)
    index = workspace["index"]
    bundle = IndexBundle.load(index)
    pool = bundle.pool
    pool.ids, pool.template_codes, bundle.training_ls_union()
    assert built == []
    first = pool.ids[0]
    assert bundle.corpus.by_id[first] is pool[first] is pool.examples[0]
    assert built == [first]

    tests = {row["id"] for row in _read_jsonl(workspace["fixture"] / "test.jsonl")}
    common = ["--index", str(index), "--k", "4"]
    built.clear()
    out = tmp_path / "selections.jsonl"
    assert main(["select", *common, "--strategy", "top-k", "--out", str(out)]) == 0
    # the indexed test examples, once each, and no pool example
    assert sorted(built) == sorted(tests)
    for flags in (["top-k"], ["cover-ls", "--oracle"]):
        built.clear()
        workdir = tmp_path / "-".join(flags)
        argv = ["run", *common, "--strategy", *flags, "--mock", "--workdir", str(workdir)]
        assert main(argv) in (0, 1)
        selections = _read_jsonl(workdir / "selections.jsonl")
        demos = {demo_id for row in selections for demo_id, _ in row["items"]}
        # each test example and each demonstration written, once
        assert sorted(built) == sorted([*tests, *demos])

    # a loaded index saves its own bytes, whatever examples it has built
    for read in (0, 5):
        reloaded = IndexBundle.load(index)
        list(map(reloaded.corpus.examples.__getitem__, range(read)))
        again = tmp_path / f"again-{read}.json"
        reloaded.save(again)
        assert again.read_bytes() == Path(index).read_bytes()


def test_run_parses_only_test_programs_and_wrong_predictions(workspace, tmp_path, monkeypatch):
    from demoselect import exact_match

    tests = workspace["fixture"] / "test.jsonl"
    golds = {row["id"]: row["program"] for row in _read_jsonl(tests)}
    parsed = count_parses(monkeypatch)
    workdir = tmp_path / "run"
    argv = ["run", "--index", str(workspace["index"]), "--test", str(tests),
            "--strategy", "top-k", "--k", "2", "--mock", "--workdir", str(workdir)]
    assert main(argv) == 1
    predictions = _read_jsonl(workdir / "predictions.jsonl")
    wrong = [r["prediction"] for r in predictions if not exact_match(r["prediction"], golds[r["id"]])]
    assert wrong
    # each --test program when its row is loaded, each wrong prediction when
    # it is labelled, and no demonstration or pool program
    assert parsed == Counter(golds.values()) + Counter(wrong)


def test_eval_exit_codes_reflect_failures(workspace, tmp_path):
    prompts = tmp_path / "prompts.jsonl"
    predictions = tmp_path / "preds.jsonl"
    tests = _read_jsonl(workspace["fixture"] / "test.jsonl")
    prompts.write_text(
        "\n".join(
            json.dumps({"id": r["id"], "prompt": "p", "demo_ids": [], "truncated": 0})
            for r in tests
        )
        + "\n"
    )
    predictions.write_text(
        "\n".join(
            json.dumps({"id": r["id"], "prediction": r["program"]}) for r in tests
        )
        + "\n"
    )
    code = main(
        [
            "eval",
            "--index",
            str(workspace["index"]),
            "--prompts",
            str(prompts),
            "--predictions",
            str(predictions),
            "--out",
            str(tmp_path / "report.json"),
        ]
    )
    assert code == 0  # gold predictions, perfect accuracy
    predictions.write_text(
        "\n".join(
            json.dumps({"id": r["id"], "prediction": "wrong (answer)"}) for r in tests
        )
        + "\n"
    )
    code = main(
        [
            "eval",
            "--index",
            str(workspace["index"]),
            "--prompts",
            str(prompts),
            "--predictions",
            str(predictions),
            "--out",
            str(tmp_path / "report.json"),
            "--csv",
            str(tmp_path / "report.csv"),
            "--per-record",
            str(tmp_path / "records.jsonl"),
        ]
    )
    assert code == 1
    assert (tmp_path / "report.csv").exists()
    assert len(_read_jsonl(tmp_path / "records.jsonl")) == len(tests)


# sha256 of the --csv file of an eval of `run --strategy cover-ls --oracle --k 3
# --mock` over the workspace index: six exact matches and four predictions
# with one or two error labels.
CSV_DIGEST = "14b434b9711172c3b7014095e63366fd447c98196c82110ba58c2f0fcd01a815"
CSV_HEADER = (
    b"id,exact_match,symbol_coverage,ls_coverage,unique_ls_count,error_labels,"
    b"unobserved_ls,strategy\r\n"
)


def test_eval_csv_bytes_are_pinned(workspace, tmp_path):
    workdir = tmp_path / "w"
    argv = ["--index", str(workspace["index"]), "--strategy", "cover-ls"]
    run = ["run", *argv, "--oracle", "--k", "3", "--mock", "--workdir", str(workdir)]
    assert main(run) == 1
    stage_files = [workdir / "prompts.jsonl", workdir / "predictions.jsonl"]
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    for name, (prompts, predictions) in (("all", stage_files), ("none", [empty, empty])):
        files = ["--prompts", str(prompts), "--predictions", str(predictions)]
        report = ["--out", str(tmp_path / f"{name}.json"), "--csv", str(tmp_path / f"{name}.csv")]
        assert main(["eval", *argv, *files, *report]) == 1
    assert _sha256(tmp_path / "all.csv") == CSV_DIGEST
    assert (tmp_path / "all.csv").read_bytes().startswith(CSV_HEADER)
    # an eval with no records writes the header line alone
    assert (tmp_path / "none.csv").read_bytes() == CSV_HEADER


def _nested(depth: int) -> str:
    """A program ``depth`` levels deep by parentheses."""
    return "f (" * (depth - 1) + "a" + ")" * (depth - 1)


def _chain(depth: int) -> str:
    """A program ``depth`` levels deep by juxtaposition."""
    return " ".join(["f"] * (depth - 1) + ["a"])


@pytest.mark.parametrize("shape", [_nested, _chain])
@pytest.mark.parametrize("depth", [MAX_DEPTH, MAX_DEPTH + 1])
def test_eval_scores_a_deep_prediction(workspace, tmp_path, shape, depth):
    # eval parses a wrong prediction and walks its tree: the deepest call
    # path; past the bound the prediction does not parse, even repaired
    tests = _read_jsonl(workspace["fixture"] / "test.jsonl")
    prompts, predictions = tmp_path / "prompts.jsonl", tmp_path / "predictions.jsonl"
    prompts.write_text("".join(json.dumps({"id": r["id"], "demo_ids": []}) + "\n" for r in tests))
    predictions.write_text(json.dumps({"id": tests[0]["id"], "prediction": shape(depth)}) + "\n")
    records = tmp_path / "records.jsonl"
    argv = ["--prompts", str(prompts), "--predictions", str(predictions)]
    argv += ["--out", str(tmp_path / "r.json"), "--per-record", str(records)]
    assert main(["eval", "--index", str(workspace["index"]), *argv]) == 1
    [record] = _read_jsonl(records)
    assert ("syntax" in record["error_labels"]) == (depth > MAX_DEPTH)


# The programs that overflowed Python's stack before parsing was bounded.
TOO_DEEP = {"nested": _nested(1200), "chain": _chain(600)}


@pytest.mark.parametrize("shape", sorted(TOO_DEEP))
def test_a_too_deep_program_is_a_bad_line_not_a_crash(workspace, tmp_path, capsys, shape):
    program = TOO_DEEP[shape]
    rows = [{"utterance": f"u{i}", "program": f"f (a{i})"} for i in range(10)]
    rows.append({"utterance": "u", "program": program})
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["index", "--corpus", str(corpus), "--out", str(tmp_path / "index")]) == 0
    assert "warning: 1 corpus lines skipped" in capsys.readouterr().out
    # a --test row of it fails its command
    test = tmp_path / "test.jsonl"
    test.write_text(json.dumps({"utterance": "u", "program": program}) + "\n")
    run = ["run", "--index", str(workspace["index"]), "--strategy", "top-k", "--k", "2", "--mock"]
    assert main([*run, "--test", str(test), "--workdir", str(tmp_path / "w")]) == 2
    assert f"{test}:1: program nests deeper than {MAX_DEPTH} levels" in capsys.readouterr().err
    # a beam of it is dropped
    test_id = _read_jsonl(workspace["fixture"] / "test.jsonl")[0]["id"]
    beams = tmp_path / "beams.jsonl"
    beams.write_text(json.dumps({"id": test_id, "beams": [program, "f (a)"]}) + "\n")
    select = ["select", "--index", str(workspace["index"]), "--strategy", "cover-ls"]
    assert main([*select, "--predictions", str(beams), "--out", str(tmp_path / "s.jsonl")]) == 0


def test_train_mode_emits_shuffled_training_prompts(workspace, tmp_path):
    workdir = tmp_path / "train-run"
    code = main(
        [
            "run",
            "--index",
            str(workspace["index"]),
            "--workdir",
            str(workdir),
            "--strategy",
            "cover-ls",
            "--train-mode",
            "--k",
            "3",
            "--seed",
            "6",
        ]
    )
    assert code == 0
    rows = _read_jsonl(workdir / "prompts.jsonl")
    assert len(rows) == 60
    assert all("target" in row for row in rows)
    assert all(row["prompt"].endswith("target:") for row in rows)
    again = tmp_path / "train-run-2"
    main(
        [
            "run",
            "--index",
            str(workspace["index"]),
            "--workdir",
            str(again),
            "--strategy",
            "cover-ls",
            "--train-mode",
            "--k",
            "3",
            "--seed",
            "6",
        ]
    )
    assert (workdir / "prompts.jsonl").read_bytes() == (again / "prompts.jsonl").read_bytes()


def test_config_file_supplies_defaults(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"strategy": "top-k", "k": 2, "mock": True}))
    workdir = tmp_path / "cfg-run"
    code = main(
        [
            "--config",
            str(config),
            "run",
            "--index",
            str(workspace["index"]),
            "--workdir",
            str(workdir),
        ]
    )
    assert code in (0, 1)
    rows = _read_jsonl(workdir / "selections.jsonl")
    assert all(len(row["items"]) == 2 for row in rows)
    assert all(row["strategy"] == "top-k" for row in rows)


def test_config_file_reads_both_spellings(workspace, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"strategy": "cover-ls", "oracle": True, "k": 3,
                                  "max-ls-size": 1, "candidate_pool_size": 9}))
    out = tmp_path / "sel.jsonl"
    assert main(["--config", str(config), "select", "--index", str(workspace["index"]),
                 "--out", str(out)]) == 0
    for row in _read_jsonl(out):
        assert all(" " not in element for element, _ in row["coverage_trace"])


def test_train_mode_select_parses_no_program(workspace, tmp_path, monkeypatch):
    import sys

    calls = Counter()

    def counted(function):
        def wrapper(*args, **kwargs):
            calls["parse_program"] += 1
            return function(*args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "demoselect" and hasattr(module, "parse_program"):
            monkeypatch.setattr(module, "parse_program", counted(module.parse_program))
    out = tmp_path / "sel.jsonl"
    argv = ["select", "--index", str(workspace["index"]), "--strategy", "cover-ls"]
    assert main([*argv, "--train-mode", "--k", "3", "--out", str(out)]) == 0
    assert len(_read_jsonl(out)) == 60
    assert calls == {}


def test_infer_transport_failure_exits_3(workspace, tmp_path):
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text(
        json.dumps({"id": "t", "prompt": "source: q\ntarget:", "demo_ids": [], "truncated": 0})
        + "\n"
    )
    code = main(
        [
            "infer",
            "--index",
            str(workspace["index"]),
            "--prompts",
            str(prompts),
            "--out",
            str(tmp_path / "preds.jsonl"),
            "--base-url",
            "http://127.0.0.1:9/v1/completions",
            "--max-retries",
            "0",
            "--timeout",
            "1",
        ]
    )
    assert code == 3


# Every command that sends no request, in one interpreter; prints the exit
# codes and which HTTP modules ended up loaded.
NO_REQUEST_COMMANDS = """
import json, sys
from demoselect.cli import main

d = sys.argv[1]
fixture, index, run = f"{d}/fixture", f"{d}/index.json", f"{d}/run"
sel, prm, pred, report = (f"{d}/{name}" for name in ("s.jsonl", "p.jsonl", "o.jsonl", "r.json"))
common = ["--index", index, "--strategy", "top-k", "--k", "2"]
codes = [
    main(["gen-fixture", "--out-dir", fixture, "--n-train", "30", "--n-test", "4"]),
    main(["index", "--corpus", f"{fixture}/train.jsonl", "--corpus", f"{fixture}/test.jsonl",
          "--out", index]),
    main(["select", *common, "--out", sel]),
    main(["prompt", *common, "--selections", sel, "--out", prm]),
    main(["infer", *common, "--mock", "--prompts", prm, "--out", pred]),
    main(["eval", *common, "--prompts", prm, "--predictions", pred, "--out", report]),
    main(["run", *common, "--mock", "--workdir", run]),
]
print(json.dumps([codes, sorted({"requests", "urllib3"} & set(sys.modules))]))
"""


def test_commands_without_a_request_load_no_http_stack(tmp_path):
    """Only a request imports requests; certifi is not checked, as a
    site-packages .pth file may import it at interpreter start-up."""
    import demoselect

    src = str(Path(demoselect.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", NO_REQUEST_COMMANDS, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert all(code in (0, 1) for code in codes), (codes, done.stderr)
    assert loaded == []


def test_run_forwards_request_flags(workspace, tmp_path, monkeypatch):
    sent = []

    class FakeResponse:
        status_code = 200
        text = ""

        def json(self):
            return {"choices": [{"text": "f (a)"}]}

    def fake_post(url, json, headers, timeout):
        sent.append(json)
        return FakeResponse()

    monkeypatch.setattr("requests.post", fake_post)
    flags = ["--base-url", "http://127.0.0.1:9/v1/completions", "--max-tokens", "7",
             "--temperature", "0.5", "--stop", "END"]
    index = ["--index", str(workspace["index"])]
    run_dir = tmp_path / "run"
    code = main(["run", *index, "--strategy", "top-k", "--k", "2", *flags,
                 "--workdir", str(run_dir)])
    assert code in (0, 1)
    run_payloads, sent[:] = list(sent), []
    code = main(["infer", *index, *flags, "--prompts", str(run_dir / "prompts.jsonl"),
                 "--out", str(tmp_path / "predictions.jsonl")])
    assert code == 0
    assert len(run_payloads) == 10
    assert run_payloads == sent
    for payload in run_payloads:
        assert (payload["max_tokens"], payload["temperature"], payload["stop"]) == (
            7,
            0.5,
            ["END"],
        )


@pytest.mark.parametrize(
    "command,flag",
    [
        ("select", "--predictions"),
        ("prompt", "--selections"),
        ("infer", "--prompts"),
        ("eval", "--predictions"),
        ("run", "--config"),
    ],
)
def test_malformed_json_input_exits_2(workspace, tmp_path, capsys, command, flag):
    bad = tmp_path / "truncated.json"
    bad.write_text('{"id": "x", "items": []}\n{"id": "y", "ite\n')
    if flag == "--config":
        bad.write_text('{"strategy": "top-k",\n "k": ')
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text("")
    argv = {
        "select": ["select", "--strategy", "cover-ls", "--out", str(tmp_path / "o")],
        "prompt": ["prompt", "--out", str(tmp_path / "o")],
        "infer": ["infer", "--mock", "--out", str(tmp_path / "o")],
        "eval": ["eval", "--prompts", str(prompts), "--out", str(tmp_path / "o")],
        "run": ["run", "--mock", "--workdir", str(tmp_path / "w")],
    }[command]
    argv += ["--index", str(workspace["index"])]
    if flag == "--config":
        argv = [flag, str(bad), *argv]
    else:
        argv += [flag, str(bad)]
    code = main(argv)
    assert code == 2
    assert f"{bad.name}:2" in capsys.readouterr().err


# Malformed rows, beams, config values, unreadable files and unwritable
# outputs. Each case is (bad file bytes, argv with {bad}, {index}, {empty},
# {out} and {nodir} placeholders, text stderr must contain); {bad} is not
# written when its bytes are None, and the directory {nodir} does not exist.
ROBUSTNESS_CASES = {
    "selection-without-items": (
        b'{"id": "x"}\n',
        "prompt --index {index} --selections {bad} --out {out}",
        "bad.jsonl:1",
    ),
    "prediction-without-id": (
        b'{"prediction": "f (a)"}\n',
        "eval --index {index} --prompts {empty} --predictions {bad} --out {out}",
        "bad.jsonl:1",
    ),
    "prediction-id-repeated": (
        b'{"id": "test-0000", "prediction": "f"}\n\n{"id": "test-0000", "prediction": "g"}\n',
        "eval --index {index} --prompts {empty} --predictions {bad} --out {out}",
        "bad.jsonl:3: id 'test-0000' repeats line 1",
    ),
    "selection-id-repeated": (
        b'{"id": "test-0000", "items": []}\n{"id": "test-0000", "items": []}\n',
        "prompt --index {index} --selections {bad} --out {out}",
        "bad.jsonl:2: id 'test-0000' repeats line 1",
    ),
    "prompt-id-repeated": (
        b'{"id": "test-0000", "prompt": "p", "demo_ids": []}\n'
        b'{"id": "test-0001", "prompt": "p", "demo_ids": []}\n'
        b'{"id": "test-0000", "prompt": "q", "demo_ids": []}\n',
        "infer --mock --index {index} --prompts {bad} --out {out}",
        "bad.jsonl:3: id 'test-0000' repeats line 1",
    ),
    "prompt-not-an-object": (
        b'{"id": "x", "prompt": "p", "demo_ids": []}\n[1, 2]\n',
        "infer --mock --index {index} --prompts {bad} --out {out}",
        "bad.jsonl:2",
    ),
    "beams-string": (
        b'{"id": "x", "beams": "f (a)"}\n',
        "select --strategy cover-ls --index {index} --predictions {bad} --out {out}",
        "bad.jsonl:1",
    ),
    "beams-number": (
        b'{"id": "x", "beams": 5}\n',
        "select --strategy cover-ls --index {index} --predictions {bad} --out {out}",
        "bad.jsonl:1",
    ),
    "beams-id-missing": (
        b'{"beams": ["f (a)"]}\n',
        "select --strategy cover-ls --index {index} --predictions {bad} --out {out}",
        "bad.jsonl:1: id is missing",
    ),
    "beams-id-number": (
        b'{"id": "x", "beams": []}\n{"id": 0, "beams": ["f (a)"]}\n',
        "select --strategy cover-ls --index {index} --predictions {bad} --out {out}",
        "bad.jsonl:2: id must be a non-empty string, got 0",
    ),
    "beams-id-null": (
        b'{"id": null, "beams": ["f (a)"]}\n',
        "select --strategy cover-ls --index {index} --predictions {bad} --out {out}",
        "bad.jsonl:1: id must be a non-empty string, got None",
    ),
    "beams-id-empty": (
        b'{"id": "", "beams": ["f (a)"]}\n',
        "select --strategy cover-ls --index {index} --predictions {bad} --out {out}",
        "bad.jsonl:1: id must be a non-empty string, got ''",
    ),
    "beams-id-repeated": (
        b'{"id": "x", "beams": ["f (a)"]}\n\n{"id": "x", "beams": ["g (b)"]}\n',
        "select --strategy cover-ls --index {index} --predictions {bad} --out {out}",
        "bad.jsonl:3: id 'x' repeats line 1",
    ),
    "beams-list-of-numbers": (
        b'{"id": "x", "beams": [5]}\n',
        "select --strategy cover-ls --index {index} --predictions {bad} --out {out}",
        "bad.jsonl:1",
    ),
    "config-not-utf8": (
        b"\xff\xfe{",
        "--config {bad} run --mock --index {index} --workdir {out}",
        "bad.jsonl",
    ),
    "grammar-missing": (
        None,
        "gen-fixture --out-dir {out} --grammar {bad}",
        "bad.jsonl",
    ),
    "grammar-not-json": (
        b'{"entities": ',
        "gen-fixture --out-dir {out} --grammar {bad}",
        "bad.jsonl",
    ),
    "grammar-field-wrong-type": (
        b'{"max_filters": "x"}',
        "gen-fixture --out-dir {out} --grammar {bad}",
        "bad.jsonl: not a grammar object: max_filters must be an integer >= 0, got 'x'",
    ),
    "grammar-entities-empty": (
        b'{"entities": []}',
        "gen-fixture --out-dir {out} --grammar {bad}",
        "bad.jsonl: not a grammar object: entities must not be empty",
    ),
    "grammar-word-empty": (
        b'{"entities": [""]}',
        "gen-fixture --n-train 20 --n-test 5 --out-dir {out} --grammar {bad}",
        "bad.jsonl: not a grammar object: entities word '' is not one program atom",
    ),
    "grammar-word-paren": (
        b'{"entities": ["x)"]}',
        "gen-fixture --n-train 20 --n-test 5 --out-dir {out} --grammar {bad}",
        "bad.jsonl: not a grammar object: entities word 'x)' is not one program atom",
    ),
    "test-file-empty": (
        b"",
        "run --strategy top-k --k 2 --mock --test {bad} --index {index} --workdir {out}",
        "no test examples in",
    ),
    "config-k-not-an-integer": (
        b'{"k": "abc"}',
        "--config {bad} run --mock --index {index} --workdir {out}",
        "k must be an integer",
    ),
    "config-budget-string": (
        b'{"strategy": "top-k", "k": 2, "budget": "960"}',
        "--config {bad} run --mock --index {index} --workdir {out}",
        "budget must be an integer",
    ),
    "config-budget-zero": (
        b'{"strategy": "top-k", "k": 2, "budget": 0}',
        "--config {bad} run --mock --index {index} --workdir {out}",
        "budget must be >= 1",
    ),
    "config-max-ls-size-string": (
        b'{"strategy": "cover-ls", "oracle": true, "k": 2, "max_ls_size": "2"}',
        "--config {bad} run --mock --index {index} --workdir {out}",
        "max_ls_size must be an integer",
    ),
    "config-k-null": (
        b'{"strategy": "top-k", "k": null}',
        "--config {bad} select --index {index} --out {out}",
        "k must be an integer",
    ),
    "config-oracle-string": (
        b'{"strategy": "cover-ls", "oracle": "false", "k": 2}',
        "--config {bad} select --index {index} --out {out}",
        "oracle must be true or false",
    ),
    "config-mock-number": (
        b'{"strategy": "top-k", "k": 2, "mock": 1}',
        "--config {bad} run --index {index} --workdir {out}",
        "mock must be true or false",
    ),
    "prediction-id-list": (
        b'{"id": ["x"], "prediction": "f"}\n',
        "eval --index {index} --prompts {empty} --predictions {bad} --out {out}",
        "bad.jsonl:1",
    ),
    "selection-items-number": (
        b'{"id": "test-0000", "items": 5}\n',
        "prompt --index {index} --selections {bad} --out {out}",
        "bad.jsonl:1",
    ),
    "prompt-demo-ids-string": (
        b'{"id": "test-0000", "prompt": "p", "demo_ids": "g1"}\n',
        "infer --mock --index {index} --prompts {bad} --out {out}",
        "bad.jsonl:1",
    ),
    "selection-items-not-pairs": (
        b'{"id": "test-0000", "items": [5]}\n',
        "prompt --index {index} --selections {bad} --out {out}",
        "bad.jsonl:1",
    ),
    "prompt-demo-ids-not-strings": (
        b'{"id": "test-0000", "prompt": "p", "demo_ids": [["x"]]}\n',
        "infer --mock --index {index} --prompts {bad} --out {out}",
        "bad.jsonl:1",
    ),
    "run-workdir-under-file": (
        b"a regular file",
        "run --strategy top-k --mock --index {index} --workdir {bad}/w",
        "bad.jsonl/w",
    ),
    "candidate-pool-size-zero": (
        None,
        "run --strategy dpp --candidate-pool-size 0 --mock --index {index} --workdir {out}",
        "candidate pool size must be >= 1",
    ),
    "max-ls-size-zero": (
        None,
        "run --strategy cover-ls --oracle --max-ls-size 0 --mock --index {index} --workdir {out}",
        "max LS size must be >= 1",
    ),
    "config-fallback-unknown": (
        b'{"fallback": "cover_utt"}',
        "--config {bad} run --strategy cover-ls --predictions {empty} --mock --index {index} --workdir {out}",
        "unknown fallback 'cover_utt'",
    ),
    "config-order-unknown": (
        b'{"order": "random"}',
        "--config {bad} select --strategy top-k --index {index} --out {out}",
        "unknown order 'random'",
    ),
    "infer-max-retries-negative": (
        None,
        "infer --index {index} --prompts {empty} --max-retries -1 --out {out}",
        "max retries must be >= 0",
    ),
    "infer-timeout-negative": (
        None,
        "infer --index {index} --prompts {empty} --timeout -1 --out {out}",
        "timeout must be > 0",
    ),
    "run-jobs-negative": (
        None,
        "run --strategy top-k --k 2 --mock --jobs -3 --index {index} --workdir {out}",
        "jobs must be >= 1",
    ),
    "infer-jobs-zero": (
        None,
        "infer --mock --jobs 0 --index {index} --prompts {empty} --out {out}",
        "jobs must be >= 1",
    ),
    "run-max-tokens-negative": (
        None,
        "run --strategy top-k --k 2 --mock --max-tokens -1 --index {index} --workdir {out}",
        "max tokens must be >= 1",
    ),
    "run-mock-threshold-zero": (
        None,
        "run --strategy top-k --k 2 --mock --mock-threshold 0 --index {index} --workdir {out}",
        "mock threshold must be >= 1",
    ),
    "config-unknown-key": (
        b'{"stratgy": "dpp", "k": 2, "mock": true}',
        "--config {bad} run --index {index} --workdir {out}",
        "unknown key 'stratgy'",
    ),
    "config-request-key": (
        b'{"strategy": "top-k", "k": 2, "mock": true, "max_tokens": 0, "timeout": -1}',
        "--config {bad} run --index {index} --workdir {out}",
        "unknown key 'max_tokens'",
    ),
    "gen-fixture-out-dir-under-file": (
        b"a regular file",
        "gen-fixture --n-train 20 --n-test 5 --out-dir {bad}/sub",
        "bad.jsonl/sub",
    ),
    "gen-fixture-n-test-negative": (
        None,
        "gen-fixture --n-test -3 --split iid --out-dir {out}",
        "need n_train >= 1 and n_test >= 0, got 200 and -3",
    ),
    "gen-fixture-n-train-negative": (
        None,
        "gen-fixture --n-train -5 --split template --out-dir {out}",
        "need n_train >= 1 and n_test >= 0, got -5 and 50",
    ),
    "gen-fixture-n-train-zero": (
        None,
        "gen-fixture --n-train 0 --n-test 5 --out-dir {out}",
        "got 0 and 5",
    ),
    "select-out-unwritable": (
        None,
        "select --strategy top-k --index {index} --out {nodir}/sel.jsonl",
        "no-such-dir/sel.jsonl",
    ),
    "eval-out-unwritable": (
        None,
        "eval --index {index} --prompts {empty} --predictions {empty} --out {nodir}/r.json",
        "no-such-dir/r.json",
    ),
    "corpus-row-not-an-object": (
        b'{"utterance": "u", "program": "f (a)"}\n[1, 2]\n',
        "index --corpus {bad} --out {out}",
        "bad.jsonl:2: not a JSON object",
    ),
    "corpus-utterance-number": (
        b'{"utterance": "u", "program": "f (a)"}\n{"utterance": 5, "program": "f (a)"}\n',
        "index --corpus {bad} --out {out}",
        "bad.jsonl:2: utterance must be a string",
    ),
    "corpus-program-number": (
        b'{"utterance": "u", "program": "f (a)"}\n{"utterance": "u", "program": 7}\n',
        "index --corpus {bad} --out {out}",
        "bad.jsonl:2: program must be a string",
    ),
    "corpus-split-number": (
        b'{"utterance": "u", "program": "f (a)"}\n{"utterance": "v", "program": "f (b)", "split": 5}\n',
        "index --corpus {bad} --out {out}",
        "bad.jsonl:2: split must be 'train' or 'test', got 5",
    ),
    "corpus-split-dev": (
        b'{"utterance": "u", "program": "f (a)"}\n{"utterance": "v", "program": "f (b)", "split": "dev"}\n',
        "index --corpus {bad} --out {out}",
        "bad.jsonl:2: split must be 'train' or 'test', got 'dev'",
    ),
    "corpus-id-number": (
        b'{"id": 0, "utterance": "u", "program": "f (a)"}\n{"id": "ex00001", "utterance": "v", "program": "f (b)"}\n',
        "index --corpus {bad} --out {out}",
        "bad.jsonl:1: id must be a non-empty string, got 0",
    ),
    "corpus-id-list": (
        b'{"utterance": "u", "program": "f (a)"}\n{"id": ["x"], "utterance": "v", "program": "f (b)"}\n',
        "index --corpus {bad} --out {out}",
        "bad.jsonl:2: id must be a non-empty string, got ['x']",
    ),
    "index-ids-repeated-across-corpora": (
        b'{"utterance": "u", "program": "f (a)"}\n',
        "index --corpus {bad} --corpus {bad} --out {out}",
        "example id 'ex00001' occurs twice in the indexed corpus",
    ),
    "run-temperature-nan": (
        None,
        "run --strategy top-k --k 2 --mock --temperature nan --index {index} --workdir {out}",
        "temperature must be finite and >= 0",
    ),
    "infer-base-url-without-scheme": (
        None,
        "infer --index {index} --prompts {empty} --base-url localhost:8000/v1 --out {out}",
        "must be an http(s) URL with a host",
    ),
    "run-base-url-without-host": (
        None,
        "run --strategy top-k --k 2 --base-url http:// --index {index} --workdir {out}",
        "must be an http(s) URL with a host",
    ),
}


# One valid row of each kind of JSONL file, and the command reading a file of
# them as {bad}: a corpus, a beam file and a stage file.
ROW_FILES = {
    "corpus": (
        {"id": "x", "utterance": "u", "program": "f (a)"},
        "index --corpus {bad} --out {out}",
    ),
    "beams": (
        {"id": "x", "beams": ["f (a)"]},
        "select --strategy cover-ls --index {index} --predictions {bad} --out {out}",
    ),
    "stage": (
        {"id": "x", "prediction": "f (a)"},
        "eval --index {index} --prompts {empty} --predictions {bad} --out {out}",
    ),
}
# Each defect, from a valid row and its key after the id: the file's rows and
# the text stderr must contain.
ROW_DEFECTS = {
    "not-an-object": lambda row, key: ([[1, 2]], "bad.jsonl:1: not a JSON object"),
    "key-missing": lambda row, key: (
        [{k: v for k, v in row.items() if k != key}],
        f"bad.jsonl:1: {key} is missing",
    ),
    "id-wrong-type": lambda row, key: (
        [{**row, "id": 5}],
        "bad.jsonl:1: id must be a non-empty string, got 5",
    ),
    "id-repeated": lambda row, key: ([row, row], "bad.jsonl:2: id 'x' repeats line 1"),
}


@pytest.mark.parametrize("defect", sorted(ROW_DEFECTS))
@pytest.mark.parametrize("kind", sorted(ROW_FILES))
def test_a_row_defect_gets_one_message_in_every_jsonl_file(
    workspace, tmp_path, capsys, kind, defect
):
    row, argv = ROW_FILES[kind]
    rows, expected = ROW_DEFECTS[defect](row, list(row)[1])
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    paths = {"bad": bad, "index": workspace["index"], "empty": empty, "out": tmp_path / "o"}
    assert main([arg.format(**paths) for arg in argv.split()]) == 2
    assert expected in capsys.readouterr().err


GOLDEN_DIR = Path(__file__).parent / "golden"
COMMANDS = ("index", "gen-fixture", "select", "prompt", "infer", "eval", "run")


@pytest.mark.parametrize("argv", [[], *[[c] for c in COMMANDS], ["--config", "c.json", "run"]])
def test_help_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--help"])
    assert exit_info.value.code == 0
    name = argv[-1] if argv else "demoselect"
    # the golden files are Python 3.11's; 3.10's argparse heads the options
    # "optional arguments:"
    out = capsys.readouterr().out.replace("optional arguments:", "options:")
    assert out == (GOLDEN_DIR / f"help_{name}.txt").read_text(encoding="utf-8")


def test_parser_adds_arguments_to_the_named_command_only(capsys):
    argv = ["index", "--corpus", "c.jsonl", "--out", "i.json"]
    assert build_parser(argv).parse_args(argv).corpus == ["c.jsonl"]
    for named in (["--config", "x", "eval"], ["--config=x", "eval"]):
        with pytest.raises(SystemExit):
            build_parser(named).parse_args(argv)
        assert "unrecognized arguments: --corpus c.jsonl --out i.json" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bogus"], ["--config=c.json", "ru"]])
def test_unknown_command_lists_every_command(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    choices = ", ".join(repr(c) for c in COMMANDS)
    expected = f"error: argument command: invalid choice: {argv[-1]!r} (choose from {choices})"
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(ROBUSTNESS_CASES))
def test_malformed_input_exits_2_naming_it(workspace, tmp_path, capsys, case):
    content, argv, expected = ROBUSTNESS_CASES[case]
    bad = tmp_path / "bad.jsonl"
    if content is not None:
        bad.write_bytes(content)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    paths = {
        "bad": bad,
        "index": workspace["index"],
        "empty": empty,
        "out": tmp_path / "o",
        "nodir": tmp_path / "no-such-dir",
    }
    assert main([arg.format(**paths) for arg in argv.split()]) == 2
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--mock", "--mock-threshold", "0"],
        ["--mock", "--jobs", "0"],
        ["--mock", "--max-tokens", "0"],
        ["--mock", "--temperature", "inf"],
        ["--base-url", "ftp://x/y"],
        ["--mock", "--stop", ""],
        ["--mock", "--budget", "0"],
        ["--mock", "--budget", "-3"],
        ["--base-url", "http://127.0.0.1:9/v1", "--timeout", "inf"],
        ["--base-url", "http://127.0.0.1:9/v1", "--timeout", "1e10"],
    ],
)
def test_bad_infer_flag_fails_before_any_stage_file(workspace, tmp_path, flags):
    workdir = tmp_path / "run"
    workdir.mkdir()
    argv = ["run", "--index", str(workspace["index"]), "--strategy", "top-k", "--k", "2"]
    assert main([*argv, *flags, "--workdir", str(workdir)]) == 2
    assert list(workdir.iterdir()) == []


def test_run_without_an_endpoint_fails_before_any_stage_file(
    workspace, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv("DEMOSELECT_BASE_URL", raising=False)
    workdir = tmp_path / "run"
    argv = ["run", "--index", str(workspace["index"]), "--strategy", "top-k", "--k", "2"]
    assert main([*argv, "--workdir", str(workdir)]) == 2
    err = capsys.readouterr().err
    assert "error: no endpoint base URL" in err
    assert all(name in err for name in ("--base-url", "DEMOSELECT_BASE_URL", "--mock"))
    assert not workdir.exists() or list(workdir.iterdir()) == []


def test_unexpected_exception_exits_4(workspace, tmp_path, capsys, monkeypatch):
    def broken_stage(*args, **kwargs):
        raise RuntimeError("stage broke")

    monkeypatch.setattr("demoselect.cli.stage_select", broken_stage)
    argv = ["select", "--strategy", "top-k", "--index", str(workspace["index"])]
    assert main([*argv, "--out", str(tmp_path / "sel.jsonl")]) == 4
    err = capsys.readouterr().err
    assert "internal error:" in err
    assert "RuntimeError: stage broke" in err


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_unknown_demo_id_exits_2(workspace, tmp_path, capsys, command):
    test_id = _read_jsonl(workspace["fixture"] / "test.jsonl")[0]["id"]
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text(
        json.dumps({"id": test_id, "prompt": "p", "demo_ids": ["no-such-demo"], "truncated": 0})
        + "\n"
    )
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text(json.dumps({"id": test_id, "prediction": "f (a)"}) + "\n")
    argv = ["--index", str(workspace["index"]), "--prompts", str(prompts)]
    if command == "infer":
        argv = ["infer", *argv, "--mock", "--out", str(tmp_path / "out.jsonl")]
    else:
        argv = ["eval", *argv, "--predictions", str(predictions), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert "no-such-demo" in capsys.readouterr().err


UNRESOLVED_ID_CASES = {
    # command, its flag for the rows file, a row naming the id, the message
    "prompt-selection-not-a-target": (
        "prompt", "--selections", {"id": "no-such-test", "items": []},
        "selection id no-such-test not among targets",
    ),
    "prompt-unknown-demonstration": (
        "prompt", "--selections", {"id": "TEST", "items": [["no-such-demo", 1.0]]},
        "unknown demonstration id no-such-demo",
    ),
    "infer-prompt-not-a-test": (
        "infer", "--prompts", {"id": "no-such-test", "prompt": "p", "demo_ids": []},
        "prompt id no-such-test has no test example",
    ),
}


@pytest.mark.parametrize("case", sorted(UNRESOLVED_ID_CASES))
def test_unresolved_id_exits_2_naming_its_file(workspace, tmp_path, capsys, case):
    command, flag, row, message = UNRESOLVED_ID_CASES[case]
    test_id = _read_jsonl(workspace["fixture"] / "test.jsonl")[0]["id"]
    rows = tmp_path / "rows.jsonl"
    rows.write_text(json.dumps({**row, "id": row["id"].replace("TEST", test_id)}) + "\n")
    out = tmp_path / "out.jsonl"
    argv = [command, "--index", str(workspace["index"]), flag, str(rows), "--out", str(out)]
    assert main([*argv, *(["--mock"] if command == "infer" else [])]) == 2
    assert f"error: {rows}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_prediction_without_prompt_row_exits_2(workspace, tmp_path, capsys):
    workdir = tmp_path / "run"
    argv = ["run", "--index", str(workspace["index"]), "--strategy", "top-k", "--k", "2"]
    assert main([*argv, "--mock", "--workdir", str(workdir)]) in (0, 1)
    rows = (workdir / "prompts.jsonl").read_text().splitlines()
    prompts = tmp_path / "prompts.jsonl"
    prompts.write_text("\n".join(rows[:3]) + "\n")
    missing = _read_jsonl(workdir / "predictions.jsonl")[3]["id"]
    argv = ["eval", "--index", str(workspace["index"]), "--prompts", str(prompts),
            "--predictions", str(workdir / "predictions.jsonl"), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{prompts}: prediction id {missing} has no prompt row" in err
    assert not (tmp_path / "r.json").exists()


def test_beam_limit_drops_later_beams(workspace, tmp_path):
    test_id = _read_jsonl(workspace["fixture"] / "test.jsonl")[0]["id"]
    beams = tmp_path / "beams.jsonl"
    # Only the second beam holds the symbol zz_only_second.
    beams.write_text(json.dumps({"id": test_id, "beams": ["f (a)", "f (zz_only_second (a))"]}) + "\n")

    def traced(*extra):
        out = tmp_path / "sel.jsonl"
        code = main(["select", "--index", str(workspace["index"]), "--strategy", "cover-ls",
                     "--k", "2", "--predictions", str(beams), "--out", str(out), *extra])
        assert code == 0
        row = next(r for r in _read_jsonl(out) if r["id"] == test_id)
        return [element for element, _ in row["coverage_trace"]]

    assert any("zz_only_second" in element for element in traced())
    assert not any("zz_only_second" in element for element in traced("--beam-limit", "1"))

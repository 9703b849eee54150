"""The library calls that the README and the benchmark's traced replay make.

The README's "Library use" snippets and the benchmark's replay of
``demoselect run`` call the selectors with the index bundle's own objects:
scores read as a mapping, ``bundle.pool``, ``bundle.ls_postings``,
``bundle.token_postings`` and ``bundle.tfidf``. These tests make the same
calls on the geography pool, so a change of those signatures fails here,
and check that they select what the CLI writes to ``selections.jsonl``.
The pipeline's four stages, called from Python on a loaded index, must
give what ``run`` writes, byte for byte.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import pytest

from demoselect import (
    IndexBundle,
    cover_ls,
    cover_utt,
    dpp_select,
    load_predictions,
    oracle_elements,
    select_random,
    select_top_k,
    tokenize_utterance,
)
from demoselect.cli import main
from demoselect.pipeline import RunConfig, stage_eval, stage_infer, stage_prompt, stage_select

from geo_pool import POOL_ROWS, TEST_GOLD, TEST_UTTERANCE

README = Path(__file__).resolve().parents[1] / "README.md"

TEST_ROWS = [
    ("q1", TEST_UTTERANCE, TEST_GOLD),
    ("q2", "what states border texas", "answer (state (next_to_2 (stateid (string))))"),
    ("q3", "which rivers run through ohio", "answer (river (traverse_2 (stateid (string))))"),
]
# q3 has no beams, so beam-driven cover-ls falls back to cover-utt for it
BEAMS = {
    "q1": ["answer (state (traverse_1 (longest (river (all))))", "answer (river (all))"],
    "q2": ["answer (state (next_to_2 (stateid (string))))"],
}
K = 4


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


@pytest.fixture
def geo_index(tmp_path):
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    _write_jsonl(train, [{"id": i, "utterance": u, "program": p} for i, u, p in POOL_ROWS])
    _write_jsonl(
        test, [{"id": i, "utterance": u, "program": p, "split": "test"} for i, u, p in TEST_ROWS]
    )
    beams = tmp_path / "beams.jsonl"
    _write_jsonl(beams, [{"id": i, "beams": b} for i, b in BEAMS.items()])
    index = tmp_path / "index.json"
    assert main(["index", "--corpus", str(train), "--corpus", str(test), "--out", str(index)]) == 0
    return {"dir": tmp_path, "index": index, "beams": beams}


def _readme_snippet(n: int = 0) -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return section.split("```python\n")[n + 1].split("```", 1)[0]


def test_readme_library_snippet_runs_on_the_geo_pool(geo_index, monkeypatch):
    monkeypatch.chdir(geo_index["dir"])
    namespace = {}
    exec(_readme_snippet(), namespace)  # noqa: S102 - the README's own code
    bundle, chosen, prompt = namespace["bundle"], namespace["chosen"], namespace["prompt"]
    assert 0 < len(chosen.ids) <= 4 and set(chosen.ids) <= set(bundle.pool)
    assert prompt.demo_ids and set(prompt.demo_ids) <= set(chosen.ids)
    assert "which rivers run through ohio" in prompt.text


def test_readme_pool_snippet_indexes_its_examples():
    namespace = {}
    exec(_readme_snippet(1), namespace)  # noqa: S102 - the README's own code
    bundle, chosen = namespace["bundle"], namespace["chosen"]
    assert bundle.pool.ids == ["e1", "e2"]
    # "count" is held by e1 alone and "dogs" by e2 alone: one pick each
    assert chosen.ids == ["e1", "e2"] and not chosen.underfilled
    assert chosen.coverage_trace == [("count", "e1"), ("dogs", "e2")]


def _replay_select(strategy, beams_driven, bundle, example, scores, beams):
    """The selector calls of the benchmark's traced replay of ``run``."""
    pool = bundle.pool
    if strategy == "top-k":
        return select_top_k(pool, scores, K)
    if strategy == "random":
        return select_random(pool, K, seed=zlib.crc32(f"0:{example.id}".encode("utf-8")))
    if strategy == "dpp":
        return dpp_select(scores, bundle.tfidf, K, 200)
    if strategy == "cover-ls":
        if beams_driven:
            predicted = beams.get(example.id)
            elements = set(predicted.ls_union) if predicted else set()
        else:
            elements = oracle_elements(example.program, bundle.corpus.dialect)
        if elements:
            return cover_ls(elements, pool, scores, K, postings=bundle.ls_postings)
    return cover_utt(
        example.utterance,
        pool,
        scores,
        K,
        idf=bundle.bm25_utterance.idf,
        postings=bundle.token_postings,
    )


@pytest.mark.parametrize(
    "flags",
    [
        ["--strategy", "top-k"],
        ["--strategy", "random"],
        ["--strategy", "cover-ls", "--oracle"],
        ["--strategy", "cover-ls", "--predictions", "{beams}"],
        ["--strategy", "cover-utt"],
        ["--strategy", "dpp"],
    ],
    ids=lambda flags: " ".join(flags[1:]).replace("{beams}", "beams"),
)
def test_library_replay_equals_cli_selections(geo_index, flags):
    flags = [str(geo_index["beams"]) if f == "{beams}" else f for f in flags]
    out = geo_index["dir"] / "selections.jsonl"
    argv = ["select", "--index", str(geo_index["index"]), "--k", str(K), *flags, "--out", str(out)]
    assert main(argv) == 0
    bundle = IndexBundle.load(geo_index["index"])
    beams = load_predictions(geo_index["beams"], bundle.corpus.dialect)
    replayed = []
    for example in bundle.corpus.split("test"):
        scores = bundle.bm25_utterance.scores(tokenize_utterance(example.utterance))
        # the replay reads the scores as a mapping, values included
        assert len(scores) == len(bundle.pool) == len(list(scores.values()))
        assert sum(1 for v in scores.values() if v > 0) > 0
        result = _replay_select(flags[1], "--predictions" in flags, bundle, example, scores, beams)
        replayed.append(
            {
                "id": example.id,
                "strategy": result.strategy,
                "k": result.k,
                "items": [[i, s] for i, s in result.items],
                "coverage_trace": [[p, e] for p, e in result.coverage_trace],
                "underfilled": result.underfilled,
            }
        )
    written = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(written) == len(TEST_ROWS)
    assert replayed == written
    assert all(row["items"] for row in written)


# Per configuration: run's flags, and the RunConfig of the same run.
PIPELINE_CONFIGS = {
    "top-k": (["--strategy", "top-k"], {"strategy": "top-k"}),
    "cover-ls-oracle": (
        ["--strategy", "cover-ls", "--oracle"], {"strategy": "cover-ls", "oracle": True}
    ),
    "dpp": (["--strategy", "dpp"], {"strategy": "dpp"}),
    "train-mode": (
        ["--strategy", "cover-ls", "--train-mode"], {"strategy": "cover-ls", "train_mode": True}
    ),
}


def _jsonl(rows) -> bytes:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode("utf-8")


@pytest.mark.parametrize("config", sorted(PIPELINE_CONFIGS))
def test_pipeline_stages_write_what_run_writes(geo_index, config):
    flags, options = PIPELINE_CONFIGS[config]
    run_dir = geo_index["dir"] / "run"
    argv = ["run", "--index", str(geo_index["index"]), "--k", str(K), "--seed", "3", *flags]
    assert main([*argv, "--mock", "--workdir", str(run_dir)]) in (0, 1)

    bundle = IndexBundle.load(geo_index["index"])
    cfg = RunConfig(k=K, seed=3, mock=True, **options)
    tests = {example.id: example for example in bundle.corpus.split("test")}
    targets = bundle.pool if cfg.train_mode else tests
    selections = stage_select(bundle, targets, cfg, {})
    prompts = stage_prompt(bundle, targets, selections, cfg)
    files = {"selections.jsonl": _jsonl(selections), "prompts.jsonl": _jsonl(prompts)}
    if not cfg.train_mode:
        predictions = stage_infer(bundle, targets, prompts, cfg)
        report, _ = stage_eval(bundle, targets, prompts, predictions, cfg)
        files["predictions.jsonl"] = _jsonl(predictions)
        files["report.json"] = json.dumps(report, sort_keys=True, indent=2).encode("utf-8")
    assert len(selections) == len(targets) > 0
    for name, data in files.items():
        assert (run_dir / name).read_bytes() == data, name
    written = {path.name for path in run_dir.iterdir()} - {"records.jsonl"}
    assert written == set(files)


def test_readme_pipeline_snippet_reports_what_run_reports(geo_index, monkeypatch):
    monkeypatch.chdir(geo_index["dir"])
    namespace = {}
    exec(_readme_snippet(2), namespace)  # noqa: S102 - the README's own code
    argv = ["run", "--index", "index.json", "--strategy", "cover-ls", "--oracle", "--k", "4"]
    assert main([*argv, "--mock", "--workdir", "run"]) in (0, 1)
    report = json.loads((geo_index["dir"] / "run" / "report.json").read_text(encoding="utf-8"))
    assert namespace["report"] == report
    assert report["count"] == len(TEST_ROWS)

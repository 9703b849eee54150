"""`run --mock` over small random corpora and configurations: its outputs
keep the benchmark's invariants (see ``helpers.run_failures``), and they are
byte for byte those of the chained select, prompt, infer and eval commands."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from demoselect import GenerationError, gen_fixture, write_fixture
from demoselect.cli import ORDERS, STRATEGIES, main
from demoselect.retrieval import RETRIEVER_VARIANTS

from helpers import run_failures

RUN_FILES = ("selections.jsonl", "prompts.jsonl", "predictions.jsonl", "report.json")


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("run-properties")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _config_flags(data, beams: Path):
    """Drawn flags: the shared ones, the pool's and the prompt's."""
    shared = [
        "--strategy", data.draw(st.sampled_from(STRATEGIES)),
        "--seed", str(data.draw(st.integers(0, 3))),
    ]
    pool = ["--retriever", data.draw(st.sampled_from(RETRIEVER_VARIANTS))]
    if data.draw(st.booleans()):
        pool.append("--oracle")
    else:
        pool += ["--predictions", str(beams)]
        beam_limit = data.draw(st.none() | st.integers(1, 3))
        if beam_limit is not None:
            pool += ["--beam-limit", str(beam_limit)]
    train_mode = data.draw(st.sampled_from([False, False, True]))
    if train_mode:
        pool.append("--train-mode")
    prompt = ["--order", data.draw(st.sampled_from(ORDERS))]
    if data.draw(st.booleans()):
        prompt.append("--programs-only")
    budget = data.draw(st.none() | st.integers(60, 600))  # every test block fits in 60
    if budget is not None:
        prompt += ["--budget", str(budget)]
    return shared, pool, prompt, train_mode


@settings(max_examples=45, deadline=None, derandomize=True)
@given(
    split=st.sampled_from(["held-out-ls", "template", "iid"]),
    seed=st.integers(0, 1_000),
    n_train=st.integers(4, 100),
    n_test=st.integers(1, 20),
    data=st.data(),
)
def test_run_keeps_the_bench_invariants_and_equals_the_stages(
    root, split, seed, n_train, n_test, data
):
    try:
        fixture = gen_fixture(n_train=n_train, n_test=n_test, split=split, seed=seed)
    except GenerationError:
        reject()
    work = Path(tempfile.mkdtemp(dir=root))
    paths = write_fixture(fixture, work / "fixture")
    # the training lines in a drawn order, the test file maybe indexed
    # first: the index orders its pool itself
    lines = paths["train"].read_text(encoding="utf-8").splitlines()
    _write_lines(paths["train"], data.draw(st.permutations(lines)))
    corpora = [paths["train"], paths["test"]]
    if data.draw(st.booleans()):
        corpora.reverse()
    index = work / "index.json"
    argv = [arg for path in corpora for arg in ("--corpus", str(path))]
    assert main(["index", *argv, "--out", str(index)]) == 0

    train = {ex.id: ex.program for ex in fixture.corpus.split("train")}
    tests = {ex.id: ex.program for ex in fixture.corpus.split("test")}
    beams = work / "beams.jsonl"
    pool_programs = list(train.values())
    _write_lines(
        beams,
        [
            json.dumps({"id": i, "beams": [gold + ")", pool_programs[n % len(pool_programs)]]})
            for n, (i, gold) in enumerate(tests.items())
        ],
    )
    k = data.draw(st.integers(1, n_train + 3))
    shared, pool, prompt, train_mode = _config_flags(data, beams)
    shared = ["--index", str(index), "--k", str(k), *shared]
    if data.draw(st.booleans()):
        shared += ["--test", str(paths["test"])]

    run_dir = work / "run"
    assert main(["run", *shared, *pool, *prompt, "--mock", "--workdir", str(run_dir)]) in (0, 1)
    targets = dict(sorted(train.items())) if train_mode else tests
    assert run_failures(run_dir, targets, k, train, train_mode) == []

    staged = work / "staged"
    staged.mkdir()
    sel, prm, pred, report = (str(staged / name) for name in RUN_FILES)
    codes = [
        main(["select", *shared, *pool, "--out", sel]),
        main(["prompt", *shared, *pool, *prompt, "--selections", sel, "--out", prm]),
    ]
    names = RUN_FILES[:2]
    if not train_mode:
        codes.append(main(["infer", *shared, "--mock", "--prompts", prm, "--out", pred]))
        codes.append(
            main(["eval", *shared, "--prompts", prm, "--predictions", pred, "--out", report])
        )
        names = RUN_FILES
    assert all(code in (0, 1) for code in codes), codes
    for name in names:
        assert (run_dir / name).read_bytes() == (staged / name).read_bytes(), name

"""`run --mock` over small random corpora and configurations: its outputs
keep the benchmark's invariants (see ``helpers.run_failures``), and they are
byte for byte those of the chained select, prompt, infer and eval commands.
The mock and eval stages, which read demonstrations as pool rows of structure
codes, equal the mock and the scoring over program text."""

from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from demoselect import (
    Corpus,
    GenerationError,
    MockOracleConfig,
    ParseError,
    build_indexes,
    evaluate_record,
    gen_fixture,
    make_example,
    mock_complete,
    write_fixture,
)
from demoselect.cli import ORDERS, STRATEGIES, main
from demoselect.pipeline import RunConfig, stage_eval, stage_infer
from demoselect.retrieval import RETRIEVER_VARIANTS
from demoselect.structures import read_structures

from helpers import random_program, run_failures

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


def _examples(rng: random.Random, prefix: str, n: int, split: str, head: str = "") -> list:
    """``n`` examples of random programs that parse, each under ``head`` if given."""
    examples = []
    while len(examples) < n:
        program = random_program(rng)
        program = f"{head} ({program})" if head else program
        try:
            examples.append(make_example(f"{prefix}{len(examples):02d}", "u", program, split))
        except ParseError:
            continue
    return examples


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10_000),
    n_pool=st.integers(1, 12),
    n_test=st.integers(1, 6),
    threshold=st.integers(1, 4),
    data=st.data(),
)
def test_mock_and_eval_stages_equal_the_text_forms(seed, n_pool, n_test, threshold, data):
    rng = random.Random(seed)
    pool = _examples(rng, "p", n_pool, "train")
    # the first test program's head symbol, and so its structures through it,
    # are held by no pool example
    tests = _examples(rng, "t", 1, "test", head="novel") + _examples(rng, "u", n_test, "test")
    bundle = build_indexes(Corpus(examples=pool))
    assert "novel" not in bundle.vocab
    programs = {ex.id: ex.program for ex in pool}
    targets = {ex.id: ex for ex in tests}
    demo_ids = st.lists(st.sampled_from(bundle.pool.ids), max_size=5)
    prompts = [{"id": ex.id, "prompt": "", "demo_ids": data.draw(demo_ids)} for ex in tests]
    cfg = RunConfig(mock=True, mock_threshold=threshold)

    predictions = stage_infer(bundle, targets, prompts, cfg)
    mock = MockOracleConfig(compose_threshold_size=threshold)
    for row, prompt in zip(predictions, prompts):
        demos = [programs[i] for i in prompt["demo_ids"]]
        gold = targets[prompt["id"]].program
        assert row == {"id": prompt["id"], "prediction": mock_complete(demos, gold, mock)}

    # right and wrong predictions: the mock's, the gold's, other programs,
    # and text that does not parse
    for row in predictions:
        gold = targets[row["id"]].program
        others = [gold, " ".join(gold.split(" ")[::-1]), random_program(rng), gold + " )", "f (g"]
        row["prediction"] = data.draw(st.sampled_from([row["prediction"], *others]))
    predictions[0]["prediction"] = "novel (f)"  # always one wrong prediction
    report, records = stage_eval(bundle, targets, prompts, predictions, cfg)
    union = bundle.training_ls_union()
    assert report["count"] == len(records) == len(tests)
    for record, row, prompt in zip(records, predictions, prompts):
        demos = [programs[i] for i in prompt["demo_ids"]]
        gold = targets[row["id"]].program
        expected = evaluate_record(
            row["id"],
            row["prediction"],
            gold,
            demos,
            [set(read_structures(p).counts) for p in demos],
            set(read_structures(gold).counts),
            union,
            strategy=cfg.strategy,
        )
        assert record.to_dict() == expected.to_dict()


def test_the_mock_decodes_only_the_program_it_returns(monkeypatch):
    fixture = gen_fixture(n_train=60, n_test=12, split="held-out-ls", seed=7)
    bundle = build_indexes(fixture.corpus)
    programs = bundle.records["program"]
    column = type(programs)
    decode, decoded = column.__getitem__, []

    def counted(self, r):
        if self is programs:
            decoded.append(r)
        return decode(self, r)

    monkeypatch.setattr(column, "__getitem__", counted)
    targets = {ex.id: ex for ex in fixture.corpus.split("test")}
    rng = random.Random(3)
    prompts = [
        {"id": i, "prompt": "", "demo_ids": rng.sample(bundle.pool.ids, 6)} for i in targets
    ]
    predictions = stage_infer(bundle, targets, prompts, RunConfig(mock=True))
    # one program decoded for each prediction that copies a demonstration
    copies = [row for row in predictions if row["prediction"] != targets[row["id"]].program]
    assert copies
    assert [decode(programs, r) for r in decoded] == [row["prediction"] for row in copies]

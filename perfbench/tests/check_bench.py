"""The benchmark's own tests. Run them from the repository root::

    python3 -m pytest perfbench/tests/check_bench.py

The file name keeps them out of the package's default pytest collection:
the smoke runs start the stub server and take about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import WORK, cli, import_package, prepare_inputs, read_jsonl, write_jsonl  # noqa: E402

import_package()

from checks import Pool, check_infer, check_run  # noqa: E402
from workloads import WORKLOADS, run_argv  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


def test_benchmark_file_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer") for m in SPEC[key])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = result_of(
        run_bench("--workload", workload, "--seed", "1", "--seconds", "0.5",
                  "--trace", "0", "--size", "tiny")
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_prints_every_per_layer_metric():
    result = result_of(
        run_bench("--workload", "pool-3k-k8", "--seed", "1", "--seconds", "0.5",
                  "--trace", "1", "--size", "tiny")
    )
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units(SPEC["per_layer"])
    # the stub's injected 429s and the client's retries agree exactly
    metrics = result["metrics"]
    assert metrics["gateway.retries_per_request"]["value"] > 0


def test_run_without_package_sources_fails_without_a_result():
    bare = WORK / "tests" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench("--workload", "pool-3k-k8", "--seed", "1", "--seconds", "1", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def cover_run():
    """A clean tiny cover-ls run: (work directory, its queries, the pool)."""
    wl = WORKLOADS["pool-3k-k8"]
    config = next(c for c in wl.configs if c.name == "cover-ls-oracle")
    inputs = prepare_inputs(wl.split, 1, "tiny")
    workdir = WORK / "tests" / "cover-run"
    shutil.rmtree(workdir, ignore_errors=True)
    assert cli(run_argv(inputs, wl, config, 0, workdir)) in (0, 1)
    return workdir, read_jsonl(inputs.chunk(0)), Pool(read_jsonl(inputs.train)), wl.k


def corrupted(cover_run, name: str, edit) -> Path:
    workdir = cover_run[0]
    copy = workdir.with_name("corrupted")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(workdir, copy)
    rows = read_jsonl(copy / name)
    edit(rows[0])
    write_jsonl(copy / name, rows)
    return copy


def test_clean_run_passes_the_checks(cover_run):
    workdir, tests, pool, k = cover_run
    assert check_run(workdir, tests, k, pool) == set()


def test_corrupted_prediction_counts_as_a_failure(cover_run):
    _, tests, pool, k = cover_run
    copy = corrupted(cover_run, "predictions.jsonl", lambda row: row.update(prediction="count (find (unicorn))"))
    assert tests[0]["id"] in check_run(copy, tests, k, pool)


def test_repeated_demo_counts_as_a_failure(cover_run):
    _, tests, pool, k = cover_run

    def repeat_first(row):
        row["items"] = [row["items"][0], row["items"][0]]
        row["underfilled"] = True

    copy = corrupted(cover_run, "selections.jsonl", repeat_first)
    assert tests[0]["id"] in check_run(copy, tests, k, pool)


def test_endpoint_check_wants_the_trimmed_stub_reply():
    rows = [{"id": "q1", "prompt": "source: a dog\ntarget: find (dog)\nsource: a cat\ntarget:"}]
    path = WORK / "tests" / "predictions.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(path, [{"id": "q1", "prediction": "find (dog)"}])
    assert check_infer(path, rows) == set()
    write_jsonl(path, [{"id": "q1", "prediction": "find (dog)\nsource: the model"}])
    assert check_infer(path, rows) == {"q1"}

"""Paths, sizes, seeded inputs and small helpers shared by the workloads.

Every input is generated from the workload seed before any timing starts,
in child processes, and cached under ``perfbench/.work/inputs``. The cache
key holds the split, the size, the seed and a digest of the package
sources and of this file, so a changed program or generator never reuses a
stale corpus or index. The
content digest of the generated files is printed with every result: if
the generator changes, the inputs digest changes with it and the run is a
different workload, not a speed change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Index loads timed for setup_s (their median): one per measured cycle,
# and at least this many.
SETUP_MIN_LOADS = 5
# Child-process ceiling for one set-up step (generation, indexing).
SETUP_TIMEOUT_S = 600
# Exit code given to a CLI call that raised instead of returning.
CRASHED = 70
# Fallback seeds tried when a split cannot be generated for a seed.
GENERATION_ATTEMPTS = 5


class BenchError(RuntimeError):
    """The benchmark itself cannot run: missing sources or failed set-up."""


@dataclass(frozen=True)
class CorpusSize:
    split: str
    n_train: int
    chunk: int  # test queries per `run` call
    chunks: int  # distinct query chunks; measured cycles wrap around them

    @property
    def n_test(self) -> int:
        return self.chunk * self.chunks


SIZES = {
    "full": {
        "template": CorpusSize("template", 3000, 24, 8),
        "held-out-ls": CorpusSize("held-out-ls", 1000, 16, 8),
    },
    # Smoke-test size: every code path, seconds per workload.
    "tiny": {
        "template": CorpusSize("template", 120, 4, 2),
        "held-out-ls": CorpusSize("held-out-ls", 80, 4, 2),
    },
}


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def source_digest() -> str:
    """Digest of the package sources and of this input generator: part of
    every cache key."""
    files = sorted((SRC / "demoselect").rglob("*.py"))
    if not files:
        raise BenchError(f"no package sources under {SRC}")
    h = hashlib.sha256(Path(__file__).read_bytes())
    for path in files:
        h.update(str(path.relative_to(SRC)).encode("utf-8"))
        h.update(path.read_bytes())
    return h.hexdigest()


def import_package():
    """Import ``demoselect`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "demoselect" / "__init__.py").is_file():
        raise BenchError(f"package sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import demoselect

    if Path(demoselect.__file__).resolve().parent != (SRC / "demoselect").resolve():
        raise BenchError(f"imported demoselect from {demoselect.__file__}, not {SRC}")
    return demoselect


def cli(argv) -> int:
    """Call the public CLI in-process, with its console output swallowed.

    An exception escaping the CLI is printed and returned as exit code
    CRASHED, so the command's operations count as failed.
    """
    from demoselect.cli import main

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code if isinstance(exc.code, int) else CRASHED
    except Exception:  # noqa: BLE001 - a crash is a failed operation
        traceback.print_exc()
        return CRASHED


def cli_subprocess(argv) -> None:
    """Run one CLI command in a child process (set-up work, untimed)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("DEMOSELECT_BASE_URL", None)
    env.pop("DEMOSELECT_API_KEY", None)
    proc = subprocess.run(
        [sys.executable, "-m", "demoselect.cli", *[str(a) for a in argv]],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up step {argv[0]} failed: {proc.stderr.strip()}")


def read_jsonl(path: Path) -> list[dict]:
    return [
        json.loads(line)
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def write_jsonl(path: Path, rows: list[dict]) -> None:
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    Path(path).write_text(text, encoding="utf-8")


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values, q: float):
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- seeded inputs ---------------------------------------------------------


@dataclass(frozen=True)
class Inputs:
    """One generated corpus: pool, query chunks, beams and the pool index."""

    dir: Path
    size: CorpusSize
    digest: str

    @property
    def train(self) -> Path:
        return self.dir / "train.jsonl"

    @property
    def test(self) -> Path:
        return self.dir / "test.jsonl"

    @property
    def index(self) -> Path:
        return self.dir / "index.json"

    def chunk(self, i: int) -> Path:
        return self.dir / f"test-{i:02d}.jsonl"

    def beams(self, i: int) -> Path:
        return self.dir / f"beams-{i:02d}.jsonl"


def _beam_rows(tests: list[dict], train: list[dict], seed: int) -> list[dict]:
    """A few beams per test: the gold program missing its trailing
    parenthesis (repairable) and two programs drawn from the pool."""
    rng = random.Random(f"beams:{seed}")
    rows = []
    for test in tests:
        beams = [test["program"][:-1]] + [
            rng.choice(train)["program"] for _ in range(2)
        ]
        rng.shuffle(beams)
        rows.append({"id": test["id"], "beams": beams})
    return rows


def _generate(size: CorpusSize, seed: int, out: Path) -> None:
    last_error = None
    for attempt in range(GENERATION_ATTEMPTS):
        try:
            cli_subprocess(
                [
                    "gen-fixture",
                    "--out-dir", out,
                    "--n-train", size.n_train,
                    "--n-test", size.n_test,
                    "--split", size.split,
                    "--seed", seed + 1_000_003 * attempt,
                ]
            )
            return
        except BenchError as exc:
            last_error = exc
    raise BenchError(f"cannot generate {size.split} corpus for seed {seed}: {last_error}")


def prepare_inputs(split: str, seed: int, size_name: str) -> Inputs:
    """Generate (or reuse) the corpus for ``split`` at ``seed`` and index its pool."""
    size = SIZES[size_name][split]
    key = f"{split}-{size_name}-seed{seed}-{source_digest()[:16]}"
    final = WORK / "inputs" / key
    done = final / "DONE"
    if done.is_file():
        return Inputs(final, size, done.read_text(encoding="utf-8").strip())
    tmp = final.with_name(key + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    _generate(size, seed, tmp)
    tests = read_jsonl(tmp / "test.jsonl")
    train = read_jsonl(tmp / "train.jsonl")
    for i in range(size.chunks):
        part = tests[i * size.chunk:(i + 1) * size.chunk]
        write_jsonl(tmp / f"test-{i:02d}.jsonl", part)
        if split == "held-out-ls":
            write_jsonl(tmp / f"beams-{i:02d}.jsonl", _beam_rows(part, train, seed))
    h = hashlib.sha256()
    for path in sorted(tmp.iterdir()):
        h.update(path.name.encode("utf-8"))
        h.update(path.read_bytes())
    digest = h.hexdigest()
    cli_subprocess(["index", "--corpus", tmp / "train.jsonl", "--out", tmp / "index.json"])
    (tmp / "DONE").write_text(digest + "\n", encoding="utf-8")
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return Inputs(final, size, digest)


def fresh_dir(*parts: str) -> Path:
    path = WORK.joinpath("runs", *parts)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path

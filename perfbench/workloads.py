"""The workloads, measured with tracing off.

Each workload drives the public CLI (``demoselect.cli.main``) in-process in
a closed loop: one command at a time, the next one only after the previous
one returned. A cycle is one command per configuration over the next query
chunk; cycles repeat until the commands' own wall time reaches the
requested seconds. Outputs are checked after each command, outside the
timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from checks import Pool, check_run
from common import (
    SETUP_MIN_LOADS,
    Inputs,
    cli,
    file_digest,
    fresh_dir,
    median,
    peak_rss_mib,
    prepare_inputs,
    read_jsonl,
)

RUN_OUTPUTS = ("selections.jsonl", "prompts.jsonl", "predictions.jsonl", "report.json")

# Token budget for the beam-driven Cover-LS configuration of pool-1k-k24:
# it truncates some 24-demonstration prompts but not all.
PROMPT_BUDGET = 960


@dataclass(frozen=True)
class Config:
    """One `run` configuration of a query workload."""

    name: str
    strategy: str
    oracle: bool = False  # cover the gold program's own structures
    beams: bool = False  # cover the structures of seeded beam candidates
    budget: int | None = None

    def select_argv(self, inputs: Inputs, chunk: int) -> list:
        argv = ["--strategy", self.strategy, "--retriever", "bm25-utterance"]
        if self.oracle:
            argv.append("--oracle")
        if self.beams:
            argv += ["--predictions", inputs.beams(chunk)]
        return argv

    def prompt_argv(self) -> list:
        return [] if self.budget is None else ["--budget", self.budget]


@dataclass(frozen=True)
class PoolWorkload:
    split: str
    k: int
    configs: tuple[Config, ...]


WORKLOADS = {
    "pool-3k-k8": PoolWorkload(
        split="template",
        k=8,
        configs=(
            Config("top-k", "top-k"),
            Config("random", "random"),
            Config("cover-ls-oracle", "cover-ls", oracle=True),
            Config("cover-utt", "cover-utt"),
        ),
    ),
    "pool-1k-k24": PoolWorkload(
        split="held-out-ls",
        k=24,
        configs=(
            Config("dpp", "dpp"),
            Config("cover-ls-beams", "cover-ls", beams=True, budget=PROMPT_BUDGET),
        ),
    ),
}


@dataclass
class Outcome:
    """What one workload run reports."""

    inputs_digest: str
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    # Output digests of the first cycle: group -> file -> sha256.
    digests: dict = field(default_factory=dict)
    # Operations each digest group covers, failed if its digests mismatch.
    digest_ops: dict = field(default_factory=dict)


def time_index_load(path) -> float:
    """Wall time of one ``IndexBundle.load(path)``."""
    from demoselect.corpus import IndexBundle

    start = perf_counter()
    bundle = IndexBundle.load(path)
    elapsed = perf_counter() - start
    del bundle
    return elapsed


class Meter:
    """Closed-loop throughput: items and busy seconds per measured cycle."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.cycles: list[tuple[int, float]] = []

    def running(self) -> bool:
        return not self.cycles or sum(t for _, t in self.cycles) < self.seconds

    def add(self, items: int, busy: float) -> None:
        self.cycles.append((items, busy))

    def items_per_s(self) -> float:
        """Median of the cycles' rates, so a burst of machine noise in one
        cycle does not move the result."""
        return median([items / busy for items, busy in self.cycles])


def run_argv(inputs: Inputs, wl: PoolWorkload, config: Config, chunk: int, workdir):
    return [
        "run",
        "--index", inputs.index,
        "--test", inputs.chunk(chunk),
        "--workdir", workdir,
        "--mock",
        "--k", wl.k,
        *config.select_argv(inputs, chunk),
        *config.prompt_argv(),
    ]


def _end_to_end(setup_times, meter: Meter) -> dict:
    return {
        "setup_s": (median(setup_times), "s"),
        "items_per_s": (meter.items_per_s(), "items/s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }


def run_workload(name: str, seed: int, seconds: float, size: str) -> Outcome:
    wl = WORKLOADS[name]
    inputs = prepare_inputs(wl.split, seed, size)
    pool = Pool(read_jsonl(inputs.train))
    chunks = [read_jsonl(inputs.chunk(i)) for i in range(inputs.size.chunks)]
    out = Outcome(inputs.digest)
    # Set-up loads are spread over the run, one before each cycle, so that
    # setup_s sees the same machine as items_per_s.
    setup = []
    meter = Meter(seconds)
    while meter.running():
        setup.append(time_index_load(inputs.index))
        cycle = len(meter.cycles)
        tests = chunks[cycle % len(chunks)]
        busy = 0.0
        for config in wl.configs:
            workdir = fresh_dir(name, config.name)
            argv = run_argv(inputs, wl, config, cycle % len(chunks), workdir)
            start = perf_counter()
            code = cli(argv)
            busy += perf_counter() - start
            # exit 1 means "some predictions are wrong", a normal mock outcome
            failed = (
                check_run(workdir, tests, wl.k, pool) if code in (0, 1) else {t["id"] for t in tests}
            )
            out.attempted += len(tests)
            out.failed += len(failed)
            if cycle == 0:
                out.digests[config.name] = {
                    f: file_digest(workdir / f) for f in RUN_OUTPUTS if (workdir / f).exists()
                }
                out.digest_ops[config.name] = len(tests)
        meter.add(len(tests) * len(wl.configs), busy)
    while len(setup) < SETUP_MIN_LOADS:
        setup.append(time_index_load(inputs.index))
    out.metrics = _end_to_end(setup, meter)
    return out


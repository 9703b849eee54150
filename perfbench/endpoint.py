"""The endpoint flow of the traced run: its prompts and the stub server.

`demoselect infer --jobs 2` without ``--mock`` runs against
``stub_server.py``, a local completion server in its own process. Only
here does the package's HTTP client work: one connection per request, the
429 retry and backoff path, ``--jobs`` threading.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import urllib.request

from common import HERE, BenchError, Inputs, cli_subprocess

# 2 client threads, one per core of the 2-core virtual machine the
# benchmark was sized on.
ENDPOINT_JOBS = 2
# Prompts rate-limited (429 once) per pass over the endpoint prompts. They
# are drawn from the first quarter of the file, so the client's backoff
# sleep overlaps the other thread's work instead of idling at the tail.
REJECTS_PER_PASS = 2


def endpoint_prompts(inputs: Inputs):
    """Top-k prompts (k=24) for every test query of the pool-1k-k24 corpus."""
    path = inputs.dir / "endpoint-prompts.jsonl"
    if not path.exists():
        selections = inputs.dir / "endpoint-selections.jsonl"
        common = ["--index", inputs.index, "--test", inputs.test]
        cli_subprocess(["select", *common, "--strategy", "top-k", "--k", 24, "--out", selections])
        tmp = path.with_suffix(".tmp")
        cli_subprocess(["prompt", *common, "--selections", selections, "--out", tmp])
        tmp.rename(path)
    return path


def write_reject_file(rows: list[dict], seed: int, path) -> list[str]:
    """Pick the seeded rate-limited prompts; write their digests to ``path``."""
    from stub_server import prompt_digest

    texts = [row["prompt"] for row in rows]
    unique = [t for t in texts[: max(1, len(texts) // 4)] if texts.count(t) == 1]
    rng = random.Random(f"rejects:{seed}")
    chosen = rng.sample(unique, min(REJECTS_PER_PASS, len(unique)))
    digests = sorted(prompt_digest(t) for t in chosen)
    path.write_text("".join(d + "\n" for d in digests), encoding="utf-8")
    return digests


class StubProcess:
    """The stub completion server, as a child process for one traced run."""

    def __init__(self, reject_file):
        self.reject_file = reject_file

    def __enter__(self):
        # the in-process client must reach the stub directly, never through
        # a proxy configured in the environment
        os.environ["NO_PROXY"] = "127.0.0.1,localhost"
        os.environ["no_proxy"] = "127.0.0.1,localhost"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub_server.py"), "--reject-file", str(self.reject_file)],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.__exit__(None, None, None)
            raise BenchError("stub server did not start")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.url = self.base + "/v1/completions"
        return self

    def stats(self) -> dict:
        with urllib.request.urlopen(self.base + "/stats", timeout=10) as response:
            return json.loads(response.read())

    def __exit__(self, *exc):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def infer_argv(inputs: Inputs, prompts, out_path, url):
    return [
        "infer",
        "--index", inputs.index,
        "--prompts", prompts,
        "--out", out_path,
        "--base-url", url,
        "--model", "stub",
        "--jobs", ENDPOINT_JOBS,
    ]

#!/usr/bin/env python3
"""Record the reference output digests for the default seeds.

    python3 perfbench/record_reference.py

Runs one measured cycle of every workload at each default seed and writes
``reference_digests.json`` beside this file: the inputs digest and the
digests of the outputs (selections, prompts, predictions, report, index
file). ``run.py`` compares against them on these seeds. Record them only at
a commit whose outputs are known to be right, and only when a change is
meant to alter the outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEEDS = (1, 2, 3)


def digests_of(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = proc.stdout.splitlines()
    inputs = next(line for line in lines if line.startswith("inputs ")).split()[-1]
    outputs = json.loads(next(line for line in lines if line.startswith("digests "))[8:])
    return {"inputs": inputs, "outputs": outputs}


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    reference = {
        workload: {str(seed): digests_of(workload, seed) for seed in DEFAULT_SEEDS}
        for workload in WORKLOADS
    }
    (HERE / "reference_digests.json").write_text(
        json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

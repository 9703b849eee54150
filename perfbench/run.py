#!/usr/bin/env python3
"""demoselect benchmark.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload pool-3k-k8 --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload with tracing off and prints the
end-to-end metrics. ``--trace 1`` runs the traced replay instead and prints
the per-layer metrics. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import HERE, SIZES, BenchError, import_package  # noqa: E402

REFERENCE = HERE / "reference_digests.json"


def compare_reference(workload: str, seed: int, outcome) -> int:
    """Failed operations from output digests that differ from the reference
    recorded for this seed. A different inputs digest means the generator
    changed: the run is then a different workload and nothing is compared."""
    if not REFERENCE.exists():
        return 0
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})
    expected = reference.get(str(seed))
    if expected is None:
        return 0
    if expected["inputs"] != outcome.inputs_digest:
        print(f"note: inputs differ from the reference for seed {seed}: a different workload")
        return 0
    failed = 0
    for group, files in outcome.digests.items():
        if files != expected["outputs"].get(group):
            print(f"digest mismatch: {workload} seed {seed} {group}")
            failed += outcome.digest_ops[group]
    return failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description="demoselect benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
        from workloads import WORKLOADS, run_workload

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of {tuple(WORKLOADS)}")
        if args.trace:
            from tracing import run_traced

            outcome = run_traced(args.seed, args.size)
        else:
            outcome = run_workload(args.workload, args.seed, args.seconds, args.size)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"inputs {args.workload} seed {args.seed} sha256 {outcome.inputs_digest}")
    print("digests " + json.dumps(outcome.digests, sort_keys=True))
    failed = outcome.failed
    if args.size == "full" and not args.trace:
        failed = min(outcome.attempted, failed + compare_reference(args.workload, args.seed, outcome))
    result = {
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

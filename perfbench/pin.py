#!/usr/bin/env python3
"""Regenerate pins.json: the sha256 of the cocycle and verify reports.

    python3 perfbench/pin.py 0 1 2

Runs both commands once per workload and seed.  A digest is pinned only when
its report passed the exit-code check and the fractions oracle.  Regenerate
only when a change of report bytes is intended; the benchmark counts every
invocation whose report differs from a pin as failed.
"""

from __future__ import annotations

import json
import sys
import time

from run import DEADLINE_S, PINS, WORKLOADS, Bench


def main() -> int:
    pins = json.loads(PINS.read_text())
    for seed in (int(arg) for arg in sys.argv[1:]):
        for workload in WORKLOADS:
            bench = Bench(workload, seed, 0, time.monotonic() + DEADLINE_S)
            bench.pins = None
            bench.setup()
            if bench.failed:
                print(f"seed {seed} {workload}: not pinned: {bench.problems}", file=sys.stderr)
                return 1
            pins.setdefault(str(seed), {})[workload] = {
                cmd: digest for cmd, (digest, _) in bench.reference.items()
            }
            print(f"seed {seed} {workload}: pinned", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

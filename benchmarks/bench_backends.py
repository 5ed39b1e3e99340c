#!/usr/bin/env python3
"""Benchmark the compiled (gmp) scalar backend against the pure-Python one.

The package's inner loops are exact arithmetic: forward elimination on
integer rows with back-substitution, normal-system accumulation on integer
numerators over a common denominator, and cocycle assembly.  This script
times representative workloads under each backend in separate subprocesses
(the backend is fixed at import time) and prints a comparison table:

* ``solve_8x8``: six seeded 8x8 rational matrices, each inverted by one
  ``solve_square`` call against its 8 unit right-hand sides, so one
  elimination per matrix, every solution checked by ``matvec``;
* ``cocycle_60pt``: ``build_zero_cocycle`` on 60 points and three charts.

Usage: python benchmarks/bench_backends.py [--repeat 5]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

WORKER = """\
import json
import random
import time
from fractions import Fraction

import lsglue as lg
from lsglue.assembly import build_zero_cocycle
from lsglue.scalars import BACKEND


def bench(fn, repeat):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def random_matrix(rng, n, span=999):
    return lg.Matrix.of(
        [
            [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def workload_solve():
    rng = random.Random(12345)
    mats = [random_matrix(rng, 8) for _ in range(6)]
    units = [lg.Vector.of([int(i == k) for i in range(8)]) for k in range(8)]

    def run():
        for m in mats:
            for e_k, x in zip(units, lg.solve_square(m, *units)):
                assert m.matvec(x) == e_k

    return run


def workload_cocycle():
    rng = random.Random(54321)
    points = [
        (Fraction(i) + Fraction(rng.randint(0, 999), 1000),
         Fraction(rng.randint(-500, 500), rng.randint(1, 50)))
        for i in range(60)
    ]
    data = lg.WeightedDataSet.of(points)
    cover = lg.Cover.of(
        data,
        [
            ("U1", list(range(1, 36))),
            ("U2", list(range(20, 51))),
            ("U3", list(range(33, 61))),
        ],
    )
    features = lg.affine_features(1)

    def run():
        _, report = build_zero_cocycle(cover, features)
        assert all(check.residual_zero for check in report.pairs.values())

    return run


repeat = int(json.loads(input()))
results = {
    "backend": BACKEND,
    "solve_8x8": bench(workload_solve(), repeat),
    "cocycle_60pt": bench(workload_cocycle(), repeat),
}
print(json.dumps(results))
"""


def run_worker(backend: str, repeat: int) -> dict:
    env = dict(os.environ, LSGLUE_BACKEND=backend)
    out = subprocess.run(
        [sys.executable, "-c", WORKER],
        input=json.dumps(repeat),
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5, help="best-of repetitions")
    args = parser.parse_args()

    rows = []
    for backend in ("fractions", "gmp"):
        try:
            rows.append(run_worker(backend, args.repeat))
        except subprocess.CalledProcessError as err:
            print(f"backend {backend} unavailable: {err.stderr.strip()}", file=sys.stderr)
    if not rows:
        return 1

    keys = [k for k in rows[0] if k != "backend"]
    header = f"{'workload':<16}" + "".join(f"{row['backend']:>14}" for row in rows)
    print(header)
    print("-" * len(header))
    for key in keys:
        line = f"{key:<16}"
        for row in rows:
            line += f"{row[key] * 1000:>12.2f}ms"
        if len(rows) == 2 and rows[1][key] > 0:
            line += f"   x{rows[0][key] / rows[1][key]:.1f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

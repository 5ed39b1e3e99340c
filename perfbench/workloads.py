"""Seeded input generator for the benchmark workloads.

Every workload is an interval cover along x1: the points are sorted by x1 and
cut into k blocks of s = m/k points, and chart j is the union of blocks
j-1, j and j+1.  So every point lies in 2 or 3 charts, every triple overlap
(j, j+1, j+2) is block j+1 with s >= 2n points (no cell is singular), and no
four charts meet.  The program only ever sees the JSON files written here.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

QUADRATIC_3D = [
    [a, b, c]
    for a in range(3)
    for b in range(3)
    for c in range(3)
    if a + b + c <= 2
]

# name -> (points m, ambient dim, exponents or None for affine, charts k,
#          exact y, bound on |numerator| and on denominator of x_2.. x_N)
# quad_3d draws wider coordinates than glue_exact: its fits are the bit-size
# workload (a ~2.3 MB report), while glue_exact is about the exact-glue path.
WORKLOADS = {
    "wide_nerve": (2000, 1, None, 200, False, None),
    "quad_3d": (400, 3, QUADRATIC_3D, 10, False, (999, 32)),
    "glue_exact": (240, 3, QUADRATIC_3D, 6, True, (99, 16)),
}

# Pinned (cocycle, verify) exit codes.  On the obstructed covers `verify`
# exits 4 although the report is an honest record of the obstruction; that is
# the behaviour observed at the time the benchmark was written, not a goal.
EXIT_CODES = {
    "wide_nerve": {"cocycle": 3, "verify": 4},
    "quad_3d": {"cocycle": 3, "verify": 4},
    "glue_exact": {"cocycle": 0, "verify": 0},
}

# y = q(x) on glue_exact: a fixed quadratic with one coefficient per monomial
GLUE_COEFFS = [Fraction(c, 7) for c in (3, -2, 5, 1, -4, 2, 6, -1, 3, -5)]


def _monomial(x, exps) -> Fraction:
    term = Fraction(1)
    for coord, e in zip(x, exps):
        term *= coord**e
    return term


def generate(name: str, seed: int) -> dict:
    """Dataset, cover and model documents for one workload and seed."""
    m, dim, exponents, k, exact, bounds = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    points = []
    for i in range(m):
        x = [Fraction(i) + Fraction(rng.randint(1, 63), 64)]
        x += [
            Fraction(rng.randint(-bounds[0], bounds[0]), rng.randint(1, bounds[1]))
            for _ in range(dim - 1)
        ]
        if exact:
            y = sum(c * _monomial(x, e) for c, e in zip(GLUE_COEFFS, exponents))
        else:
            y = Fraction(rng.randint(-999, 999), rng.randint(1, 32))
        w = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        points.append({"x": [str(v) for v in x], "y": str(y), "weight": str(w)})
    s = m // k
    charts = []
    for j in range(k):
        lo, hi = max(0, (j - 1) * s), min(m, (j + 2) * s)
        charts.append({"name": f"U{j:03d}", "indices": list(range(lo + 1, hi + 1))})
    model = (
        {"features": "affine"}
        if exponents is None
        else {"features": "monomials", "exponents": exponents}
    )
    return {
        "dataset": {"ambient_dim": dim, "points": points},
        "cover": {"charts": charts},
        "model": model,
    }


def write_inputs(name: str, seed: int, directory: Path) -> dict:
    """Write dataset.json, cover.json and model.json; return the documents."""
    docs = generate(name, seed)
    directory.mkdir(parents=True, exist_ok=True)
    for key, doc in docs.items():
        (directory / f"{key}.json").write_text(json.dumps(doc), encoding="utf-8")
    return docs

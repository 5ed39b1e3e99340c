"""Write quad3d.json, cover_quad3d.json and model_quad3d.json (seed 7).

    python3 sampledata/make_quad3d.py

Forty 3-d points with wide rationals (coordinates p/q with |p| <= 999 and
q <= 32, y p/q with q <= 32, weights p/q), a quadratic model with 10
parameters, and a cover of four charts that share one core of 12 points and
each add 7 points of their own.  Every pair and triple overlap is the core,
so all overlaps have the same normal matrix and every triple glues with
nonzero betas.  The last point of Q3 has the negative weight that makes the
weights of Q3 sum to zero: the constant feature comes first, so N[0][0] = 0
on Q3 and elimination must swap rows there.  The commands therefore need
``--allow-negative-weights``.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORE, OWN, CHARTS = 12, 7, ("Q1", "Q2", "Q3", "Q4")


def wide(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-999, 999), rng.randint(1, 32))


def main() -> None:
    rng = random.Random(7)
    m = CORE + OWN * len(CHARTS)
    order = list(range(1, m + 1))
    rng.shuffle(order)
    core = sorted(order[:CORE])
    own = {
        name: order[CORE + j * OWN : CORE + (j + 1) * OWN] for j, name in enumerate(CHARTS)
    }
    weights = {i: Fraction(rng.randint(1, 12), rng.randint(1, 12)) for i in range(1, m + 1)}
    last = own["Q3"][-1]
    weights[last] = -sum(weights[i] for i in core + own["Q3"][:-1])
    points = [
        {
            "x": [str(wide(rng)) for _ in range(3)],
            "y": str(wide(rng)),
            "weight": str(weights[i]),
        }
        for i in range(1, m + 1)
    ]
    exponents = [
        [a, b, c] for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2
    ]
    docs = {
        "quad3d.json": {"ambient_dim": 3, "points": points},
        "cover_quad3d.json": {
            "charts": [
                {"name": name, "indices": sorted(core + own[name])} for name in CHARTS
            ]
        },
        "model_quad3d.json": {"features": "monomials", "exponents": exponents},
    }
    for name, doc in docs.items():
        (HERE / name).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

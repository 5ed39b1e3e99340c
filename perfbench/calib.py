"""Reference kernel the benchmark runs as its own child process.

Exact Gauss-Jordan elimination on a fixed 30x30 system of rationals with the
standard library's ``fractions``; it imports nothing from lsglue, so no change
to the program under test can move it.  Its wall time tracks how fast the
host runs this kind of work at the moment (interpreter, big integers, a fresh
process), which lets the benchmark take host drift out of its timings.
"""

import random
from fractions import Fraction

rng = random.Random(1)
n = 30
rows = [
    [Fraction(rng.randint(-999, 999), rng.randint(1, 64)) for _ in range(n + 1)]
    for _ in range(n)
]
for c in range(n):
    inv = 1 / rows[c][c]
    rows[c] = [inv * a for a in rows[c]]
    for r in range(n):
        if r != c and rows[r][c]:
            f = rows[r][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]

"""Independent exact oracle for lsglue reports.

Imports nothing from lsglue and uses only ``fractions``.  It rebuilds the
nerve from the point membership signatures, recomputes the weighted normal
system (ν, N) of a few cells from the raw inputs, and checks the report's
fits, pair witnesses and triple defects against them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations


def _features(x, exponents) -> list:
    if exponents is None:  # affine: (x_1, ..., x_N, 1)
        return list(x) + [Fraction(1)]
    values = []
    for mono in exponents:
        term = Fraction(1)
        for coord, e in zip(x, mono):
            term *= coord**e
        values.append(term)
    return values


def _points(dataset: dict) -> list:
    return [
        ([Fraction(v) for v in p["x"]], Fraction(p["y"]), Fraction(p["weight"]))
        for p in dataset["points"]
    ]


def _normal_system(points, indices, exponents):
    """ν_k = -2 Σ w y φ_k and N_kl = 2 Σ w φ_k φ_l over the given 1-based indices."""
    nu = None
    nmat = None
    for i in indices:
        x, y, w = points[i - 1]
        phi = _features(x, exponents)
        if nu is None:
            n = len(phi)
            nu = [Fraction(0)] * n
            nmat = [[Fraction(0)] * n for _ in range(n)]
        for k, pk in enumerate(phi):
            nu[k] -= 2 * w * y * pk
            row = nmat[k]
            for l, pl in enumerate(phi):
                row[l] += 2 * w * pk * pl
    return nu, nmat


def _matvec(mat, vec):
    return [sum(a * b for a, b in zip(row, vec)) for row in mat]


def _expected_cells(cover: dict) -> dict:
    """label -> sorted indices for every cell of degree <= 2, built from the
    set of charts containing each point (no search over chart tuples)."""
    member = {}
    for chart in cover["charts"]:
        for i in chart["indices"]:
            member.setdefault(i, []).append(chart["name"])
    cells = {}
    for i, names in member.items():
        names = sorted(names)
        for size in (1, 2, 3):
            for combo in combinations(names, size):
                cells.setdefault("|".join(combo), set()).add(i)
    return {label: sorted(idx) for label, idx in cells.items()}


def _beta_constants(record: dict, n: int) -> list:
    return [
        Fraction(record["beta"][f"[{m}]"]["c0"]) if f"[{m}]" in record["beta"] else Fraction(0)
        for m in range(1, n + 1)
    ]


def check_report(docs: dict, report: dict, seed: int, exact_coeffs=None) -> list:
    """Return a list of problems (empty when the report passes).

    ``exact_coeffs`` is the polynomial the responses lie on exactly, when
    they do: then every cell must fit it and every triple must glue.
    """
    problems = []
    exponents = docs["model"].get("exponents")
    points = _points(docs["dataset"])
    expected = _expected_cells(docs["cover"])
    sections = {1: report["charts"], 2: report["pairs"], 3: report["triples"]}
    for size, section in sections.items():
        want = {k: v for k, v in expected.items() if k.count("|") == size - 1}
        got = {k: v["indices"] for k, v in section.items()}
        if want != got:
            problems.append(f"degree-{size - 1} cells or their indices differ from the nerve")
    if problems:
        return problems

    rng = random.Random(seed)
    for size, section in sections.items():
        if not section:
            continue
        label = rng.choice(sorted(section))
        record = section[label]
        a_hat = [Fraction(v) for v in record["a_hat"]]
        nu, nmat = _normal_system(points, record["indices"], exponents)
        if any(v + w != 0 for v, w in zip(nu, _matvec(nmat, a_hat))):
            problems.append(f"nu + N a_hat != 0 on {label}")
        names = label.split("|")
        if size == 2:
            fit = {name: [Fraction(v) for v in report["charts"][name]["a_hat"]] for name in names}
            delta = [b - a for a, b in zip(fit[names[0]], fit[names[1]])]
            if [Fraction(v) for v in record["delta"]] != delta:
                problems.append(f"delta on {label} is not a_hat_j - a_hat_i")
            beta = _beta_constants(record, len(a_hat))
            if _matvec(list(zip(*nmat)), beta) != delta:
                problems.append(f"N^T beta != delta on {label}")
        if size == 3:
            ij, ik, jk = (
                _beta_constants(report["pairs"]["|".join(face)], len(a_hat))
                for face in combinations(names, 2)
            )
            defect = [c - b + a for a, b, c in zip(ij, ik, jk)]
            if [Fraction(v) for v in record["defect_constant"]] != defect:
                problems.append(f"defect on {label} is not beta_jk - beta_ik + beta_ij")
            if record["obstructed"] != any(defect):
                problems.append(f"obstructed flag on {label} disagrees with its defect")

    if not all(rec["residual_zero"] for rec in report["pairs"].values()):
        problems.append("a pair residual is not zero")
    if exact_coeffs is not None:
        for section in sections.values():
            for label, record in section.items():
                if [Fraction(v) for v in record["a_hat"]] != list(exact_coeffs):
                    problems.append(f"fit on {label} misses the exact polynomial")
        for label, record in report["triples"].items():
            if record["obstructed"] or not record["residual_zero"]:
                problems.append(f"triple {label} does not glue")
    return problems

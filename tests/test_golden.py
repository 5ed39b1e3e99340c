"""CLI output pinned byte for byte.

The files under ``tests/golden/`` were written by the CLI before the nerve and
the cell normal systems were computed from membership atoms; the ``line6``
and ``verify`` cases were written before the cochain was assembled on plain
vectors; the ``quad3d`` cases (wide rationals from ``sampledata/make_quad3d.py``,
a negative weight, a row swap on chart Q3) were written before elimination
became forward elimination with back-substitution and before the normal
systems were accumulated on integers; the failing ``verify`` cases (exit 4)
were written before ``verify_cocycle`` checked the cocycle equations on
vectors; ``fit_line_three_charts`` (a cover whose cells all have one fit) was
written before the fit loop took the â of the cell before as a candidate.
A refactor must reproduce them exactly, with the same exit code and
the same stderr: the bytes of ``tests/golden/<name>.stderr`` where that file
exists (the failure dump, the same for both formats), else nothing.

The ``verify`` cases read the ``cocycle`` JSON goldens as their cochains, or a
``cochain_tampered_*`` copy of one with one coefficient changed:
``beta_c0`` gives the ``L1|L3`` beta of the ``line6`` report (zero) the slot-2
constant -2/5, ``beta_linear`` gives its ``L2|L3`` beta a linear part on slot
1, ``alpha_c`` changes the linear part of chart ``L1``'s alpha, ``r`` replaces
the zero triple witness by 2 + (1, -3)·(a - â) on e¹∧e², and ``alpha_c0``
gives chart ``D2``'s alpha of the two-chart ``toy5`` report the constant 5/2.
Change a golden file only together with an intended change of the report
format or of the failure dump, by rerunning the command below with
``> tests/golden/<name>.<format>``, and for a case that has a stderr golden
with ``2> tests/golden/<name>.stderr``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lsglue

ROOT = Path(__file__).resolve().parent.parent
# the package this process imports, so that the CLI runs the code the other
# tests check, also a mutated copy of src/ (tests/mutants.py)
SRC = Path(lsglue.__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

TOY = ["--dataset", "sampledata/toy5.json"]
TWO = [*TOY, "--cover", "sampledata/cover_two_charts.json"]
LINE = ["--dataset", "sampledata/line6.json", "--cover", "sampledata/cover_line_three_charts.json"]
QUAD = [
    "--dataset",
    "sampledata/quad3d.json",
    "--cover",
    "sampledata/cover_quad3d.json",
    "--model",
    "sampledata/model_quad3d.json",
    "--allow-negative-weights",
]
CASES = [
    ("fit_toy5", ["fit", *TOY], 0),
    ("cocycle_two_charts", ["cocycle", *TWO], 0),
    ("cocycle_three_charts", ["cocycle", *TOY, "--cover", "sampledata/cover_three_charts.json"], 3),
    ("fit_line_three_charts", ["fit", *LINE], 0),
    ("cocycle_line_three_charts", ["cocycle", *LINE], 0),
    (
        "verify_two_charts",
        ["verify", *TWO, "--cochain", "tests/golden/cocycle_two_charts.json"],
        0,
    ),
    (
        "verify_line_three_charts",
        ["verify", *LINE, "--cochain", "tests/golden/cocycle_line_three_charts.json"],
        0,
    ),
    ("fit_quad3d", ["fit", *QUAD], 0),
    ("cocycle_quad3d", ["cocycle", *QUAD], 0),
    ("verify_quad3d", ["verify", *QUAD, "--cochain", "tests/golden/cocycle_quad3d.json"], 0),
    (
        "verify_three_charts",
        [
            "verify",
            *TOY,
            "--cover",
            "sampledata/cover_three_charts.json",
            "--cochain",
            "tests/golden/cocycle_three_charts.json",
        ],
        4,
    ),
    *(
        (
            f"verify_tampered_{what}",
            ["verify", *LINE, "--cochain", f"tests/golden/cochain_tampered_{what}.json"],
            4,
        )
        for what in ("beta_c0", "beta_linear", "alpha_c", "r")
    ),
    (
        "verify_tampered_alpha_c0",
        ["verify", *TWO, "--cochain", "tests/golden/cochain_tampered_alpha_c0.json"],
        4,
    ),
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name, argv, code", CASES, ids=[case[0] for case in CASES])
def test_cli_matches_golden(name, argv, code, fmt):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "lsglue.cli", *argv, "--format", fmt],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr.decode()
    stderr = GOLDEN / f"{name}.stderr"
    assert proc.stderr == (stderr.read_bytes() if stderr.exists() else b"")
    assert proc.stdout == (GOLDEN / f"{name}.{fmt}").read_bytes()

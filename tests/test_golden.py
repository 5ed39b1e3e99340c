"""CLI output pinned byte for byte.

The files under ``tests/golden/`` were written by the CLI before the nerve and
the cell normal systems were computed from membership atoms; the ``line6``
and ``verify`` cases were written before the cochain was assembled on plain
vectors; the ``quad3d`` cases (wide rationals from ``sampledata/make_quad3d.py``,
a negative weight, a row swap on chart Q3) were written before elimination
became forward elimination with back-substitution and before the normal
systems were accumulated on integers.  A refactor must reproduce them exactly,
with the same exit code and an empty stderr.  The ``verify`` cases read the
``cocycle`` JSON goldens as their cochains.  Change a golden file only
together with an intended change of the report format, by rerunning the
command below with ``> tests/golden/<name>.<format>``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
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
]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name, argv, code", CASES, ids=[case[0] for case in CASES])
def test_cli_matches_golden(name, argv, code, fmt):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "lsglue.cli", *argv, "--format", fmt],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == (GOLDEN / f"{name}.{fmt}").read_bytes()

#!/usr/bin/env python3
"""Scaling ladder: ``lsglue cocycle`` and then ``verify`` of its report, as
CLI subprocesses, on interval covers of growing points m, charts k and
parameters n.

The inputs come from the benchmark's seeded generator
(``perfbench/workloads.generate``), which this script imports and never
changes; the rungs other than ``quad_3d`` are defined here in the
generator's own terms:

    rung                m      k    n   model, coordinates x2..
    m60_k3_n2           60     3    2   affine in 1-d
    m1200_k60_n2        1200   60   2   affine in 1-d
    quad_3d             400    10   10  quadratic in 3-d, ±999/≤32
    cubic_3d_m800_n20   800    10   20  cubic in 3-d, ±999/≤32
    wide_3d_m400_n10    400    10   10  quadratic in 3-d, ±99999/≤1024
    m4000_k200_n2       4000   200  2   affine in 1-d
    m40000_k200_n2      40000  200  2   affine in 1-d

Each command of each rung runs ``REPEATS`` times and is one row of the
output, whatever its exit code: the median, least and greatest wall time of
the subprocess; the median wall time of the benchmark's reference kernel
``perfbench/calib.py``, run as a child before each run, and the median wall
rescaled by REFERENCE_S / that median, as ``perfbench/run.py`` rescales its
timings, so that walls taken while the host ran at another speed compare;
its exit code, its first ``error:`` line, the sizes of its
report and its stderr, and the largest numerator and denominator bits of â
(every record's ``a_hat``), β (the pairs' slot constants) and the triple
defects, read from the report.  Runs that disagree on the exit code or the
report bytes make the row's ``error``.  A rung whose ``cocycle`` writes no
report keeps a ``verify`` row that says it did not run.

Usage:

    python benchmarks/ladder.py --output BENCH.json [--rung NAME ...]

The inputs are those of seed 0, the seed the benchmark's changes are written
against.  The commands run one at a time on the ``fractions`` backend, from
the ``src/`` of this checkout, with their files in a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

CUBIC_3D = [
    [a, b, c] for a in range(4) for b in range(4) for c in range(4) if a + b + c <= 3
]

# name -> the generator's (points m, ambient dim, exponents or None for
# affine, charts k, exact y, bound on |numerator| and on denominator of
# x2..), in ladder order
RUNGS = {
    "m60_k3_n2": (60, 1, None, 3, False, None),
    "m1200_k60_n2": (1200, 1, None, 60, False, None),
    "quad_3d": workloads.WORKLOADS["quad_3d"],
    "cubic_3d_m800_n20": (800, 3, CUBIC_3D, 10, False, (999, 32)),
    "wide_3d_m400_n10": (400, 3, workloads.QUADRATIC_3D, 10, False, (99999, 1024)),
    "m4000_k200_n2": (4000, 1, None, 200, False, None),
    "m40000_k200_n2": (40000, 1, None, 200, False, None),
}

SEED = 0

# Runs of each command of each rung; the row's wall_s is their median.
REPEATS = 3

# The reference kernel, timed as a child before each run, and the wall time
# it is rescaled to, both as in perfbench/run.py.
CALIB = ROOT / "perfbench" / "calib.py"
REFERENCE_S = 0.25

CHILD_ENV = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
CHILD_ENV.update(PYTHONPATH=str(ROOT / "src"), LSGLUE_BACKEND="fractions")


def write_inputs(name: str, directory: Path) -> list:
    """The rung's dataset, cover and model files, as CLI arguments."""
    with mock.patch.dict(workloads.WORKLOADS, {name: RUNGS[name]}):
        docs = workloads.generate(name, SEED)
    argv = []
    for key, doc in docs.items():
        path = directory / f"{key}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv += [f"--{key}", str(path)]
    return argv


def max_bits(literals) -> dict | None:
    """The largest numerator and denominator bit-lengths of the literals;
    None when there are none."""
    values = [Fraction(text) for text in literals]
    if not values:
        return None
    return {
        "numerator": max(abs(v.numerator).bit_length() for v in values),
        "denominator": max(v.denominator.bit_length() for v in values),
    }


def report_bits(doc: dict) -> dict:
    """The bits of â, β and the defects held in a cocycle report."""
    records = [r for section in ("charts", "pairs", "triples") for r in doc[section].values()]
    return {
        "a_hat": max_bits(x for r in records for x in r["a_hat"]),
        "beta": max_bits(
            coeff["c0"] for r in doc["pairs"].values() for coeff in r["beta"].values()
        ),
        "defect": max_bits(x for r in doc["triples"].values() for x in r["defect_constant"]),
    }


def calibrate() -> float:
    """The wall seconds of one run of ``perfbench/calib.py`` as a child."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-S", str(CALIB)],
        stdout=subprocess.DEVNULL, env=CHILD_ENV, check=True,
    )
    return time.perf_counter() - start


def run_command(command: str, argv: list, directory: Path) -> dict:
    """Run one CLI command ``REPEATS`` times, each after one calibration run,
    with its report and stderr in files; its row, read from the last run's
    files."""
    report, stderr = directory / f"{command}.json", directory / f"{command}.err"
    cli = [sys.executable, "-S", "-m", "lsglue.cli", command, *argv, "--output", str(report)]
    calibs, walls, codes, reports = [], [], [], []
    for _ in range(REPEATS):
        calibs.append(calibrate())
        report.unlink(missing_ok=True)
        start = time.perf_counter()
        with open(stderr, "wb") as err:
            code = subprocess.run(
                cli, stdout=subprocess.DEVNULL, stderr=err, env=CHILD_ENV, check=False
            ).returncode
        walls.append(time.perf_counter() - start)
        codes.append(code)
        reports.append(report.read_bytes() if report.exists() else None)
    text = stderr.read_text(encoding="utf-8", errors="replace")
    error = next((line for line in text.splitlines() if line.startswith("error:")), None)
    if len(set(codes)) > 1:
        error = f"the {REPEATS} runs disagree on the exit code: {codes}"
    elif len(set(reports)) > 1:
        error = f"the {REPEATS} runs disagree on the report bytes"
    written = reports[-1] is not None
    wall, calib = statistics.median(walls), statistics.median(calibs)
    return {
        "command": command,
        "ran": True,
        "exit_code": code,
        "wall_s": round(wall, 3),
        "wall_min_s": round(min(walls), 3),
        "wall_max_s": round(max(walls), 3),
        "calib_s": round(calib, 3),
        "wall_cal_s": round(wall * REFERENCE_S / calib, 3),
        "error": error,
        "report_bytes": len(reports[-1]) if written else None,
        "stderr_bytes": stderr.stat().st_size,
        "bits": report_bits(json.loads(reports[-1])) if written else None,
    }


def not_run(command: str, why: str) -> dict:
    return {
        "command": command,
        "ran": False,
        "exit_code": None,
        "wall_s": None,
        "wall_min_s": None,
        "wall_max_s": None,
        "calib_s": None,
        "wall_cal_s": None,
        "error": why,
        "report_bytes": None,
        "stderr_bytes": None,
        "bits": None,
    }


def run_rung(name: str) -> list:
    """The rows of one rung: ``cocycle``, then ``verify`` of its report."""
    m, dim, exponents, k, _, bounds = RUNGS[name]
    rung = {
        "rung": name,
        "m": m,
        "k": k,
        "n": dim + 1 if exponents is None else len(exponents),
        "ambient_dim": dim,
        "coordinate_bounds": bounds,
    }
    rows = []
    with tempfile.TemporaryDirectory(prefix="lsglue-ladder-") as tmp:
        directory = Path(tmp)
        argv = write_inputs(name, directory)
        cocycle = run_command("cocycle", argv, directory)
        rows.append({**rung, **cocycle})
        if cocycle["report_bytes"] is None:
            rows.append({**rung, **not_run("verify", "cocycle wrote no report")})
        else:
            verify_argv = argv + ["--cochain", str(directory / "cocycle.json")]
            rows.append({**rung, **run_command("verify", verify_argv, directory)})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", required=True, metavar="PATH", help="JSON file to write")
    parser.add_argument("--rung", action="append", choices=list(RUNGS), help="default: all")
    args = parser.parse_args(argv)
    runs = []
    for name in args.rung or RUNGS:
        for row in run_rung(name):
            runs.append(row)
            shown = row["error"] or f"report {row['report_bytes']} B"
            print(
                f"{name:<20} {row['command']:<8} exit {row['exit_code']}"
                f"  {row['wall_s']} s ({row['wall_min_s']}-{row['wall_max_s']})"
                f"  calibrated {row['wall_cal_s']} s  {shown}",
                flush=True,
            )
    doc = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "backend": "fractions",
        },
        "seed": SEED,
        "runs": runs,
    }
    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

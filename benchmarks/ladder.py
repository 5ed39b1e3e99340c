#!/usr/bin/env python3
"""Scaling ladder: ``lsglue cocycle`` and then ``verify`` of its report, as
CLI subprocesses, on interval covers of growing points m, charts k and
parameters n.

The inputs come from the benchmark's seeded generator
(``perfbench/workloads.generate``), which this script imports and never
changes; the rungs other than ``quad_3d`` are defined here in the
generator's own terms:

    rung                    m      k    n   model, coordinates x2..
    m60_k3_n2               60     3    2   affine in 1-d
    m1200_k60_n2            1200   60   2   affine in 1-d
    quad_3d                 400    10   10  quadratic in 3-d, ±999/≤32
    cubic_3d_m800_n20       800    10   20  cubic in 3-d, ±999/≤32
    wide_3d_m400_n10        400    10   10  quadratic in 3-d, ±99999/≤1024
    glue_3d_m1200_k30_n10   1200   30   10  quadratic in 3-d, ±99/≤16, y exact
    m4000_k200_n2           4000   200  2   affine in 1-d
    m40000_k200_n2          40000  200  2   affine in 1-d

Every rung's y is drawn at random, so its triples are obstructed, except on
``glue_3d_m1200_k30_n10``, whose y lies on the generator's fixed quadratic:
there every cell has the same fit and the cover glues.

Each command of each rung is one row of the output, whatever its exit code.
The command runs once untimed, then ``REPEATS`` timed rounds; the row holds
the median, least and greatest wall time of the subprocess, its exit code,
its first ``error:`` line, the sizes of its report and its stderr, and the
largest numerator and denominator bits of â (every record's ``a_hat``), β
(the pairs' slot constants) and the triple defects, read from the report.
When the runs differ in exit code, report bytes or stderr bytes, the row's
``error`` names the fields, as in ``the 3 change runs differ in exit code``.
A rung whose ``cocycle`` writes no report keeps a ``verify`` row that says
it did not run.

With ``--baseline DIR``, where DIR holds another tree's ``src/`` (say, from
``git archive HEAD~1 | tar -x -C DIR``), each round runs the command from
DIR's ``src/`` and then from this checkout's, after one untimed run of each.
The row then also holds the baseline's median, the change/baseline ratio of
each round, their median and the number of rounds the change was faster
in; the two trees' last runs must agree in the same three fields, or the
row's ``error`` says ``the baseline and the change differ in ...``.  Both
trees' ``verify`` read the change's ``cocycle`` report.  The output's
``baseline`` is the name of DIR.  Without it, ``baseline_wall_s`` and
``ratio_median`` are null, ``ratios`` is empty and ``wins`` is 0, so rows
of both modes have the same keys.

Usage:

    python benchmarks/ladder.py --output BENCH.json [--rung NAME ...]
    python benchmarks/ladder.py --output AB.json --baseline DIR [--rung NAME ...]

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
    "glue_3d_m1200_k30_n10": (1200, 3, workloads.QUADRATIC_3D, 30, True, (99, 16)),
    "m4000_k200_n2": (4000, 1, None, 200, False, None),
    "m40000_k200_n2": (40000, 1, None, 200, False, None),
}

SEED = 0

# Timed rounds of each command of each rung; the row's wall_s is the median
# of the change's walls.
REPEATS = 3

# The fields of a command's row, in the order :func:`measure` writes them;
# :func:`not_run` gives a command that did not run the same fields.
ROW_FIELDS = (
    "command", "ran", "exit_code", "baseline_wall_s", "wall_s", "wall_min_s", "wall_max_s",
    "ratios", "ratio_median", "wins", "pairs", "error", "report_bytes", "stderr_bytes", "bits",
)


def child_env(src: Path) -> dict:
    """The environment of a CLI child that imports lsglue from ``src``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(PYTHONPATH=str(src), LSGLUE_BACKEND="fractions")
    return env


CHILD_ENV = child_env(ROOT / "src")


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
    None when there are none.  A report may hold integers past the
    interpreter's limit on decimal strings, so they are read with the limit
    lifted, and the limit is restored after."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        values = [Fraction(text) for text in literals]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
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


def run_once(command: str, argv: list, report: Path, stderr: Path, env: dict) -> tuple:
    """One run of a CLI command, its report written to ``report`` and its
    stderr to ``stderr``: (wall seconds, exit code, report bytes or None)."""
    cli = [sys.executable, "-S", "-m", "lsglue.cli", command, *argv, "--output", str(report)]
    report.unlink(missing_ok=True)
    start = time.perf_counter()
    with open(stderr, "wb") as err:
        code = subprocess.run(
            cli, stdout=subprocess.DEVNULL, stderr=err, env=env, check=False
        ).returncode
    wall = time.perf_counter() - start
    return wall, code, report.read_bytes() if report.exists() else None


def first_error(stderr: Path) -> str | None:
    text = stderr.read_text(encoding="utf-8", errors="replace")
    return next((line for line in text.splitlines() if line.startswith("error:")), None)


def differing(outcomes: list) -> str:
    """The fields in which the (exit code, report bytes, stderr bytes)
    outcomes are not all equal, in that order, joined by commas."""
    fields = ("exit code", "report bytes", "stderr bytes")
    return ", ".join(
        field for field, values in zip(fields, zip(*outcomes)) if len(set(values)) > 1
    )


def measure(command: str, argv: list, directory: Path, baseline: Path | None = None) -> dict:
    """One untimed run of a CLI command from each tree, then ``REPEATS``
    rounds: a run from this checkout's ``src/``, after one from
    ``baseline``/src when that is given; the row.  The change's report is
    ``<command>.json``, where :func:`run_rung`'s ``verify`` reads it."""
    sides = {"change": (CHILD_ENV, directory / f"{command}.json")}
    if baseline is not None:
        sides = {
            "baseline": (child_env(baseline / "src"), directory / f"baseline-{command}.json"),
            **sides,
        }
    walls = {side: [] for side in sides}
    outcomes = {side: [] for side in sides}
    # one untimed run of each tree first, so that neither pays for compiling
    # its sources or for a cold file cache in a timed run
    for side, (env, report) in sides.items():
        run_once(command, argv, report, directory / f"{side}-{command}.err", env)
    for _ in range(REPEATS):
        for side, (env, report) in sides.items():
            stderr = directory / f"{side}-{command}.err"
            wall, code, written = run_once(command, argv, report, stderr, env)
            walls[side].append(wall)
            outcomes[side].append((code, written, stderr.read_bytes()))
    error = first_error(directory / f"change-{command}.err")
    for side, seen in outcomes.items():
        if differ := differing(seen):
            error = f"the {REPEATS} {side} runs differ in {differ}"
    if differ := differing([seen[-1] for seen in outcomes.values()]):
        error = f"the baseline and the change differ in {differ}"
    base = walls.get("baseline")
    ratios = [change / before for before, change in zip(base or [], walls["change"])]
    code, written, err = outcomes["change"][-1]
    return {
        "command": command,
        "ran": True,
        "exit_code": code,
        "baseline_wall_s": round(statistics.median(base), 4) if base else None,
        "wall_s": round(statistics.median(walls["change"]), 4),
        "wall_min_s": round(min(walls["change"]), 4),
        "wall_max_s": round(max(walls["change"]), 4),
        "ratios": [round(r, 4) for r in ratios],
        "ratio_median": round(statistics.median(ratios), 4) if ratios else None,
        "wins": sum(r < 1 for r in ratios),
        "pairs": REPEATS,
        "error": error,
        "report_bytes": len(written) if written is not None else None,
        "stderr_bytes": len(err),
        "bits": report_bits(json.loads(written)) if written is not None else None,
    }


def not_run(command: str, why: str) -> dict:
    """The row of a command that did not run: each of the ``ROW_FIELDS``
    of :func:`measure`'s row, None where nothing was measured."""
    row = dict.fromkeys(ROW_FIELDS)
    row.update(command=command, ran=False, ratios=[], wins=0, pairs=REPEATS, error=why)
    return row


def run_rung(name: str, baseline: Path | None = None) -> list:
    """The rows of one rung: ``cocycle``, then ``verify`` of its report; A/B
    rows against the tree at ``baseline`` when it is given."""
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
        cocycle = measure("cocycle", argv, directory, baseline)
        rows.append({**rung, **cocycle})
        if cocycle["report_bytes"] is None:
            rows.append({**rung, **not_run("verify", "cocycle wrote no report")})
        else:
            verify_argv = argv + ["--cochain", str(directory / "cocycle.json")]
            rows.append({**rung, **measure("verify", verify_argv, directory, baseline)})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", required=True, metavar="PATH", help="JSON file to write")
    parser.add_argument("--rung", action="append", choices=list(RUNGS), help="default: all")
    parser.add_argument(
        "--baseline", type=Path, metavar="DIR",
        help="compare with the tree whose src/ is under DIR, alternating runs",
    )
    args = parser.parse_args(argv)
    if args.baseline is not None and not (args.baseline / "src" / "lsglue" / "cli.py").is_file():
        parser.error(f"no lsglue sources under {args.baseline / 'src'}")
    runs = []
    for name in args.rung or RUNGS:
        for row in run_rung(name, args.baseline):
            runs.append(row)
            shown = row["error"] or f"report {row['report_bytes']} B"
            print(
                f"{name:<20} {row['command']:<8} exit {row['exit_code']}"
                f"  {row['wall_s']} s ({row['wall_min_s']}-{row['wall_max_s']})"
                f"  baseline {row['baseline_wall_s']} s, ratio {row['ratio_median']},"
                f" won {row['wins']}/{row['pairs']}  {shown}",
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
    if args.baseline is not None:
        doc["baseline"] = args.baseline.resolve().name
    Path(args.output).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the scaling ladder (``benchmarks/ladder.py``) on its
smallest rung, and of how it reads runs that disagree."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

ROW_KEYS = {
    "rung", "m", "k", "n", "ambient_dim", "coordinate_bounds", "command", "ran",
    "exit_code", "wall_s", "wall_min_s", "wall_max_s", "calib_s", "wall_cal_s", "error",
    "report_bytes", "stderr_bytes", "bits",
}


def test_smallest_rung_writes_a_row_per_command(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/ladder.py"), "--rung", "m60_k3_n2",
         "--output", str(out)],
        capture_output=True, timeout=120, check=True,
    )
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"host", "seed", "runs"}
    assert set(doc["host"]) == {"python", "machine", "cpus", "backend"}
    assert [row["command"] for row in doc["runs"]] == ["cocycle", "verify"]
    for row in doc["runs"]:
        assert set(row) == ROW_KEYS
        assert (row["rung"], row["m"], row["k"], row["n"]) == ("m60_k3_n2", 60, 3, 2)
        assert row["ran"] and row["error"] is None and row["report_bytes"] > 0
        # the median of three runs lies between the least and the greatest
        assert 0 < row["wall_min_s"] <= row["wall_s"] <= row["wall_max_s"]
        # the median wall rescaled as perfbench rescales, by 0.25 s / calib_s
        assert row["calib_s"] > 0
        assert row["wall_cal_s"] == pytest.approx(row["wall_s"] * 0.25 / row["calib_s"], rel=0.05)
        assert set(row["bits"]) == {"a_hat", "beta", "defect"}
        for bits in row["bits"].values():
            assert set(bits) == {"numerator", "denominator"}
    # an obstructed interval cover: cocycle exits 3, verify of its report 4
    assert [row["exit_code"] for row in doc["runs"]] == [3, 4]


def _ladder(monkeypatch):
    """``benchmarks/ladder.py`` as a module; the entry it adds to sys.path
    is dropped after the test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "benchmarks/ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    return ladder


REPORT = '{"charts": {}, "pairs": {}, "triples": {}}'


@pytest.mark.parametrize(
    "runs, error",
    [
        ([(3, REPORT)] * 3, None),
        ([(3, REPORT), (1, None), (3, REPORT)], "the 3 runs disagree on the exit code: [3, 1, 3]"),
        ([(3, REPORT), (3, REPORT + " "), (3, REPORT)], "the 3 runs disagree on the report bytes"),
    ],
    ids=["agree", "exit_code", "report_bytes"],
)
def test_runs_that_disagree_make_the_error(tmp_path, monkeypatch, runs, error):
    ladder = _ladder(monkeypatch)
    outcomes = iter(runs)

    def fake_run(argv, **kwargs):
        if argv[-1] == str(ladder.CALIB):
            time.sleep(0.001)
            return subprocess.CompletedProcess(argv, 0)
        code, report = next(outcomes)
        if report is not None:
            Path(argv[-1]).write_text(report, encoding="utf-8")
        return subprocess.CompletedProcess(argv, code)

    monkeypatch.setattr(ladder.subprocess, "run", fake_run)
    row = ladder.run_command("cocycle", [], tmp_path)
    assert row["error"] == error
    assert (row["exit_code"], row["report_bytes"]) == (runs[-1][0], len(runs[-1][1]))
    assert 0 <= row["wall_min_s"] <= row["wall_s"] <= row["wall_max_s"]
    assert row["calib_s"] >= 0.001 and row["wall_cal_s"] >= 0

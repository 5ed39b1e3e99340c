"""Smoke test of the scaling ladder (``benchmarks/ladder.py``) on its
smallest rung, in both modes, and of its one measuring loop: the order of
its runs, one tree alone or two alternating (``--baseline``), how it reads
runs that differ, the byte comparison of the two trees and the ratio
arithmetic."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the keys of every row, in either mode and whether the command ran or not
ROW_KEYS = {
    "rung", "m", "k", "n", "ambient_dim", "coordinate_bounds", "command", "ran",
    "exit_code", "baseline_wall_s", "wall_s", "wall_min_s", "wall_max_s", "ratios",
    "ratio_median", "wins", "pairs", "error", "report_bytes", "stderr_bytes", "bits",
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
        # one tree: no baseline, no ratios, and three rounds
        assert row["baseline_wall_s"] is None and row["ratio_median"] is None
        assert (row["ratios"], row["wins"], row["pairs"]) == ([], 0, 3)
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


class _Clock:
    """A stand-in for ``time`` in the ladder: perf_counter reads a clock
    that only the fake runs advance."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


@pytest.mark.parametrize(
    "runs, error",
    [
        ([(3, REPORT, b"")] * 3, None),
        ([(3, REPORT, b""), (1, None, b""), (3, REPORT, b"")],
         "the 3 change runs differ in exit code, report bytes"),
        ([(3, REPORT, b""), (3, REPORT + " ", b""), (3, REPORT, b"")],
         "the 3 change runs differ in report bytes"),
        ([(3, REPORT, b""), (3, REPORT, b"note\n"), (3, REPORT, b"")],
         "the 3 change runs differ in stderr bytes"),
    ],
    ids=["agree", "exit_code", "report_bytes", "stderr_bytes"],
)
def test_runs_that_disagree_make_the_error(tmp_path, monkeypatch, runs, error):
    # one tree: an untimed run, then three timed ones, whose walls the fake
    # clock gives
    ladder = _ladder(monkeypatch)
    clock = _Clock()
    monkeypatch.setattr(ladder, "time", clock)
    outcomes = iter([runs[0], *runs])
    seconds = iter([100.0, 2.0, 1.0, 4.0])
    calls = []

    def fake_run(argv, **kwargs):
        assert kwargs["env"]["PYTHONPATH"] == str(ROOT / "src")
        calls.append(argv[argv.index("-m") + 1 :][:2])
        code, report, err = next(outcomes)
        if report is not None:
            Path(argv[-1]).write_text(report, encoding="utf-8")
        kwargs["stderr"].write(err)
        clock.now += next(seconds)
        return subprocess.CompletedProcess(argv, code)

    monkeypatch.setattr(ladder.subprocess, "run", fake_run)
    row = ladder.measure("cocycle", [], tmp_path)
    assert calls == [["lsglue.cli", "cocycle"]] * 4
    assert row["error"] == error
    assert (row["exit_code"], row["report_bytes"]) == (runs[-1][0], len(runs[-1][1]))
    assert (row["wall_s"], row["wall_min_s"], row["wall_max_s"]) == (2.0, 1.0, 4.0)
    assert row["baseline_wall_s"] is None and row["ratio_median"] is None
    assert (row["ratios"], row["wins"], row["pairs"]) == ([], 0, 3)
    # the report is where run_rung's verify reads it
    assert (tmp_path / "cocycle.json").read_text(encoding="utf-8") == REPORT
    # a command that did not run has the measured row's fields, in order
    assert list(row) == list(ladder.ROW_FIELDS)
    skipped = ladder.not_run("verify", "cocycle wrote no report")
    assert list(skipped) == list(ladder.ROW_FIELDS)
    assert skipped == {
        **dict.fromkeys(row),
        "command": "verify",
        "ran": False,
        "ratios": [],
        "wins": 0,
        "pairs": 3,
        "error": "cocycle wrote no report",
    }


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on decimal integer strings in this interpreter",
)
def test_report_bits_read_literals_past_the_digit_limit(monkeypatch):
    # a report may hold integers past the interpreter's limit; the ladder
    # reads their bits all the same, and leaves the limit as it was
    ladder = _ladder(monkeypatch)
    limit = sys.get_int_max_str_digits()
    digits = "1" + "0" * (limit + 10)
    assert ladder.max_bits([f"-{digits}/3", "5", f"1/{digits[:-1]}1"]) == {
        "numerator": (10 ** (limit + 10)).bit_length(),
        "denominator": (10 ** (limit + 10) + 1).bit_length(),
    }
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "baseline, error",
    [
        ((3, REPORT, b""), None),
        ((1, REPORT, b""), "the baseline and the change differ in exit code"),
        ((3, REPORT + " ", b""), "the baseline and the change differ in report bytes"),
        ((3, REPORT, b"note\n"), "the baseline and the change differ in stderr bytes"),
        ((1, None, b"error: x\n"), "the baseline and the change differ in exit code,"
         " report bytes, stderr bytes"),
    ],
    ids=["same", "exit_code", "report_bytes", "stderr_bytes", "all"],
)
def test_ab_mode_alternates_compares_bytes_and_takes_ratios(tmp_path, monkeypatch, baseline, error):
    ladder = _ladder(monkeypatch)
    clock = _Clock()
    monkeypatch.setattr(ladder, "time", clock)
    base_src = tmp_path / "base" / "src"
    change = (3, REPORT, b"")
    # seconds per timed run, in order: baseline, change, baseline, ...
    seconds = iter([2.0, 1.0, 4.0, 5.0, 3.0, 1.5])
    calls = []

    def fake_run(argv, **kwargs):
        side = "baseline" if kwargs["env"]["PYTHONPATH"] == str(base_src) else "change"
        assert argv[argv.index("-m") + 1 :][:2] == ["lsglue.cli", "cocycle"]
        calls.append(side)
        code, report, err = baseline if side == "baseline" else change
        if report is not None:
            Path(argv[-1]).write_text(report, encoding="utf-8")
        kwargs["stderr"].write(err)
        # the first run of each tree is the untimed warm-up
        clock.now += next(seconds) if len(calls) > 2 else 100.0
        return subprocess.CompletedProcess(argv, code)

    monkeypatch.setattr(ladder.subprocess, "run", fake_run)
    work = tmp_path / "work"
    work.mkdir()
    row = ladder.measure("cocycle", [], work, base_src.parent)
    assert calls == ["baseline", "change"] * 4
    assert row["error"] == error
    assert row["ratios"] == [0.5, 1.25, 0.5]
    assert row["ratio_median"] == 0.5 and row["wins"] == 2 and row["pairs"] == 3
    assert (row["baseline_wall_s"], row["wall_s"]) == (3.0, 1.5)
    assert (row["wall_min_s"], row["wall_max_s"]) == (1.0, 5.0)
    assert (row["exit_code"], row["report_bytes"]) == (3, len(REPORT))
    # the change's report is where run_rung's verify reads it
    assert (work / "cocycle.json").read_text(encoding="utf-8") == REPORT


def test_ab_mode_flags_a_tree_whose_runs_disagree(tmp_path, monkeypatch):
    # exit codes in call order: the two warm-ups, then baseline, change,
    # baseline, change
    ladder = _ladder(monkeypatch)
    codes = iter([3, 3, 1, 3, 3, 3, 3, 3])

    def fake_run(argv, **kwargs):
        Path(argv[-1]).write_text(REPORT, encoding="utf-8")
        return subprocess.CompletedProcess(argv, next(codes))

    monkeypatch.setattr(ladder.subprocess, "run", fake_run)
    row = ladder.measure("verify", [], tmp_path, tmp_path / "base")
    assert row["error"] == "the 3 baseline runs differ in exit code"
    # a difference between the trees in the last pair is named before it
    codes = iter([3, 3, 3, 3, 3, 3, 3, 1])
    row = ladder.measure("verify", [], tmp_path, tmp_path / "base")
    assert row["error"] == "the baseline and the change differ in exit code"


def test_ab_mode_rows_of_a_rung_against_the_same_tree(tmp_path):
    out = tmp_path / "ab.json"
    subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/ladder.py"), "--rung", "m60_k3_n2",
         "--baseline", str(ROOT), "--output", str(out)],
        capture_output=True, timeout=120, check=True,
    )
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["baseline"] == ROOT.name
    assert [row["command"] for row in doc["runs"]] == ["cocycle", "verify"]
    for row in doc["runs"]:
        assert set(row) == ROW_KEYS
        assert row["error"] is None and row["pairs"] == 3 and len(row["ratios"]) == 3
        assert row["ratio_median"] == sorted(row["ratios"])[1] and 0 <= row["wins"] <= 3
        assert 0 < row["wall_min_s"] <= row["wall_s"] <= row["wall_max_s"]
    assert [row["exit_code"] for row in doc["runs"]] == [3, 4]

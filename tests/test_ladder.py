"""Smoke test of the scaling ladder (``benchmarks/ladder.py``) on its
smallest rung."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROW_KEYS = {
    "rung", "m", "k", "n", "ambient_dim", "coordinate_bounds", "command", "ran",
    "exit_code", "wall_s", "error", "report_bytes", "stderr_bytes", "bits",
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
        assert set(row["bits"]) == {"a_hat", "beta", "defect"}
        for bits in row["bits"].values():
            assert set(bits) == {"numerator", "denominator"}
    # an obstructed interval cover: cocycle exits 3, verify of its report 4
    assert [row["exit_code"] for row in doc["runs"]] == [3, 4]

#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the lsglue CLI.

    python3 perfbench/run.py --workload quad_3d --seed 0 --seconds 38 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` it runs
``python -m lsglue.cli cocycle`` and then ``verify`` on the report just
written as a closed loop: one client, one child process at a time, no
threads.  Each round also times the bare import of ``lsglue.cli`` (the
start-up every CLI call pays) and, before each command, the stdlib-only
reference kernel ``calib.py``; every other round runs in reverse order.
The reported timings are medians of wall time rescaled by
REFERENCE_S / median(calib.py wall time), which takes host speed drift out
of them; the raw medians are on the info line.  With ``--trace 1`` it runs
one checked CLI round, then alternates untraced and traced in-process passes
of both commands and reports each layer's self time and counters.

Every child writes to files, never to a pipe.  Every invocation is checked:
its exit code against the workload's pinned code, its report bytes against
the first report of the run, which must pass the independent ``fractions``
oracle and match the pinned sha256 when the seed has a pin.  In-process
reports must equal the CLI's bytes.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before it
holds sample counts, tails, digests and the host description.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr
from pathlib import Path

from oracle import check_report
from tracing import LAYER_METRICS, Tracer
from workloads import EXIT_CODES, GLUE_COEFFS, WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
PINS = Path(__file__).resolve().parent / "pins.json"
CALIB = Path(__file__).resolve().parent / "calib.py"
# Timings are reported as on a host where calib.py takes this long.
REFERENCE_S = 0.25
DEADLINE_S = 170.0  # a run must end within 180 s
PROBES_PER_ROUND = 3

# Children start without `site` (-S): lsglue needs only the standard library,
# and start-up hooks installed in site-packages are host-specific.  Bytecode is
# cached under the build directory, as it would be for an installed package.
PYTHON = [sys.executable, "-S"]
CHILD_ENV = {
    key: value
    for key, value in os.environ.items()
    if not key.startswith("PYTHON") and key != "LSGLUE_BACKEND"
}
CHILD_ENV.update(
    PYTHONPATH=str(SRC),
    PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
    PYTHONHASHSEED="0",
    LSGLUE_BACKEND="fractions",
)


class BenchError(Exception):
    pass


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def more_time(start: float, last_round: float, seconds: float) -> bool:
    """Start another round if it would end nearer to ``seconds`` than stopping now."""
    return time.perf_counter() - start + last_round / 2 < seconds


def spawn(argv: list, stdout: Path, stderr: Path, deadline: float):
    """Run one child with stdout and stderr in files, reaped by wait4.

    Returns (exit code, wall seconds, peak RSS in KiB); a child still running
    at ``deadline`` (monotonic clock) is killed.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [*PYTHON, *argv], CHILD_ENV, file_actions=actions)
    ready = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready = bool(select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))[0])
        finally:
            os.close(pidfd)
    finally:
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if not ready:
        raise BenchError(f"child timed out: {' '.join(argv)}")
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, deadline: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.dir = WORK / workload
        self.docs = write_inputs(workload, seed, self.dir / "inputs")
        self.deadline = deadline
        self.expected_exit = EXIT_CODES[workload]
        self.exact = GLUE_COEFFS if WORKLOADS[workload][4] else None
        self.pins = json.loads(PINS.read_text()).get(str(seed), {}).get(workload)
        self.attempted = 0
        self.failed = 0
        self.reference = {}  # cmd -> (sha256, passed its checks)
        self.problems = []
        self.samples = {"cocycle_s": [], "verify_s": [], "setup_s": [], "env.calib_s": []}
        self.peak_rss_kb = 0
        self.stderr_bytes = {}

    def argv(self, cmd: str, output: Path) -> list:
        inputs = self.dir / "inputs"
        argv = [
            "-m", "lsglue.cli", cmd,
            "--dataset", str(inputs / "dataset.json"),
            "--cover", str(inputs / "cover.json"),
            "--model", str(inputs / "model.json"),
            "--max-degree", "2",
            "--output", str(output),
        ]
        if cmd == "verify":
            argv += ["--cochain", str(self.dir / "ref-cocycle.json")]
        return argv

    def probe(self) -> float:
        code, wall, _ = spawn(
            ["-c", "import lsglue.cli"], self.dir / "probe.out", self.dir / "probe.err", self.deadline
        )
        if code != 0:
            raise BenchError(f"import lsglue.cli exited {code}: {(self.dir / 'probe.err').read_text()}")
        return wall

    def calibrate(self) -> None:
        code, wall, _ = spawn([str(CALIB)], self.dir / "calib.out", self.dir / "calib.err", self.deadline)
        if code != 0:
            raise BenchError(f"calib.py exited {code}: {(self.dir / 'calib.err').read_text()}")
        self.samples["env.calib_s"].append(wall)

    def judge(self, cmd: str, code: int, output: Path) -> None:
        """Count one invocation; the first one of each command is the reference."""
        self.attempted += 1
        digest = sha256(output) if output.exists() else None
        if cmd not in self.reference:
            self.reference[cmd] = (digest, self.check_reference(cmd, code, output, digest))
        ref_digest, ref_ok = self.reference[cmd]
        if code != self.expected_exit[cmd] or digest != ref_digest or not ref_ok:
            self.failed += 1
            if code != self.expected_exit[cmd]:
                self.problems.append(f"{cmd} exited {code}, expected {self.expected_exit[cmd]}")
            if digest != ref_digest:
                self.problems.append(f"{cmd} report bytes differ from the run's first report")

    def check_reference(self, cmd: str, code: int, output: Path, digest) -> bool:
        if code != self.expected_exit[cmd] or digest is None:
            self.problems.append(
                f"reference {cmd} exited {code} (expected {self.expected_exit[cmd]}),"
                f" report {'missing' if digest is None else 'unchecked'}"
            )
            return False
        try:
            problems = check_report(
                self.docs, json.loads(output.read_text()), self.seed, self.exact
            )
        except (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError) as err:
            problems = [f"report does not have the expected shape: {err!r}"]
        if self.pins and self.pins[cmd] != digest:
            problems.append(f"{cmd} report sha256 {digest} differs from the pin")
        self.problems += [f"{cmd}: {p}" for p in problems]
        return not problems

    def cli(self, cmd: str, reference: bool = False) -> None:
        output = self.dir / (f"ref-{cmd}.json" if reference else f"{cmd}.json")
        stderr = self.dir / f"{cmd}.stderr"
        output.unlink(missing_ok=True)
        code, wall, rss = spawn(self.argv(cmd, output), self.dir / f"{cmd}.stdout", stderr, self.deadline)
        self.samples[f"{cmd}_s"].append(wall)
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        self.stderr_bytes[cmd] = stderr.stat().st_size
        self.judge(cmd, code, output)

    def setup(self) -> None:
        """Compile the package once (untimed), then run the checked first round."""
        self.probe()
        self.calibrate()
        self.cli("cocycle", reference=True)
        self.calibrate()
        self.cli("verify", reference=True)

    def timed(self) -> dict:
        start = time.perf_counter()
        self.setup()
        steps = [self.record_probe] * PROBES_PER_ROUND + [
            self.calibrate,
            lambda: self.cli("cocycle"),
            self.calibrate,
            lambda: self.cli("verify"),
        ]
        last = time.perf_counter() - start
        rounds = 1
        while more_time(start, last, self.seconds):
            round_start = time.perf_counter()
            for step in steps if rounds % 2 else reversed(steps):
                step()
            last = time.perf_counter() - round_start
            rounds += 1
        if not self.samples["setup_s"]:
            self.record_probe()
        scale = REFERENCE_S / statistics.median(self.samples["env.calib_s"])
        return {
            name: (statistics.median(self.samples[name]) * scale, "s")
            for name in ("cocycle_s", "verify_s", "setup_s")
        } | {"peak_rss_mb": (self.peak_rss_kb / 1024, "MB")}

    def record_probe(self) -> None:
        self.samples["setup_s"].append(self.probe())

    def traced(self) -> dict:
        start = time.perf_counter()
        self.setup()
        cli = import_lsglue().cli
        tracer = Tracer()
        passes = {"untraced": [], "traced": []}
        layers = {"cocycle": [], "verify": []}
        last = time.perf_counter() - start
        n = 0
        while n < 2 or more_time(start, last, self.seconds):
            mode = "traced" if n % 2 else "untraced"
            pass_start = time.perf_counter()
            total = 0.0
            if mode == "traced":
                tracer.install()
            try:
                for cmd in ("cocycle", "verify"):
                    request = f"{cmd}#{n}"
                    output = self.dir / f"inproc-{cmd}.json"
                    stderr = self.dir / f"inproc-{cmd}.stderr"
                    argv = self.argv(cmd, output)[2:]
                    output.unlink(missing_ok=True)
                    with open(stderr, "w", encoding="utf-8") as err, redirect_stderr(err):
                        t0 = time.perf_counter()
                        try:
                            code = (
                                tracer.call(request, cli.main, argv)
                                if mode == "traced"
                                else cli.main(argv)
                            )
                        except Exception:  # a child would exit 1 with this traceback
                            self.problems.append(traceback.format_exc(limit=-3))
                            code = 1
                        total += time.perf_counter() - t0
                    self.judge(cmd, code, output)
                    if mode == "traced":
                        report_bytes = output.stat().st_size if output.exists() else 0
                        layers[cmd].append(
                            tracer.layer_metrics(request, report_bytes, stderr.stat().st_size)
                        )
            finally:
                tracer.uninstall()
            passes[mode].append(total)
            self.calibrate()
            last = time.perf_counter() - pass_start
            n += 1
        tracer.write(self.dir / "spans.json")
        metrics = {}
        for cmd, runs in layers.items():
            for name, unit, _ in LAYER_METRICS:
                metrics[f"{cmd}.{name}"] = (statistics.median(r[name] for r in runs), unit)
        metrics["trace.overhead"] = (
            statistics.median(passes["traced"]) / statistics.median(passes["untraced"]),
            "ratio",
        )
        metrics["failed_frac"] = (self.failed / self.attempted, "ratio")
        metrics["env.calib_s"] = (statistics.median(self.samples["env.calib_s"]), "s")
        return metrics

    def info(self) -> dict:
        summary = {
            name: {"n": len(xs), "median": statistics.median(xs), "max": max(xs), "values": xs}
            for name, xs in self.samples.items()
            if xs
        }
        return {
            "workload": self.workload,
            "seed": self.seed,
            "samples": summary,
            "timing_scale": REFERENCE_S / statistics.median(self.samples["env.calib_s"]),
            "sha256": {cmd: ref[0] for cmd, ref in self.reference.items()},
            "pinned": self.pins is not None,
            "stderr_bytes": self.stderr_bytes,
            "problems": self.problems[:20],
            "host": host_info(),
        }


def import_lsglue():
    """Import the package under test into this process, as the children see it."""
    os.environ["LSGLUE_BACKEND"] = "fractions"
    sys.pycache_prefix = str(WORK / "pycache")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lsglue.cli

    return lsglue


def host_info() -> dict:
    try:
        import gmpy2  # noqa: F401

        gmp = "gmpy2 importable; not measured (children pin LSGLUE_BACKEND=fractions)"
    except ImportError:
        gmp = "skipped: gmpy2 absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "backend": import_lsglue().BACKEND,
        "gmp_column": gmp,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lsglue" / "cli.py").is_file():
        print(f"error: no lsglue sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, time.monotonic() + DEADLINE_S)
    try:
        measured = bench.traced() if args.trace else bench.timed()
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(bench.info()))
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

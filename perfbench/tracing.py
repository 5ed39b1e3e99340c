"""In-process span tracing of lsglue, installed from outside the package.

The tracer replaces module attributes with timing wrappers for the length of
a traced pass and restores them afterwards; nothing under ``src/`` changes.
A name bound by ``from ... import`` is wrapped where it is looked up, in the
importing module (``lsglue.assembly.enumerate_nerve``, not
``lsglue.data.enumerate_nerve``), and ``NormalSystem.restricted`` is wrapped
on its class.  A target that no longer exists is skipped, so its metrics read
0 instead of failing the run.

Spans are kept in memory as (name, start, end, parent, request) and written
once the run ends.  A layer's self time is the duration of its spans minus
the time covered by their direct children, so ``assemble_cochain`` excludes
the ``verify_cocycle`` it calls and ``cli.self`` is whatever the command
spends outside every wrapped call.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module, class or None, attribute, span name)
TARGETS = [
    ("lsglue.cli", None, "dataset_from_json", "data.parse"),
    ("lsglue.cli", None, "cover_from_json", "data.parse"),
    ("lsglue.assembly", None, "enumerate_nerve", "data.nerve"),
    ("lsglue.assembly", None, "build_normal_system", "model.normal_system"),
    ("lsglue.model", "NormalSystem", "restricted", "model.restrict"),
    ("lsglue.assembly", None, "solve_least_squares", "model.solve"),
    ("lsglue.model", None, "solve_square", "linalg.solve_square"),
    ("lsglue.koszul", None, "solve_square", "linalg.solve_square"),
    ("lsglue.koszul", None, "solve_general", "linalg.solve_general"),
    ("lsglue.assembly", None, "translate", "koszul.translate"),
    ("lsglue.assembly", None, "koszul_diff", "koszul.diff"),
    ("lsglue.assembly", None, "solve_homotopy_deg1", "koszul.homotopy_deg1"),
    ("lsglue.assembly", None, "solve_homotopy_deg2", "koszul.homotopy_deg2"),
    ("lsglue.assembly", None, "koszul_to_json", "koszul.to_json"),
    ("lsglue.cli", None, "koszul_to_json", "koszul.to_json"),
    ("lsglue.assembly", None, "koszul_from_json", "koszul.from_json"),
    ("lsglue.cli", None, "fit_all_cells", "assembly.fit_all"),
    ("lsglue.cli", None, "assemble_cochain", "assembly.assemble_self"),
    ("lsglue.cli", None, "verify_cocycle", "assembly.verify"),
    ("lsglue.assembly", None, "verify_cocycle", "assembly.verify"),
    ("lsglue.cli", None, "report_to_json", "assembly.report_to_json"),
    ("lsglue.cli", None, "cochain_from_json", "assembly.cochain_from_json"),
    ("lsglue.cli", None, "_json_text", "cli.emit"),
    ("lsglue.cli", None, "_emit", "cli.emit"),
    ("lsglue.cli", None, "_dump_failures", "cli.dump_failures"),
]

# Spans whose arguments and results the counters below read.
_KEEP = {
    "data.nerve",
    "model.restrict",
    "model.solve",
    "linalg.solve_general",
    "koszul.homotopy_deg2",
    "assembly.verify",
}

# Per-command layer metrics: (name, unit, better).  Printed as <cmd>.<name>.
LAYER_METRICS = [
    ("data.parse_s", "s", "lower"),
    ("data.nerve_s", "s", "lower"),
    ("data.nerve_cells", "count", "lower"),
    ("model.normal_system_s", "s", "lower"),
    ("model.restrict_s", "s", "lower"),
    ("model.restrict_calls", "count", "lower"),
    ("model.points_scanned", "count", "lower"),
    ("model.points_kept", "count", "lower"),
    ("model.restrict_yield", "ratio", "higher"),
    ("model.solve_s", "s", "lower"),
    ("model.solve_calls", "count", "lower"),
    ("model.nmat_max_bits", "bits", "lower"),
    ("model.ahat_max_bits", "bits", "lower"),
    ("linalg.solve_square_s", "s", "lower"),
    ("linalg.solve_square_calls", "count", "lower"),
    ("linalg.solve_general_s", "s", "lower"),
    ("linalg.solve_general_calls", "count", "lower"),
    ("linalg.solve_general_rows", "count", "lower"),
    ("koszul.translate_s", "s", "lower"),
    ("koszul.translate_calls", "count", "lower"),
    ("koszul.diff_s", "s", "lower"),
    ("koszul.diff_calls", "count", "lower"),
    ("koszul.homotopy_deg1_s", "s", "lower"),
    ("koszul.homotopy_deg1_calls", "count", "lower"),
    ("koszul.homotopy_deg2_s", "s", "lower"),
    ("koszul.homotopy_deg2_calls", "count", "lower"),
    ("koszul.deg2_nonzero", "count", "higher"),
    ("koszul.deg2_yield", "ratio", "higher"),
    ("koszul.to_json_s", "s", "lower"),
    ("koszul.from_json_s", "s", "lower"),
    ("assembly.fit_all_s", "s", "lower"),
    ("assembly.assemble_self_s", "s", "lower"),
    ("assembly.verify_s", "s", "lower"),
    ("assembly.report_to_json_s", "s", "lower"),
    ("assembly.cochain_from_json_s", "s", "lower"),
    ("assembly.pairs", "count", "lower"),
    ("assembly.triples", "count", "lower"),
    ("assembly.obstructed", "count", "lower"),
    ("assembly.beta_max_bits", "bits", "lower"),
    ("assembly.defect_max_bits", "bits", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.dump_failures_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.stderr_bytes", "bytes", "lower"),
]


def _bits(values) -> int:
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "args", "result")

    def __init__(self, name, parent, request):
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = 0.0
        self.args = self.result = None


class Tracer:
    """Wraps the TARGETS for the length of a pass and records their spans."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.request = None

    def _wrap(self, name, fn):
        keep = name in _KEEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.request)
            self._stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if keep:
                span.args, span.result = args, result
            return result

        return wrapper

    def install(self) -> None:
        for module_name, class_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call(self, request: str, fn, *args):
        """Run ``fn`` as the root span ``cli.self`` of one command."""
        self.request = request
        try:
            return self._wrap("cli.self", fn)(*args)
        finally:
            self.request = None

    def layer_metrics(self, request: str, report_bytes: int, stderr_bytes: int) -> dict:
        """Self times and counters of one command, keyed as in LAYER_METRICS;
        drops the kept arguments and results afterwards."""
        spans = [s for s in self.spans if s.request == request]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for span in spans:
            self_s[span.name] += span.end - span.start
            calls[span.name] += 1
            if span.parent is not None:
                self_s[span.parent.name] -= span.end - span.start
        kept = defaultdict(list)
        for span in spans:
            if span.name in _KEEP and span.result is not None:
                kept[span.name].append((span.args, span.result))
            span.args = span.result = None

        out = {}
        for metric, _, _ in LAYER_METRICS:
            layer, _, measure = metric.rpartition("_")
            if measure == "s":
                out[metric] = self_s[layer]
            elif measure == "calls":
                out[metric] = calls[layer]
        out["data.nerve_cells"] = sum(len(cells) for _, cells in kept["data.nerve"])
        restricts = kept["model.restrict"]
        scanned = sum(len(args[0].contributions) for args, _ in restricts)
        kept_points = sum(len(args[1]) for args, _ in restricts)
        out["model.points_scanned"] = scanned
        out["model.points_kept"] = kept_points
        out["model.restrict_yield"] = kept_points / scanned if scanned else 0.0
        out["model.nmat_max_bits"] = max(
            (_bits(v for row in system.nmat.rows for v in row) for _, system in restricts),
            default=0,
        )
        out["model.ahat_max_bits"] = max(
            (_bits(sol.a_hat) for _, sol in kept["model.solve"]), default=0
        )
        out["linalg.solve_general_rows"] = sum(
            args[0].nrows for args, _ in kept["linalg.solve_general"]
        )
        nonzero = sum(not r.is_zero() for _, r in kept["koszul.homotopy_deg2"])
        deg2 = calls["koszul.homotopy_deg2"]
        out["koszul.deg2_nonzero"] = nonzero
        out["koszul.deg2_yield"] = nonzero / deg2 if deg2 else 0.0
        report = kept["assembly.verify"][-1][1] if kept["assembly.verify"] else None
        pairs = report.pairs.values() if report else []
        triples = report.triples.values() if report else []
        out["assembly.pairs"] = len(pairs)
        out["assembly.triples"] = len(triples)
        out["assembly.obstructed"] = sum(check.obstructed for check in triples)
        out["assembly.beta_max_bits"] = max(
            (_bits(check.beta_constants) for check in pairs), default=0
        )
        out["assembly.defect_max_bits"] = max(
            (_bits(check.defect_constant) for check in triples), default=0
        )
        out["cli.report_bytes"] = report_bytes
        out["cli.stderr_bytes"] = stderr_bytes
        return out

    def write(self, path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": None if s.parent is None else index[id(s.parent)],
                "request": s.request,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps(rows), encoding="utf-8")

"""Command-line interface: exact chart fits, cocycle assembly, verification.

Exit codes: 0 success; 1 unreadable or malformed inputs, usage errors
included; 2 a singular (degenerate) cell; 3 an obstructed triple in
`cocycle`; 4 a failed exact check in `verify`.  Both cochain commands ask
one question of the report, ``ObstructionReport.all_verified``, which every
obstructed triple fails.

`verify` takes each cell's fit from the report's ``"a_hat"`` where N·â = -ν
holds exactly and N has full rank modulo a prime, and solves the cell
otherwise (``assembly.fit_cells``), so a singular cell (2) wins over every
fault of the cochain (1).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .assembly import (
    ObstructionReport,
    assemble_cochain,
    cell_normal_systems,
    cochain_from_json,
    fit_all_cells,
    fit_cells,
    fits_to_json,
    report_to_json,
    verify_cocycle,
)
from .data import Cover, cover_from_json, dataset_from_csv, dataset_from_json
from .errors import LsglueError, Singular, excerpt
from .koszul import koszul_to_json
from .model import affine_features, model_from_json
from .scalars import over_digit_limit

_EXIT_OK = 0
_EXIT_PARSE = 1
_EXIT_SINGULAR = 2
_EXIT_OBSTRUCTED = 3
_EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a malformed input (exit 1, one ``error:``
    line) instead of argparse's usage block and exit 2; subcommand parsers
    are built from the same class."""

    def error(self, message: str):
        raise LsglueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lsglue",
        description=(
            "Exact weighted least-squares fits on overlapping charts of a data"
            " set, assembled into a cochain of fits, pairwise homotopy"
            " witnesses, and triple-overlap obstructions, with every gluing"
            " equation checked in exact rational arithmetic."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(cmd: argparse.ArgumentParser, cover_required: bool) -> None:
        cmd.add_argument("--dataset", required=True, help="dataset JSON or CSV file")
        cmd.add_argument(
            "--cover",
            required=cover_required,
            help="cover JSON file (omitted: one chart over the whole set)",
        )
        cmd.add_argument("--model", help="model JSON file (default: affine features)")
        cmd.add_argument(
            "--max-degree",
            type=int,
            default=2,
            metavar="K",
            help="deepest overlap to enumerate (default 2; cocycle and verify accept only 2)",
        )
        cmd.add_argument("--format", choices=("json", "text"), default="json")
        cmd.add_argument("--allow-negative-weights", action="store_true")
        cmd.add_argument("--output", metavar="PATH", help="write report here instead of stdout")

    fit = sub.add_parser("fit", help="least-squares solution on every cell of the cover")
    add_common(fit, cover_required=False)

    cocycle = sub.add_parser(
        "cocycle", help="assemble fits, pair witnesses, and triple obstructions"
    )
    add_common(cocycle, cover_required=True)

    verify = sub.add_parser("verify", help="recheck a previously emitted cocycle report")
    add_common(verify, cover_required=True)
    verify.add_argument("--cochain", required=True, help="cocycle report JSON to recheck")

    return parser


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as err:
        raise LsglueError(f"{path}: not UTF-8 text (byte {err.start})") from None


def _read_json(path: str) -> dict:
    text = _read_text(path)

    def unique_keys(pairs: list) -> dict:
        # the decoder would keep only the last of repeated keys, so a second
        # value for one key (a wedge slot, say) would go unseen
        doc = dict(pairs)
        if len(doc) < len(pairs):
            counts = Counter(key for key, _ in pairs)
            key = next(key for key, count in counts.items() if count > 1)
            raise LsglueError(f"{path}: key {excerpt(repr(key))} repeated in a JSON object")
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise LsglueError(
            f"{path}: invalid JSON at line {err.lineno} column {err.colno}: {err.msg}"
        ) from None
    except ValueError:
        # Raised besides JSONDecodeError only for an over-long integer literal.
        raise LsglueError(f"{path}: {over_digit_limit('an integer literal')}") from None
    except RecursionError:
        raise LsglueError(f"{path}: JSON nested too deeply") from None


def _load_inputs(args):
    if args.dataset.endswith(".csv"):
        data = dataset_from_csv(
            _read_text(args.dataset),
            allow_negative_weights=args.allow_negative_weights,
        )
    else:
        data = dataset_from_json(
            _read_json(args.dataset),
            allow_negative_weights=args.allow_negative_weights,
        )
    if args.cover:
        cover = cover_from_json(_read_json(args.cover), data)
    else:
        cover = Cover.of(data, [("all", sorted(data.indices()))])
    if args.model:
        features = model_from_json(_read_json(args.model), data.ambient_dim)
    else:
        features = affine_features(data.ambient_dim)
    return data, cover, features


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as file:
            file.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fmt_float(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _fmt_exact(record: dict, name: str) -> str:
    """A vector written by ``assembly._exact``: exact entries, then floats."""
    exact_s = ", ".join(record[name])
    float_s = ", ".join(_fmt_float(v) for v in record[f"{name}_float"])
    return f"({exact_s}) ~ ({float_s})"


def _cell_line(label: str, record: dict) -> str:
    return f"  {label}: indices={record['indices']} a_hat={_fmt_exact(record, 'a_hat')}"


def _render_fit_text(doc: dict) -> str:
    lines = ["cells:"]
    for label, record in sorted(doc["cells"].items(), key=lambda kv: (kv[1]["degree"], kv[0])):
        lines.append(_cell_line(label, record))
    return "\n".join(lines) + "\n"


def _render_report_text(doc: dict) -> str:
    lines = ["charts:"]
    for label, record in sorted(doc["charts"].items()):
        lines.append(_cell_line(label, record))
    if doc["pairs"]:
        lines.append("pairs:")
        for label, record in sorted(doc["pairs"].items()):
            beta = {key: coeff["c0"] for key, coeff in sorted(record["beta"].items())}
            lines.append(
                f"  {label}: a_hat={_fmt_exact(record, 'a_hat')}"
                f" delta={_fmt_exact(record, 'delta')}"
                f" beta={beta} residual_zero={record['residual_zero']}"
            )
    if doc["triples"]:
        lines.append("triples:")
        for label, record in sorted(doc["triples"].items()):
            lines.append(
                f"  {label}: defect_constant={_fmt_exact(record, 'defect_constant')}"
                f" obstructed={record['obstructed']}"
                f" residual_zero={record['residual_zero']}"
            )
    metrics = doc.get("metrics")
    if metrics:
        lines.append("metrics:")
        for key in sorted(metrics):
            lines.append(f"  {key} = {_fmt_float(metrics[key])}")
    return "\n".join(lines) + "\n"


def _dump_failures(report: ObstructionReport) -> None:
    for cell, check in report.pairs.items():
        if not check.residual_zero:
            print(
                f"pair {cell.label}: residual {json.dumps(koszul_to_json(check.residual))}",
                file=sys.stderr,
            )
    for cell, check in report.triples.items():
        if not check.residual_zero:
            print(
                f"triple {cell.label}: residual {json.dumps(koszul_to_json(check.residual))}"
                f" (defect constant {check.defect_constant.to_strings()})",
                file=sys.stderr,
            )
        if check.outcome == "inconsistent":
            print(
                f"triple {cell.label}: no witness, but the defect constant is zero",
                file=sys.stderr,
            )


def _cmd_fit(args) -> int:
    _, cover, features = _load_inputs(args)
    fits = fit_cells(cell_normal_systems(cover, features, args.max_degree), betas=False)
    doc = fits_to_json(fits)
    _emit(args, _json_text(doc) if args.format == "json" else _render_fit_text(doc))
    return _EXIT_OK


def _check_cochain_degree(args) -> None:
    """The cochain ends at triples: a shallower nerve would skip the triple
    check, and a deeper one would fit cells the cochain never uses."""
    if args.max_degree != 2:
        raise LsglueError(f"{args.command} needs --max-degree 2, got {args.max_degree}")


def _cmd_cocycle(args) -> int:
    _check_cochain_degree(args)
    _, cover, features = _load_inputs(args)
    fits = fit_all_cells(cover, features, args.max_degree)
    cochain, report = assemble_cochain(fits)
    doc = report_to_json(cochain, fits, report)
    _emit(args, _json_text(doc) if args.format == "json" else _render_report_text(doc))
    if not report.all_verified():
        return _EXIT_OBSTRUCTED
    return _EXIT_OK


def _certified_cochain(args, cover: Cover, features) -> tuple:
    """(fits, cochain) for ``verify``: the fits are certified from the
    report's claims, then its cochain is parsed.  A cochain that cannot be
    read is refused only after every cell is solved, so a singular cell
    still exits 2.  The normal systems and the parsed document do not
    outlive the call, so they are not held while the report is rebuilt."""
    systems = cell_normal_systems(cover, features, args.max_degree)
    try:
        doc = _read_json(args.cochain)
    except (LsglueError, OSError):
        fit_cells(systems, betas=False)
        raise
    fits = fit_cells(systems, doc, betas=False)
    return fits, cochain_from_json(doc, fits)


def _cmd_verify(args) -> int:
    _check_cochain_degree(args)
    _, cover, features = _load_inputs(args)
    fits, cochain = _certified_cochain(args, cover, features)
    report = verify_cocycle(cochain, fits)
    doc = report_to_json(cochain, fits, report)
    _emit(args, _json_text(doc) if args.format == "json" else _render_report_text(doc))
    if not report.all_verified():
        _dump_failures(report)
        return _EXIT_VERIFY
    return _EXIT_OK


def main(argv=None) -> int:
    handlers = {"fit": _cmd_fit, "cocycle": _cmd_cocycle, "verify": _cmd_verify}
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except Singular as err:
        print(f"error: singular cell: {err}", file=sys.stderr)
        return _EXIT_SINGULAR
    except LsglueError as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_PARSE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

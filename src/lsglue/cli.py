"""Command-line interface: exact chart fits, cocycle assembly, verification.

Exit codes: 0 success; 1 unreadable or malformed inputs, usage errors
included; 2 a singular (degenerate) cell; 3 an obstructed triple in
`cocycle`; 4 a failed exact check in `verify`.  `cocycle` derives its report
from the cochain it builds (``assemble_cochain``); only `verify` runs the
check (``verify_cocycle``).  Both ask one question of the report,
``ObstructionReport.all_verified``, which every obstructed triple fails.

This module holds only the files and the exit codes: it reads the inputs,
renders and writes the report, and maps each error to its code.  The report
format and the rule that certifies a fit are ``assembly``'s, which solves a
singular cell before the cochain is parsed, so a singular cell (2) wins over
every fault of the cochain (1), an unreadable report included.

The command line is read by :func:`parse_args` from one table of options,
``_OPTIONS``, in the grammar argparse reads (``--opt value`` or
``--opt=value``, an option by a unique prefix, the last value of a repeated
option), without argparse: building its parsers would import ``shutil``,
``gettext`` and ``locale`` on every run, so a command loads no module that
``import lsglue.cli`` did not.

Nor does the module import ``json``, whose decoder, scanner and encoder
compile regular expressions at import, and so load ``re``, ``enum``,
``functools`` and ``collections``.  A document is read by the C scanner that
``json.loads`` runs (:func:`_read_json`), and ``json.loads`` reads it again
only when that gives no document, to raise json's own error; strings are
escaped by json's C function, the report is written by :func:`_json_text`,
and the failure dump by json's C encoder (:func:`_compact_text`).
"""

from __future__ import annotations

import gc
import sys
from math import isfinite
from types import SimpleNamespace

from .assembly import (
    ObstructionReport,
    ReportStrings,
    assemble_cochain,
    cell_normal_systems,
    claims_from_json,
    cochain_from_json,
    fit_all_cells,
    fit_cells,
    fits_to_json,
    koszul_to_json,
    raise_if_singular,
    report_to_json,
    verify_cocycle,
)
from .data import Cover, cover_from_json, dataset_from_csv, dataset_from_json
from .errors import LsglueError, Singular, excerpt
from .model import affine_features, model_from_json
from .scalars import over_digit_limit

try:
    # the C functions that json itself runs on CPython
    from _json import encode_basestring_ascii as _ENCODE
    from _json import make_encoder as _make_encoder
    from _json import make_scanner as _make_scanner
except ImportError:  # an interpreter without json's accelerator
    from json.encoder import encode_basestring_ascii as _ENCODE

    _make_encoder = _make_scanner = None

_EXIT_OK = 0
_EXIT_PARSE = 1
_EXIT_SINGULAR = 2
_EXIT_OBSTRUCTED = 3
_EXIT_VERIFY = 4


# A quoted value in a message, or a run of characters without a space;
# ``re`` is imported and the pattern compiled on first use, so that a run
# without an error does not pay for them.
_VALUE = r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\S+"""


def _bounded(message: str) -> str:
    """``message`` with each quoted value, and each unquoted word, cut by
    ``errors.excerpt``: a file-system error echoes a path, which may be of
    any length."""
    import re

    return re.sub(_VALUE, lambda match: excerpt(match.group()), message)


_DESCRIPTION = """\
Exact weighted least-squares fits on overlapping charts of a data set,
assembled into a cochain of fits, pairwise homotopy witnesses, and
triple-overlap obstructions, with every gluing equation checked in exact
rational arithmetic."""

_COMMANDS = {
    "fit": "least-squares solution on every cell of the cover",
    "cocycle": "assemble fits, pair witnesses, and triple obstructions",
    "verify": "recheck a previously emitted cocycle report",
}
_EVERY = tuple(_COMMANDS)
_HELP = ("-h", "--help")

# Each option: its attribute, its kind (str for a path, int, a tuple of the
# words it takes, or bool for a flag), its default, its help line, the
# commands that take it and the commands that require it.
_OPTIONS = {
    "--dataset": ("dataset", str, None, "dataset JSON or CSV file", _EVERY, _EVERY),
    "--cover": (
        "cover",
        str,
        None,
        "cover JSON file (omitted: one chart over the whole set)",
        _EVERY,
        ("cocycle", "verify"),
    ),
    "--model": ("model", str, None, "model JSON file (default: affine features)", _EVERY, ()),
    "--max-degree": (
        "max_degree",
        int,
        2,
        "deepest overlap to enumerate (default 2; cocycle and verify accept only 2)",
        _EVERY,
        (),
    ),
    "--format": ("format", ("json", "text"), "json", "report format (default json)", _EVERY, ()),
    "--allow-negative-weights": (
        "allow_negative_weights",
        bool,
        False,
        "accept points of negative weight",
        _EVERY,
        (),
    ),
    "--output": ("output", str, None, "write report here instead of stdout", _EVERY, ()),
    "--cochain": ("cochain", str, None, "cocycle report JSON to recheck", ("verify",), ("verify",)),
}


def _choices(words) -> str:
    return ", ".join(map(repr, words))


def _option(arg: str, names: list) -> tuple | None:
    """How argparse reads ``arg`` among the options ``names``: None for a
    value; otherwise the option it names, exactly or by a unique prefix
    (None for an unknown option), and the value written after its ``=``
    (None if there is none)."""
    if not arg.startswith("-") or arg == "-":
        return None
    name, equals, value = arg.partition("=")
    explicit = value if equals else None
    if name in names:
        return name, explicit
    if arg.startswith("--"):
        matches = [option for option in names if option.startswith(name)]
        if len(matches) > 1:
            raise LsglueError(f"ambiguous option: {excerpt(arg)} could match {', '.join(matches)}")
        if matches:
            return matches[0], explicit
    # a negative number, or an argument with a space, is a value; re is
    # imported here, as only an unknown argument that starts with - gets here
    import re

    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None
    return None, None


def _spelling(name: str, kind) -> str:
    """``name`` and its value as the help writes them."""
    if kind is bool:
        return name
    if type(kind) is tuple:
        return f"{name} {'|'.join(kind)}"
    return f"{name} {'K' if kind is int else 'PATH'}"


def _help(command: str | None) -> str:
    """The help of ``command``, or of the program when None: a usage line,
    then each command or option with its help line."""
    rows = [("-h, --help", "show this help and exit")]
    if command is None:
        usage = f"{{{','.join(_COMMANDS)}}} ..."
        heading, description = "commands", _DESCRIPTION
        rows += _COMMANDS.items()
    else:
        heading, description = "options", _COMMANDS[command]
        words = [command]
        for name, (_, kind, _, text, takes, requires) in _OPTIONS.items():
            if command in takes:
                spelling = _spelling(name, kind)
                words.append(spelling if command in requires else f"[{spelling}]")
                rows.append((spelling, text))
        usage = " ".join(words)
    width = max(len(left) for left, _ in rows) + 2
    lines = [f"usage: lsglue {usage}", "", description, "", f"{heading}:"]
    lines += [f"  {left:<{width}}{text}" for left, text in rows]
    return "\n".join(lines) + "\n"


def parse_args(argv: list) -> SimpleNamespace:
    """The command that ``argv`` names, and the value of each option it
    takes, read as argparse reads them: ``--opt value`` or ``--opt=value``,
    an option by a unique prefix of its name, the last value of a repeated
    option, and what follows ``--`` left unread.  ``-h`` or ``--help``
    writes the help to stdout and raises ``SystemExit(0)``; a usage error
    raises ``LsglueError``, with each value it echoes cut by ``excerpt``."""
    if not argv:
        raise LsglueError("the following arguments are required: command")
    command, *rest = argv
    if command not in _COMMANDS:
        if command in ("-h", "--h", "--he", "--hel", "--help"):
            sys.stdout.write(_help(None))
            raise SystemExit(0)
        raise LsglueError(
            f"argument command: invalid choice: {excerpt(repr(command))}"
            f" (choose from {_choices(_COMMANDS)})"
        )
    taken = {name: row for name, row in _OPTIONS.items() if command in row[4]}
    values = {attr: default for attr, _, default, *_ in taken.values()}
    cut = rest.index("--") if "--" in rest else len(rest)
    args = rest[:cut]
    options = [_option(arg, [*_HELP, *taken]) for arg in args]
    extras = []
    i = 0
    while i < len(args):
        arg, option = args[i], options[i]
        i += 1
        if option is None or option[0] is None:
            extras.append(arg)
            continue
        name, value = option
        attr, kind = (None, bool) if name in _HELP else taken[name][:2]
        if kind is bool:
            if value is not None:
                shown = "/".join(_HELP) if attr is None else name
                raise LsglueError(
                    f"argument {shown}: ignored explicit argument {excerpt(repr(value))}"
                )
            if attr is None:
                sys.stdout.write(_help(command))
                raise SystemExit(0)
            value = True
        elif value is None:
            if i == len(args) or options[i] is not None:
                raise LsglueError(f"argument {name}: expected one argument")
            value = args[i]
            i += 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise LsglueError(
                    f"argument {name}: invalid int value: {excerpt(repr(value))}"
                ) from None
        elif type(kind) is tuple and value not in kind:
            raise LsglueError(
                f"argument {name}: invalid choice: {excerpt(repr(value))}"
                f" (choose from {_choices(kind)})"
            )
        values[attr] = value
    missing = [
        name
        for name, (attr, *_, requires) in taken.items()
        if command in requires and values[attr] is None
    ]
    if missing:
        raise LsglueError(f"the following arguments are required: {', '.join(missing)}")
    extras += rest[cut:]
    if extras:
        raise LsglueError(f"unrecognized arguments: {excerpt(' '.join(extras))}")
    return SimpleNamespace(command=command, **values)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except UnicodeDecodeError as err:
        raise LsglueError(f"{path}: not UTF-8 text (byte {err.start})") from None


# What json.decoder skips around a document.
_BLANK = " \t\n\r"

# json.decoder's spelling of the constants strict JSON lacks.
_CONSTANTS = {"-Infinity": float("-inf"), "Infinity": float("inf"), "NaN": float("nan")}


def _read_json(path: str) -> dict:
    """The document in the file ``path``, as ``json.loads`` reads it, with a
    key repeated in one object refused.  The document is scanned by the C
    scanner ``json.loads`` runs on CPython, with json's defaults, without
    importing ``json``; if that gives no document, or ``_json`` is missing,
    ``json.loads`` reads the text again, so each error is json's own."""
    text = _read_text(path)

    def unique_keys(pairs: list) -> dict:
        # the decoder would keep only the last of repeated keys, so a second
        # value for one key (a wedge slot, say) would go unseen
        doc = dict(pairs)
        if len(doc) < len(pairs):
            counts = dict.fromkeys(doc, 0)
            for key, _ in pairs:
                counts[key] += 1
            key = next(key for key, count in counts.items() if count > 1)
            raise LsglueError(f"{path}: key {excerpt(repr(key))} repeated in a JSON object")
        return doc

    if _make_scanner is not None:
        context = SimpleNamespace(
            strict=True,
            object_hook=None,
            object_pairs_hook=unique_keys,
            parse_float=float,
            parse_int=int,
            parse_constant=_CONSTANTS.__getitem__,
        )
        try:
            doc, end = _make_scanner(context)(text, len(text) - len(text.lstrip(_BLANK)))
            if not text[end:].strip(_BLANK):
                return doc
        except Exception:  # json.loads below raises it again, or its own error
            pass
    import json

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


def _emit(args, doc: dict, render_text) -> None:
    """Write ``doc`` by :func:`_json_text`, or by ``render_text`` for the text
    format, which spells chart names as they are: as UTF-8, to ``--output``
    or to stdout whatever the encoding of stdout."""
    text = _json_text(doc) if args.format == "json" else render_text(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as file:
            file.write(text)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))


def _float_text(value: float) -> str:
    """A float as ``json.dumps(allow_nan=False)`` writes it: NaN and the
    infinities are refused with its ``ValueError``, as RFC 8259 JSON has no
    spelling for them."""
    if isfinite(value):
        return float.__repr__(value)
    raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")


# The JSON text of a leaf, by its type.
_LEAF = {
    str: _ENCODE,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)`` and a
    newline, byte for byte, for a document of dicts with string keys, lists,
    strings, ints, floats, bools and None (the types themselves, no
    subclasses); a NaN or an infinity raises the same ``ValueError``.

    A list of leaves is rendered once per depth: the report holds one list
    object per vector (``assembly.ReportStrings``), â's in ``a_hat``, in α
    and in every slot's ``base``.  Such a list is held by ``doc`` while this
    runs, so its ``id`` names it.  The cache of rendered lists is dropped
    on return: :func:`_write` is not a closure, so no reference cycle keeps
    it alive.
    """
    out = []
    _write(doc, 0, out.append, {})
    out.append("\n")
    return "".join(out)


def _write(node, depth: int, append, lists: dict) -> None:
    """Append the text of ``node`` at ``depth`` for :func:`_json_text`;
    ``lists`` maps (id, depth) of each list of leaves to its text."""
    if type(node) is dict:
        if not node:
            append("{}")
            return
        newline = "\n" + "  " * (depth + 1)
        separator = "{" + newline
        for key in sorted(node):
            append(f"{separator}{_ENCODE(key)}: ")
            _write(node[key], depth + 1, append, lists)
            separator = "," + newline
        append("\n" + "  " * depth + "}")
    elif type(node) is list:
        if not node:
            append("[]")
            return
        key = (id(node), depth)
        text = lists.get(key)
        if text is None:
            newline = "\n" + "  " * (depth + 1)
            try:
                if type(node[0]) is str:
                    items = map(_ENCODE, node)
                else:
                    items = [_LEAF[type(item)](item) for item in node]
                text = f"[{newline}{(',' + newline).join(items)}\n{'  ' * depth}]"
            except (KeyError, TypeError):  # not a list of leaves
                separator = "[" + newline
                for item in node:
                    append(separator)
                    _write(item, depth + 1, append, lists)
                    separator = "," + newline
                append("\n" + "  " * depth + "]")
                return
            lists[key] = text
        append(text)
    else:
        append(_LEAF.get(type(node), _unserializable)(node))


def _unserializable(node):
    """Refuse ``node``, of no JSON type, with json's ``TypeError``."""
    raise TypeError(f"Object of type {node.__class__.__name__} is not JSON serializable")


def _compact_text(doc) -> str:
    """``json.dumps(doc, allow_nan=False)``: json's C encoder, built per call
    as ``json.dumps`` builds it (an error leaves its dict of open containers
    filled), or ``json.dumps`` itself where ``_json`` is missing."""
    if _make_encoder is None:
        import json

        return json.dumps(doc, allow_nan=False)
    encoder = _make_encoder({}, _unserializable, _ENCODE, None, ": ", ", ", False, False, False)
    return "".join(encoder(doc, 0))


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


def _dump_failures(report: ObstructionReport, fits: dict, strings: ReportStrings) -> None:
    """Each failed check's residual on stderr, as the Koszul element at its
    cell's â, its values converted by the ``strings`` that wrote the report:
    a pair's from its ``residual_element``; a triple's by its
    ``residual_to_json``, whose constants, -defect, are spelled from the
    defect's strings, so the bases and defects are not converted again."""
    for cell, check in report.pairs.items():
        if not check.residual_zero:
            element = check.residual_element(fits[cell].base)
            residual = _compact_text(koszul_to_json(element, strings))
            print(f"pair {cell.label}: residual {residual}", file=sys.stderr)
    for cell, check in report.triples.items():
        if not check.residual_zero:
            residual = _compact_text(check.residual_to_json(fits[cell].base, strings))
            print(
                f"triple {cell.label}: residual {residual}"
                f" (defect constant {strings.vector(check.defect_constant)})",
                file=sys.stderr,
            )
        if check.obstructed and check.defect_constant.is_zero():
            print(
                f"triple {cell.label}: no witness, but the defect constant is zero",
                file=sys.stderr,
            )


def _cmd_fit(args) -> int:
    _, cover, features = _load_inputs(args)
    fits = fit_cells(cell_normal_systems(cover, features, args.max_degree), betas=False)
    doc = fits_to_json(fits)
    _emit(args, doc, _render_fit_text)
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
    _emit(args, doc, _render_report_text)
    if not report.all_verified():
        return _EXIT_OBSTRUCTED
    return _EXIT_OK


def _certified_cochain(args, cover: Cover, features) -> tuple:
    """(fits, cochain) for ``verify``: the fits are certified from the
    report's claims, then its cochain is parsed.  A cochain that cannot be
    read is refused only after ``assembly.raise_if_singular``, so a singular
    cell still exits 2.  The normal systems and the parsed document do not
    outlive the call, so they are not held while the report is rebuilt."""
    systems = cell_normal_systems(cover, features, args.max_degree)
    try:
        doc = _read_json(args.cochain)
    except (LsglueError, OSError):
        raise_if_singular(systems)
        raise
    # one document, so each list of literals is read once across the claims and the cochain
    seen = {}
    fits = fit_cells(systems, claims_from_json(doc, systems, seen), betas=False)
    return fits, cochain_from_json(doc, fits, seen)


def _cmd_verify(args) -> int:
    _check_cochain_degree(args)
    _, cover, features = _load_inputs(args)
    fits, cochain = _certified_cochain(args, cover, features)
    report = verify_cocycle(cochain, fits)
    strings = ReportStrings()
    doc = report_to_json(cochain, fits, report, strings)
    _emit(args, doc, _render_report_text)
    if not report.all_verified():
        _dump_failures(report, fits, strings)
        return _EXIT_VERIFY
    return _EXIT_OK


def main(argv=None) -> int:
    """Run one command and return its exit code.  The cyclic garbage
    collector is paused meanwhile, and left as it was found: the pipeline's
    values hold no reference cycles, so a collection would only rescan
    live data."""
    handlers = {"fit": _cmd_fit, "cocycle": _cmd_cocycle, "verify": _cmd_verify}
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return handlers[args.command](args)
    except Singular as err:
        print(f"error: singular cell: {err}", file=sys.stderr)
        return _EXIT_SINGULAR
    except LsglueError as err:
        print(f"error: {err}", file=sys.stderr)
        return _EXIT_PARSE
    except OSError as err:
        print(f"error: {_bounded(str(err))}", file=sys.stderr)
        return _EXIT_PARSE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

"""One job per module: ``koszul`` holds the algebra, ``assembly`` the report
format and the rule that certifies a fit, ``cli`` the files and exit codes.
Each fact is stated once: a pair's (δ, β) in the fit loop, a triple's verdict
in its witness and residual, the literal grammar in one function, and each
exact operation in one function: sums of integer rows, lifts over an lcm, the
residual M·x - b and the long-power guard.  No module imports a name it does
not use."""

import ast
import inspect
import json
import re
from pathlib import Path

from lsglue import assembly, cli, koszul, linalg, model, scalars
from lsglue.data import cover_from_json, dataset_from_json
from lsglue.model import affine_features

ROOT = Path(__file__).resolve().parent.parent


def test_koszul_holds_no_json_form():
    for name in ("re", "rat_str", "rational_from_string"):
        assert not hasattr(koszul, name), name
    assert [name for name in vars(koszul) if "json" in name.lower()] == []


def test_cli_imports_nothing_from_koszul_or_linalg():
    tree = ast.parse(Path(inspect.getfile(cli)).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert not {"koszul", "linalg", "lsglue.koszul", "lsglue.linalg"} & imported


def _toy_systems(cover_file):
    data = dataset_from_json(json.loads((ROOT / "sampledata/toy5.json").read_text()))
    cover_doc = json.loads((ROOT / "sampledata" / cover_file).read_text())
    return assembly.cell_normal_systems(cover_from_json(cover_doc, data), affine_features(1), 2)


def test_each_fact_is_stated_once():
    # a triple's verdict is its witness and residual; the fit loop keeps each
    # pair's (δ, β) under its chart names, where assemble_cochain reads them
    # without an index of its own; and one function is the literal grammar
    assert not hasattr(assembly.TripleCheck, "outcome")
    fits = assembly.fit_cells(_toy_systems("cover_three_charts.json"), betas=True)
    assert not hasattr(fits, "betas")
    assert list(fits.pairs) == [("D1", "D2"), ("D1", "D3"), ("D2", "D3")]
    bases = {cell.chart_names: fit.base for cell, fit in fits.items()}
    for (name_i, name_j), (delta, _) in fits.pairs.items():
        assert delta == bases[(name_j,)] - bases[(name_i,)]
    assert "_cells_by_names" not in assembly.assemble_cochain.__code__.co_names
    # scalars holds no pattern: _literal, which every literal reader calls,
    # is the one grammar
    assert [value for value in vars(scalars).values() if isinstance(value, re.Pattern)] == []
    for reader in (scalars.rational_from_string, scalars.literal_pair, scalars.literal_row):
        assert "_literal(" in inspect.getsource(reader)
    # vector sums are add_rows, lifts over an lcm are over_lcm, the claim
    # and pair checks read one residual, and one guard refuses long powers:
    # the normal sums call it on integer pairs, never through the rational
    # FeatureMap.evaluate
    assert not hasattr(linalg.Vector, "_combine")
    assert not hasattr(linalg, "integer_row")
    for check in (assembly._solves, assembly._pair_linear):
        assert "_residual" in check.__code__.co_names, check.__name__
    for caller in (model.FeatureMap.evaluate, model._evaluate):
        assert "_refuse_long_powers" in caller.__code__.co_names, caller.__name__
    tree = ast.parse(inspect.getsource(model._evaluate))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not {"evaluate", "rat"} & named


def test_fit_cells_takes_claims_not_a_report(monkeypatch):
    # a whole report passed as the claims has no cell among its keys, so it
    # claims nothing, and every cell is solved, since none has the fit of
    # the cell before it; its claims_from_json is taken
    assert list(inspect.signature(assembly.fit_cells).parameters) == [
        "systems",
        "claims",
        "betas",
    ]
    systems = _toy_systems("cover_two_charts.json")
    report = json.loads((ROOT / "tests/golden/cocycle_two_charts.json").read_text())
    solved = []
    solve = assembly.solve_least_squares

    def counting(system, **kwargs):
        solved.append(kwargs["chart"])
        return solve(system, **kwargs)

    monkeypatch.setattr(assembly, "solve_least_squares", counting)
    fits = assembly.fit_cells(systems, report, betas=False)
    assert solved == [cell.label for cell in systems]
    solved.clear()
    claims = assembly.claims_from_json(report, systems)
    assert assembly.fit_cells(systems, claims, betas=False) == fits
    assert solved == []


def test_vector_holds_no_report_form():
    # a vector's `p/q` strings and advisory floats are the report's, written
    # in assembly; linalg keeps the exact entries only
    for name in ("rat_str", "rat_float"):
        assert not hasattr(linalg, name), name
    for name in ("to_strings", "to_floats"):
        assert not hasattr(linalg.Vector, name), name


def test_every_imported_name_is_used():
    # a name is used when the module reads it (an ast.Name); __init__.py
    # imports to re-export, and a __future__ import binds nothing.  The
    # benchmark's own perfbench/ is left out: its run.py imports gmpy2 only
    # to see whether it is installed
    unused = {}
    folders = ("src/lsglue", "benchmarks", "tests", "sampledata")
    for path in sorted(path for folder in folders for path in (ROOT / folder).glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[str(path.relative_to(ROOT))] = sorted(imported - used)
    assert unused == {}

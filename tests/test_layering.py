"""One job per module: ``koszul`` holds the algebra, ``assembly`` the report
format and the rule that certifies a fit, ``cli`` the files and exit codes."""

import ast
import inspect
import json
from pathlib import Path

from lsglue import assembly, cli, koszul
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


def test_fit_cells_takes_claims_not_a_report(monkeypatch):
    # a whole report passed as the claims has no cell among its keys, so it
    # claims nothing and every cell is solved; its claims_from_json is taken
    assert list(inspect.signature(assembly.fit_cells).parameters) == [
        "systems",
        "claims",
        "betas",
    ]
    data = dataset_from_json(json.loads((ROOT / "sampledata/toy5.json").read_text()))
    cover_doc = json.loads((ROOT / "sampledata/cover_two_charts.json").read_text())
    report = json.loads((ROOT / "tests/golden/cocycle_two_charts.json").read_text())
    systems = assembly.cell_normal_systems(cover_from_json(cover_doc, data), affine_features(1), 2)
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

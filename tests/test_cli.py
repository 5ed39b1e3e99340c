import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lsglue import cli, linalg

import oracles

F = Fraction
ROOT = Path(__file__).resolve().parent.parent

TOY_DATASET = {
    "ambient_dim": 1,
    "points": [
        {"x": ["-4"], "y": "2", "weight": "1"},
        {"x": ["-1"], "y": "1", "weight": "1"},
        {"x": ["1"], "y": "2", "weight": "1"},
        {"x": ["2"], "y": "4", "weight": "1"},
        {"x": ["5"], "y": "6", "weight": "1"},
    ],
}
TWO_CHARTS = {
    "charts": [
        {"name": "D1", "indices": [1, 2, 3, 4]},
        {"name": "D2", "indices": [2, 3, 4, 5]},
    ]
}
THREE_CHARTS = {
    "charts": [
        {"name": "D1", "indices": [1, 2, 3, 4]},
        {"name": "D2", "indices": [2, 3, 4, 5]},
        {"name": "D3", "indices": [1, 2, 3, 5]},
    ]
}

# A and C share only point 3: the pair A|C is singular under affine features.
ABC_CHARTS = {
    "charts": [
        {"name": "A", "indices": [1, 2, 3]},
        {"name": "B", "indices": [2, 3, 4]},
        {"name": "C", "indices": [3, 4, 5]},
    ]
}


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(
            payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8"
        )
        return str(path)

    return write


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fit_without_cover_is_global(files, capsys):
    dataset = files("d.json", TOY_DATASET)
    code, out, _ = run(capsys, ["fit", "--dataset", dataset])
    assert code == 0
    doc = json.loads(out)
    assert doc["cells"]["all"]["a_hat"] == ["55/113", "306/113"]


def test_fit_with_cover_lists_all_cells(files, capsys):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", TWO_CHARTS)
    code, out, _ = run(capsys, ["fit", "--dataset", dataset, "--cover", cover])
    assert code == 0
    doc = json.loads(out)
    values = {label: rec["a_hat"] for label, rec in doc["cells"].items()}
    assert values == {
        "D1": ["11/42", "50/21"],
        "D2": ["13/15", "26/15"],
        "D1|D2": ["13/14", "12/7"],
    }


def test_malformed_json_exit_1_with_position(files, capsys):
    dataset = files("bad.json", '{"points": [,]}')
    code, _, err = run(capsys, ["fit", "--dataset", dataset])
    assert code == 1
    assert "line 1" in err and "column" in err


def test_cocycle_toy(files, capsys):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", TWO_CHARTS)
    code, out, _ = run(capsys, ["cocycle", "--dataset", dataset, "--cover", cover])
    assert code == 0
    doc = json.loads(out)
    betas = {k: v["c0"] for k, v in doc["pairs"]["D1|D2"]["beta"].items()}
    assert betas["[1]"] == "653/5880"
    assert F(betas["[2]"]) == F(-1070, 5880)
    assert all(rec["residual_zero"] for rec in doc["pairs"].values())
    assert doc["triples"] == {}


def test_cocycle_single_chart(files, capsys):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", {"charts": [{"name": "all", "indices": [1, 2, 3, 4, 5]}]})
    code, out, _ = run(capsys, ["cocycle", "--dataset", dataset, "--cover", cover])
    assert code == 0
    doc = json.loads(out)
    assert doc["pairs"] == {} and doc["triples"] == {} and doc["metrics"] is None


def test_cocycle_obstructed_exit_3(files, capsys):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", THREE_CHARTS)
    code, out, _ = run(capsys, ["cocycle", "--dataset", dataset, "--cover", cover])
    assert code == 3
    doc = json.loads(out)
    record = doc["triples"]["D1|D2|D3"]
    assert record["obstructed"] is True and record["r"] is None
    expected = oracles.cover_data(
        oracles.TOY_POINTS,
        oracles.TOY_WEIGHTS,
        {"D1": {1, 2, 3, 4}, "D2": {2, 3, 4, 5}, "D3": {1, 2, 3, 5}},
        oracles.AFFINE_1D,
    )["triples"][("D1", "D2", "D3")]
    assert [F(s) for s in record["defect_constant"]] == expected


def test_cocycle_singular_cell_exit_2(files, capsys):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", ABC_CHARTS)
    code, _, err = run(capsys, ["cocycle", "--dataset", dataset, "--cover", cover])
    assert code == 2
    assert "A|C" in err


def test_verify_round_trip(files, capsys, tmp_path):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", TWO_CHARTS)
    report = str(tmp_path / "report.json")
    code, _, _ = run(
        capsys, ["cocycle", "--dataset", dataset, "--cover", cover, "--output", report]
    )
    assert code == 0
    code, _, _ = run(
        capsys,
        ["verify", "--dataset", dataset, "--cover", cover, "--cochain", report],
    )
    assert code == 0


def test_verify_tampered_beta_exit_4(files, capsys, tmp_path):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", TWO_CHARTS)
    report_path = tmp_path / "report.json"
    run(capsys, ["cocycle", "--dataset", dataset, "--cover", cover, "--output", str(report_path)])
    doc = json.loads(report_path.read_text())
    doc["pairs"]["D1|D2"]["beta"]["[1]"]["c0"] = "654/5880"
    report_path.write_text(json.dumps(doc))
    code, _, err = run(
        capsys,
        ["verify", "--dataset", dataset, "--cover", cover, "--cochain", str(report_path)],
    )
    assert code == 4
    assert "D1|D2" in err


def test_verify_mangled_coefficient_exit_1(files, capsys, tmp_path):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", TWO_CHARTS)
    report_path = tmp_path / "report.json"
    run(capsys, ["cocycle", "--dataset", dataset, "--cover", cover, "--output", str(report_path)])
    doc = json.loads(report_path.read_text())
    del doc["pairs"]["D1|D2"]["beta"]["[1]"]["c0"]
    report_path.write_text(json.dumps(doc))
    code, _, err = run(
        capsys,
        ["verify", "--dataset", dataset, "--cover", cover, "--cochain", str(report_path)],
    )
    assert code == 1 and "c0" in err


def test_verify_unknown_chart_exit_1(files, capsys, tmp_path):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", TWO_CHARTS)
    report_path = tmp_path / "report.json"
    run(capsys, ["cocycle", "--dataset", dataset, "--cover", cover, "--output", str(report_path)])
    doc = json.loads(report_path.read_text())
    doc["charts"]["GHOST"] = doc["charts"]["D1"]
    report_path.write_text(json.dumps(doc))
    code, _, err = run(
        capsys,
        ["verify", "--dataset", dataset, "--cover", cover, "--cochain", str(report_path)],
    )
    assert code == 1
    assert "GHOST" in err


def test_csv_dataset(files, capsys):
    dataset = files("d.csv", "x1,y,weight\n-4,2,1\n-1,1,1\n1,2,1\n2,4,1\n5,6,1\n")
    code, out, _ = run(capsys, ["fit", "--dataset", dataset])
    assert code == 0
    assert json.loads(out)["cells"]["all"]["a_hat"] == ["55/113", "306/113"]


def test_text_format(files, capsys):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", TWO_CHARTS)
    code, out, _ = run(
        capsys,
        ["cocycle", "--dataset", dataset, "--cover", cover, "--format", "text"],
    )
    assert code == 0
    assert "13/14" in out  # exact value
    assert "0.928571" in out  # 6-significant-digit float companion
    assert "residual_zero=True" in out


def test_output_flag_writes_file(files, capsys, tmp_path):
    dataset = files("d.json", TOY_DATASET)
    out_path = tmp_path / "fit.json"
    code, out, _ = run(
        capsys, ["fit", "--dataset", dataset, "--output", str(out_path)]
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["cells"]["all"]["a_hat"] == ["55/113", "306/113"]


def test_byte_identical_reports(files, capsys):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", TWO_CHARTS)
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, ["cocycle", "--dataset", dataset, "--cover", cover])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_negative_weights_need_flag(files, capsys):
    doc = {
        "points": [
            {"x": ["0"], "y": "0", "weight": "-1"},
            {"x": ["1"], "y": "1", "weight": "1"},
            {"x": ["2"], "y": "2", "weight": "1"},
        ]
    }
    dataset = files("d.json", doc)
    code, _, err = run(capsys, ["fit", "--dataset", dataset])
    assert code == 1 and "negative" in err
    code, out, _ = run(capsys, ["fit", "--dataset", dataset, "--allow-negative-weights"])
    assert code == 0


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, ["fit", "--dataset", "/nonexistent/path.json"])
    assert code == 1


def test_fit_singular_cell_exit_2(files, capsys):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", ABC_CHARTS)
    code, _, err = run(capsys, ["fit", "--dataset", dataset, "--cover", cover])
    assert code == 2 and "A|C" in err
    # capping the overlap depth below the degenerate cell makes it fittable
    code, out, _ = run(
        capsys, ["fit", "--dataset", dataset, "--cover", cover, "--max-degree", "0"]
    )
    assert code == 0
    assert set(json.loads(out)["cells"]) == {"A", "B", "C"}


# the fits of the two-chart toy cover: pair D1|D2 and chart D2
PAIR, D2 = ["13/14", "12/7"], ["13/15", "26/15"]


@pytest.mark.parametrize(
    "cochain, message",
    [
        ({"charts": {"D1": {}}}, "lacks 'alpha'"),
        ({"charts": []}, "'charts' must be an object"),
        ({"pairs": {"D1|D2": []}}, "'pairs' entry 'D1|D2' must be an object"),
        ({"triples": "none"}, "'triples' must be an object"),
        pytest.param(
            {
                "pairs": {
                    "D1|D2": {
                        "beta": {"[1]": {"c0": "1", "c": ["0"], "base": PAIR}}
                    }
                }
            },
            "error: cochain 'pairs' entry 'D1|D2': linear part dim 1 vs base dim 2\n",
            id="cochain4-linear part dim 1 vs base dim 2",
        ),
        pytest.param(
            {"pairs": {"D1|D2": {"beta": {"[3]": {"c0": "1", "c": ["0", "0"], "base": PAIR}}}}},
            "error: cochain 'pairs' entry 'D1|D2': index tuple (3,) outside 1..2\n",
            id="pair_slot_out_of_range",
        ),
        pytest.param(
            {"charts": {"D2": {"alpha": {"[]": {"c0": "1/0", "c": [], "base": D2}}}}},
            "error: cochain 'charts' entry 'D2': zero denominator in '1/0'\n",
            id="chart_zero_denominator",
        ),
        pytest.param(
            {"pairs": {"D1|D2": {"beta": {"[1,2]": {"c0": "1", "c": ["0", "0"], "base": PAIR}}}}},
            "error: cochain 'pairs' entry 'D1|D2': index tuple (1, 2) has length != degree 1\n",
            id="beta_key_of_degree_2",
        ),
        pytest.param(
            {"pairs": {"D1|D2": {"beta": []}}},
            "error: cochain 'pairs' entry 'D1|D2': Koszul element JSON must be an object\n",
            id="beta_array",
        ),
    ],
)
def test_verify_malformed_cochain_shape_exit_1(files, capsys, cochain, message):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", TWO_CHARTS)
    report = files("r.json", cochain)
    code, out, err = run(
        capsys, ["verify", "--dataset", dataset, "--cover", cover, "--cochain", report]
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "dataset_doc, cover_doc, message",
    [
        ({"points": 5}, None, "'points' array"),
        (TOY_DATASET, {"charts": 5}, "'charts' array"),
        pytest.param(
            {"points": []},
            None,
            "error: empty dataset needs an explicit ambient_dim\n",
            id="no_points_no_ambient_dim",
        ),
    ],
)
def test_malformed_input_shape_exit_1(files, capsys, dataset_doc, cover_doc, message):
    argv = ["fit", "--dataset", files("d.json", dataset_doc)]
    if cover_doc is not None:
        argv += ["--cover", files("c.json", cover_doc)]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on decimal integer strings in this interpreter",
)
@pytest.mark.parametrize("as_string", [True, False])
def test_literal_over_digit_limit_exit_1(files, capsys, as_string):
    limit = sys.get_int_max_str_digits()
    digits = "7" * (limit + 701)
    text = json.dumps(TOY_DATASET)
    quoted = '"y": "2"'
    assert quoted in text
    text = text.replace(quoted, f'"y": "{digits}"' if as_string else f'"y": {digits}', 1)
    code, out, err = run(capsys, ["fit", "--dataset", files("d.json", text)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"limit of {limit} digits" in err


# Four charts of the toy data whose one quadruple cell holds a single point.
FOUR_CHARTS = {
    "charts": [
        {"name": "A", "indices": [1, 2, 3, 4]},
        {"name": "B", "indices": [1, 2, 3, 5]},
        {"name": "C", "indices": [1, 2, 4, 5]},
        {"name": "D", "indices": [1, 3, 4, 5]},
    ]
}


def assert_one_error_line(code, out, err):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # an echoed input value is cut (errors.excerpt), so the line stays short
    assert len(err.encode()) <= 1000


@pytest.mark.parametrize("command", ["cocycle", "verify"])
@pytest.mark.parametrize(
    "max_degree, cover_doc",
    [("0", THREE_CHARTS), ("1", THREE_CHARTS), ("3", FOUR_CHARTS), ("-1", THREE_CHARTS)],
)
def test_cochain_commands_need_max_degree_2(files, capsys, command, max_degree, cover_doc):
    argv = [command, "--dataset", files("d.json", TOY_DATASET)]
    argv += ["--cover", files("c.json", cover_doc), "--max-degree", max_degree]
    if command == "verify":
        argv += ["--cochain", files("r.json", {})]
    code, out, err = run(capsys, argv)
    assert_one_error_line(code, out, err)
    assert f"--max-degree 2, got {max_degree}" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cocycle", "--dataset", "d.json"], "the following arguments are required: --cover"),
        (
            ["fit", "--dataset", "d.json", "--max-degree", "abc"],
            "argument --max-degree: invalid int value: 'abc'",
        ),
        (["refit", "--dataset", "d.json"], "invalid choice: 'refit'"),
    ],
    ids=["missing_flag", "non_integer_degree", "unknown_subcommand"],
)
def test_usage_error_exit_1(files, capsys, argv, message):
    # argparse alone would print its usage block and exit 2, the code of a
    # singular cell
    dataset = files("d.json", TOY_DATASET)
    code, out, err = run(capsys, [dataset if arg == "d.json" else arg for arg in argv])
    assert_one_error_line(code, out, err)
    assert message in err


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["fit", "-h"])
    assert exit_info.value.code == 0
    assert "--dataset" in capsys.readouterr().out


def test_four_charts_fit_deeper_but_cocycle_stops_at_triples(files, capsys):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", FOUR_CHARTS)
    code, _, err = run(capsys, ["fit", "--dataset", dataset, "--cover", cover, "--max-degree", "3"])
    assert code == 2 and "A|B|C|D" in err
    code, out, _ = run(capsys, ["cocycle", "--dataset", dataset, "--cover", cover])
    assert code == 3
    assert "A|B|C|D" not in out and len(json.loads(out)["triples"]) == 4


@pytest.mark.parametrize(
    "name, payload",
    [
        ("d.json", b'{"ambient_dim": 1, "points": "\xff"}'),
        ("d.csv", b"x1,y,weight\n1,2,\xff\n"),
    ],
)
def test_non_utf8_dataset_exit_1(tmp_path, capsys, name, payload):
    path = tmp_path / name
    path.write_bytes(payload)
    code, out, err = run(capsys, ["fit", "--dataset", str(path)])
    assert_one_error_line(code, out, err)
    assert f"{path}: not UTF-8" in err


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            "x1,y,weight\n1,2,1\n1," + "2" * 200_000 + ",1\n",
            "field larger than field limit (131072)",
        ),
        ("x1,y,weight\n1,2\0,1\n", None),
        ("x1,y,weight\n1,2,1\n2,3\n", "CSV row has 2 fields, expected 3"),
        ("x1,y,weight\n1,2,1\n2,3,1\n3,abc,1\n", "cannot parse rational literal 'abc'"),
    ],
    ids=["field_over_the_csv_limit", "nul_byte", "short_row", "bad_literal"],
)
def test_csv_the_reader_refuses_exit_1(files, capsys, payload, message):
    # the csv module refuses the first two on Python 3.10, and the first on
    # every version; each error names the line of the row it is about
    code, out, err = run(capsys, ["fit", "--dataset", files("d.csv", payload)])
    assert_one_error_line(code, out, err)
    if message is not None:
        line = payload.count("\n")
        assert err == f"error: CSV line {line}: {message}\n"


def test_deeply_nested_json_exit_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    code, out, err = run(capsys, ["fit", "--dataset", str(path)])
    assert_one_error_line(code, out, err)
    assert f"{path}: JSON nested too deeply" in err


def test_verify_nonzero_triple_witness_exit_4(tmp_path, capsys):
    # the glued golden report, with its zero triple witness replaced by e1∧e2
    doc = json.loads((ROOT / "tests/golden/cocycle_line_three_charts.json").read_text())
    record = doc["triples"]["L1|L2|L3"]
    assert record["r"] == {} and record["residual_zero"] is True
    record["r"] = {"[1,2]": {"c0": "1", "c": ["0", "0"], "base": record["a_hat"]}}
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(
        capsys,
        [
            "verify",
            "--dataset", str(ROOT / "sampledata/line6.json"),
            "--cover", str(ROOT / "sampledata/cover_line_three_charts.json"),
            "--cochain", str(report),
        ],
    )
    assert code == 4
    checked = json.loads(out)["triples"]["L1|L2|L3"]
    assert checked["residual_zero"] is False and checked["obstructed"] is False
    assert all(rec["residual_zero"] for rec in json.loads(out)["pairs"].values())
    assert err.startswith("triple L1|L2|L3: residual ") and err.count("\n") == 1


def _toy_with_last_y(y: str) -> dict:
    doc = json.loads(json.dumps(TOY_DATASET))
    doc["points"][-1]["y"] = y
    return doc


def _float_pairs(doc):
    """Every (exact, float companion) pair of a cocycle report."""
    for section in ("charts", "pairs", "triples"):
        for record in doc[section].values():
            for key in ("a_hat", "delta", "defect_constant"):
                if key in record:
                    yield from zip(record[key], record[f"{key}_float"])


def test_fit_value_beyond_float_range_is_null(files, capsys):
    big = "1" + "0" * 400
    points = [{"x": [x], "y": y, "weight": "1"} for x, y in [("0", big), ("1", "2"), ("2", "3")]]
    dataset = files("d.json", {"ambient_dim": 1, "points": points})
    code, out, err = run(capsys, ["fit", "--dataset", dataset])
    assert (code, err) == (0, "")
    record = json.loads(out)["cells"]["all"]
    expected = oracles.cramer_solve(
        [[F(10), F(6)], [F(6), F(6)]], [F(2) * (2 + 2 * 3), F(2) * (int(big) + 2 + 3)]
    )
    assert record["a_hat"] == [f"{v.numerator}/{v.denominator}" for v in expected]
    assert record["a_hat_float"] == [None, None]
    code, out, err = run(capsys, ["fit", "--dataset", dataset, "--format", "text"])
    assert (code, err) == (0, "")
    assert out.endswith(" ~ (n/a, n/a)\n")


def test_cocycle_value_beyond_float_range_is_null(files, capsys):
    dataset = files("d.json", _toy_with_last_y("1" + "0" * 400))
    cover = files("c.json", THREE_CHARTS)
    code, out, err = run(capsys, ["cocycle", "--dataset", dataset, "--cover", cover])
    assert (code, err) == (3, "")
    doc = json.loads(out)
    pairs = list(_float_pairs(doc))
    assert any(value is None for _, value in pairs)
    for exact, value in pairs:
        if value is None:
            assert abs(F(exact)) > sys.float_info.max
        else:
            assert value == float(F(exact))
    assert set(doc["metrics"].values()) == {None}
    code, out, err = run(
        capsys, ["cocycle", "--dataset", dataset, "--cover", cover, "--format", "text"]
    )
    assert (code, err) == (3, "")
    assert "  max_delta = n/a\n" in out and "~ (n/a, n/a)" in out


def test_cocycle_norm_whose_square_overflows(files, capsys):
    # the deltas are about 1e199: their squares are beyond the float range,
    # the norms are not
    dataset = files("d.json", _toy_with_last_y("1" + "0" * 200))
    cover = files("c.json", THREE_CHARTS)
    code, out, err = run(capsys, ["cocycle", "--dataset", dataset, "--cover", cover])
    assert (code, err) == (3, "")
    doc = json.loads(out)
    norms = [
        math.hypot(*(float(F(v)) for v in record["delta"])) for record in doc["pairs"].values()
    ]
    assert max(norms) > 1e154
    assert math.isclose(doc["metrics"]["max_delta"], max(norms), rel_tol=1e-12)
    assert math.isclose(doc["metrics"]["mean_delta"], sum(norms) / len(norms), rel_tol=1e-12)


def _honest_three_chart_report(files, capsys, tmp_path):
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", THREE_CHARTS)
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, ["cocycle", "--dataset", dataset, "--cover", cover, "--output", str(report)]
    )
    assert code == 3
    return dataset, cover, json.loads(report.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "mutate, missing",
    [
        (lambda doc: doc.update(triples={}), "'triples' lacks a record for cell 'D1|D2|D3'"),
        (lambda doc: doc["pairs"].pop("D1|D3"), "'pairs' lacks a record for cell 'D1|D3'"),
        (lambda doc: doc.pop("pairs"), "'pairs' lacks a record for cell 'D1|D2'"),
        (
            lambda doc: doc.update(charts={}, pairs={}, triples={}),
            "'charts' lacks a record for cell 'D1'",
        ),
    ],
    ids=["triple", "pair", "no_pairs", "empty"],
)
def test_verify_cochain_missing_cell_exit_1(files, capsys, tmp_path, mutate, missing):
    dataset, cover, doc = _honest_three_chart_report(files, capsys, tmp_path)
    argv = ["verify", "--dataset", dataset, "--cover", cover, "--cochain"]
    code, _, _ = run(capsys, [*argv, files("r.json", doc)])
    assert code == 4
    mutate(doc)
    code, out, err = run(capsys, [*argv, files("r.json", doc)])
    assert_one_error_line(code, out, err)
    assert missing in err


@pytest.mark.parametrize(
    "exponents",
    [[[1], 2], [["a"], [0]], [[None], [0]], [[1.5], [0]], [[True], [0]], [["1"], [0]]],
    ids=["scalar_row", "letter", "null", "float", "bool", "numeric_string"],
)
def test_model_exponents_must_be_json_integers(files, capsys, exponents):
    dataset = files("d.json", TOY_DATASET)
    model = files("m.json", {"features": "monomials", "exponents": exponents})
    code, out, err = run(capsys, ["fit", "--dataset", dataset, "--model", model])
    assert_one_error_line(code, out, err)
    assert "exponents must be arrays of integers" in err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on decimal integer strings in this interpreter",
)
def test_power_over_digit_limit_exit_1(files, capsys):
    # the smallest exponent whose power of 2 is longer than the limit; the
    # toy data's x = -4 and x = 5 give longer powers still
    exponent = (10 ** sys.get_int_max_str_digits() - 1).bit_length()
    dataset = files("d.json", TOY_DATASET)
    model = files("m.json", {"features": "monomials", "exponents": [[exponent], [0]]})
    code, out, err = run(capsys, ["fit", "--dataset", dataset, "--model", model])
    assert_one_error_line(code, out, err)
    assert f"monomial [{exponent}] exceeds the limit" in err


def _verify_golden(capsys, tmp_path, doc, line=False):
    """Run ``verify`` on a changed copy of a golden cocycle report (a
    document, or its text)."""
    return run(capsys, _verify_golden_argv(tmp_path, doc, line))


def _verify_golden_argv(tmp_path, doc, line=False):
    """The ``verify`` arguments of :func:`_verify_golden`."""
    report = tmp_path / "report.json"
    report.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    inputs = (
        ["sampledata/line6.json", "sampledata/cover_line_three_charts.json"]
        if line
        else ["sampledata/toy5.json", "sampledata/cover_two_charts.json"]
    )
    dataset, cover = (str(ROOT / path) for path in inputs)
    return ["verify", "--dataset", dataset, "--cover", cover, "--cochain", str(report)]


def _changed_golden(change, line=False):
    """A golden cocycle report (two charts, or ``line``: three) after
    ``change(doc)``."""
    name = "line_three_charts" if line else "two_charts"
    doc = json.loads((ROOT / f"tests/golden/cocycle_{name}.json").read_text())
    change(doc)
    return doc


def _renamed(beta, key):
    """``beta`` with its slot key ``"[1]"`` renamed ``key``."""
    return {key if old == "[1]" else old: c for old, c in beta.items()}


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "rekey",
    [
        lambda beta: {"[true]" if key == "[1]" else key: c for key, c in beta.items()},
        lambda beta: {"[ 1]": {**beta["[1]"], "c0": "999"}, **beta},
        lambda beta: {"[2] " if key == "[2]" else key: c for key, c in beta.items()},
        lambda beta: {
            "[" * 100_000 + "]" * 100_000 if key == "[1]" else key: c
            for key, c in beta.items()
        },
        lambda beta: _renamed(beta, "[-0]"),
        lambda beta: _renamed(beta, "[01]"),
        lambda beta: _renamed(beta, "[\u0661]"),
        pytest.param(
            lambda beta: _renamed(beta, "[" + "1" * (DIGIT_LIMIT + 701) + "]"),
            marks=pytest.mark.skipif(
                not DIGIT_LIMIT, reason="no limit on decimal integer strings in this interpreter"
            ),
            id="index_over_digit_limit",
        ),
    ],
    ids=[
        "bool",
        "spaced_alias",
        "trailing_space",
        "nested_too_deeply",
        "minus_zero",
        "leading_zero",
        "arabic_indic_digit",
        "index_over_digit_limit",
    ],
)
def test_verify_slot_keys_must_be_canonical(capsys, tmp_path, rekey):
    # a key that is not written as koszul_to_json writes it could name the
    # same slot as another key, and the later one would silently win
    doc = json.loads((ROOT / "tests/golden/cocycle_two_charts.json").read_text())
    record = doc["pairs"]["D1|D2"]
    record["beta"] = rekey(record["beta"])
    code, out, err = _verify_golden(capsys, tmp_path, doc)
    assert_one_error_line(code, out, err)
    assert "bad index tuple key" in err


def _points(count, weight="1"):
    """A one-dimensional dataset of ``count`` points, all of weight ``weight``."""
    records = [{"x": [str(i)], "y": "0", "weight": weight} for i in range(1, count + 1)]
    return {"ambient_dim": 1, "points": records}


def _command(command, dataset, cover=None, model=None, *flags):
    """Arguments of ``command`` on the given dataset, cover and model
    documents, then ``flags``."""

    def argv(files, tmp_path):
        args = [command, "--dataset", files("d.json", dataset)]
        for flag, doc in (("--cover", cover), ("--model", model)):
            if doc is not None:
                args += [flag, files(f"{flag[2]}.json", doc)]
        return args + list(flags)

    return argv


def _verify_changed(change, line=False):
    """Arguments that ``verify`` a golden cocycle report after ``change(doc)``."""
    return lambda files, tmp_path: _verify_golden_argv(
        tmp_path, _changed_golden(change, line), line
    )


def _verify_pair(change):
    """:func:`_verify_changed` with ``change`` of the two-chart pair record."""
    return _verify_changed(lambda doc: change(doc["pairs"]["D1|D2"]))


NESTED_KEY = "[" * 2500 + "]" * 2500


@pytest.mark.parametrize(
    "make_argv, message, echoed",
    [
        pytest.param(
            _verify_pair(lambda record: record.update(beta=_renamed(record["beta"], NESTED_KEY))),
            "cochain 'pairs' entry 'D1|D2': bad index tuple key ",
            NESTED_KEY,
            id="beta_key",
        ),
        pytest.param(
            _verify_pair(lambda record: record["beta"]["[1]"].update(c0="x" * 5000)),
            "cochain 'pairs' entry 'D1|D2': cannot parse rational literal ",
            "x" * 5000,
            id="beta_c0",
        ),
        pytest.param(
            _verify_changed(lambda doc: doc["pairs"].update({"Q" * 5000: doc["pairs"]["D1|D2"]})),
            "cochain references unknown degree-1 cell ",
            "Q" * 5000,
            id="pair_label",
        ),
        pytest.param(
            _command("cocycle", _points(5000), {"charts": [{"name": "A", "indices": [1, 2, 3]}]}),
            "charts do not cover base indices ",
            list(range(4, 5001)),
            id="uncovered_points",
        ),
        pytest.param(
            _command("fit", _points(5000, weight="-1")),
            "negative weights at indices ",
            list(range(1, 5001)),
            id="negative_weights",
        ),
        pytest.param(
            _command("fit", {"points": [{"x": ["0"], "y": [[0] * 1700]}]}),
            "rational literals must be strings or ints, got ",
            [[0] * 1700],
            id="y_array",
        ),
        pytest.param(
            _command("fit", TOY_DATASET, {"charts": [{"name": "|" * 5000, "indices": [1, 2]}]}),
            "chart name ",
            "|" * 5000,
            id="chart_name",
        ),
    ],
)
def test_echoed_input_is_cut_exit_1(files, capsys, tmp_path, make_argv, message, echoed):
    # a message quotes at most 80 characters of an input value, then the
    # length of all of it
    code, out, err = run(capsys, make_argv(files, tmp_path))
    assert_one_error_line(code, out, err)
    text = repr(echoed)
    assert f"{message}{text[:80]}... ({len(text)} characters)" in err


NEGATIVE_EXPONENT = {"features": "monomials", "exponents": [[-1], [0]]}


def _set_triple_r(doc):
    record = doc["triples"]["L1|L2|L3"]
    record["r"] = {"[2,1]": {"c0": "1", "c": ["0", "0"], "base": record["a_hat"]}}


@pytest.mark.parametrize(
    "make_argv, message",
    [
        pytest.param(
            _verify_changed(_set_triple_r, line=True),
            "cochain 'triples' entry 'L1|L2|L3': index tuple (2, 1) is not strictly increasing",
            id="r_key_decreasing",
        ),
        pytest.param(
            lambda files, tmp_path: ["fit", "--dataset", files("d.csv", "")],
            "empty CSV dataset",
            id="empty_csv",
        ),
        pytest.param(
            _command("fit", TOY_DATASET, None, None, "--max-degree", "-1"),
            "max_degree must be >= 0",
            id="negative_max_degree",
        ),
        pytest.param(
            _command("fit", TOY_DATASET, None, NEGATIVE_EXPONENT),
            "monomial exponents must be nonnegative integers",
            id="negative_exponent",
        ),
    ],
)
def test_input_guards_exit_1(files, capsys, tmp_path, make_argv, message):
    # guards that no other test reaches
    code, out, err = run(capsys, make_argv(files, tmp_path))
    assert_one_error_line(code, out, err)
    assert err == f"error: {message}\n"


def test_csv_blank_lines_are_skipped(files, capsys):
    rows = "x1,y,weight\n-4,2,1\n-1,1,1\n1,2,1\n2,4,1\n5,6,1\n"
    plain = run(capsys, ["fit", "--dataset", files("d.csv", rows)])
    spaced = run(capsys, ["fit", "--dataset", files("e.csv", rows.replace("\n", "\n\n"))])
    assert plain[0] == 0 and plain[2] == ""
    assert spaced == plain


def test_verify_false_obstruction_exit_4(capsys, tmp_path):
    # the glued golden report claiming an obstruction: no witness although
    # the defect constant is zero
    doc = json.loads((ROOT / "tests/golden/cocycle_line_three_charts.json").read_text())
    doc["triples"]["L1|L2|L3"]["r"] = None
    code, out, err = _verify_golden(capsys, tmp_path, doc, line=True)
    assert code == 4
    record = json.loads(out)["triples"]["L1|L2|L3"]
    assert record["obstructed"] is True and record["residual_zero"] is True
    assert err == "triple L1|L2|L3: no witness, but the defect constant is zero\n"


def test_repeated_json_key_exit_1(capsys, tmp_path):
    # the decoder would keep only the second "[1]", the correct one
    text = (ROOT / "tests/golden/cocycle_two_charts.json").read_text()
    slot = text.index('"[1]"', text.index('"D1|D2"', text.index('"pairs"')))
    wrong = '"[1]": {"base": ["13/14", "12/7"], "c": ["0", "0"], "c0": "999"},\n'
    code, out, err = _verify_golden(capsys, tmp_path, text[:slot] + wrong + text[slot:])
    assert_one_error_line(code, out, err)
    assert "key '[1]' repeated in a JSON object" in err


@pytest.mark.parametrize(
    "cochain",
    [
        "{not json",
        "[1, 2]",
        (ROOT / "tests/golden/cocycle_two_charts.json").read_text(),
        None,
        # A|C holds only point 3, (x, y) = (1, 2), so any a_hat summing to 2
        # solves its singular N·a_hat = -nu
        {"charts": {}, "pairs": {"A|C": {"a_hat": ["1", "1"]}}, "triples": {}},
    ],
    ids=["invalid_json", "not_an_object", "other_cover_report", "missing_file", "a_hat_solves"],
)
def test_verify_singular_cell_exit_2_before_the_cochain(files, capsys, tmp_path, cochain):
    # a singular cell is solved whatever the cochain holds or claims, so
    # exit 2 wins over every fault of the cochain (exit 1)
    dataset = files("d.json", TOY_DATASET)
    cover = files("c.json", ABC_CHARTS)
    report = str(tmp_path / "missing.json") if cochain is None else files("r.json", cochain)
    argv = ["verify", "--dataset", dataset, "--cover", cover, "--cochain", report]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: singular cell: ") and err.count("\n") == 1
    assert "A|C" in err


QUAD_ARGV = [
    "--dataset", str(ROOT / "sampledata/quad3d.json"),
    "--cover", str(ROOT / "sampledata/cover_quad3d.json"),
    "--model", str(ROOT / "sampledata/model_quad3d.json"),
    "--allow-negative-weights",
]


def _wrong_first_entry(a_hat):
    return ["1" if a_hat[0] != "1" else "2", *a_hat[1:]]


@pytest.mark.parametrize(
    "spoil",
    [
        lambda record: record.update(a_hat=_wrong_first_entry(record["a_hat"])),
        lambda record: record.update(a_hat=["x"] * len(record["a_hat"])),
        lambda record: record.update(a_hat=["7" * 5000, *record["a_hat"][1:]]),
        lambda record: record.pop("a_hat"),
        lambda record: record.update(a_hat={"0": record["a_hat"][0]}),
    ],
    ids=["wrong", "letter", "over_digit_limit", "missing", "not_a_list"],
)
def test_verify_a_hat_is_only_a_hint(capsys, tmp_path, spoil):
    # whatever a record's a_hat says, verify finds each cell's true fit and
    # writes the golden report
    doc = json.loads((ROOT / "tests/golden/cocycle_quad3d.json").read_text())
    for section in ("charts", "pairs", "triples"):
        for record in doc[section].values():
            spoil(record)
    report = tmp_path / "report.json"
    report.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["verify", *QUAD_ARGV, "--cochain", str(report)])
    assert code == 0 and err == ""
    assert out == (ROOT / "tests/golden/verify_quad3d.json").read_text()


@pytest.mark.parametrize("move_a_hat", [False, True], ids=["beta_only", "with_a_hat"])
def test_verify_beta_based_away_from_the_fit_exit_1(capsys, tmp_path, move_a_hat):
    # a beta based at another point is refused with the true base in the
    # message, also when the record's a_hat claims that other point
    doc = json.loads((ROOT / "tests/golden/cocycle_two_charts.json").read_text())
    record = doc["pairs"]["D1|D2"]
    assert record["a_hat"] == ["13/14", "12/7"]
    for coefficient in record["beta"].values():
        coefficient["base"] = ["1", "2"]
    if move_a_hat:
        record["a_hat"] = ["1", "2"]
    code, out, err = _verify_golden(capsys, tmp_path, doc)
    assert_one_error_line(code, out, err)
    assert err == (
        "error: cochain 'pairs' entry 'D1|D2': coefficient at [1] is based at"
        " ['1', '2'], expected ['13/14', '12/7']\n"
    )


def _zero_a_hats(doc):
    for section in ("charts", "pairs", "triples"):
        for record in doc[section].values():
            record["a_hat"] = ["0"] * len(record["a_hat"])


@pytest.mark.parametrize(
    "command, spoil, eliminations, columns",
    [
        ("fit", None, 14, [1] * 14),
        ("cocycle", None, 14, [1] * 4 + [2] * 6 + [1] * 4),
        ("verify", None, 0, []),
        ("verify", _zero_a_hats, 14, [1] * 14),
    ],
    ids=["fit", "cocycle", "verify", "verify_a_hat_zeroed"],
)
def test_eliminations_per_command(
    capsys, tmp_path, monkeypatch, command, spoil, eliminations, columns
):
    # quad3d has 4 charts, 6 pairs and 4 triples: fit and cocycle solve each
    # cell once, cocycle a pair's beta in the same elimination as its a_hat
    # (right-hand sides -nu and delta); verify solves only the cells whose
    # a_hat is wrong, and none of them for a beta
    argv = [command, *QUAD_ARGV]
    if command == "verify":
        doc = json.loads((ROOT / "tests/golden/cocycle_quad3d.json").read_text())
        if spoil is not None:
            spoil(doc)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc), encoding="utf-8")
        argv += ["--cochain", str(report)]
    calls = []
    original = linalg._row_echelon

    def counting(rows, rhs):
        calls.append(len(rhs))
        return original(rows, rhs)

    monkeypatch.setattr(linalg, "_row_echelon", counting)
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == (ROOT / f"tests/golden/{command}_quad3d.json").read_text()
    assert len(calls) == eliminations
    assert calls == columns


@pytest.mark.parametrize(
    "command, charts, max_degree",
    [("fit", 64, "63"), ("cocycle", 2000, "2")],
    ids=["fit_2**64-1_subsets", "cocycle_1.3e9_subsets"],
)
def test_oversized_nerve_exit_1_without_listing_it(files, command, charts, max_degree):
    # listing the nerve would not end; the bound is checked before it starts
    dataset = files("d.json", {"ambient_dim": 1, "points": [{"x": ["0"], "y": "0"}]})
    cover = files(
        "c.json", {"charts": [{"name": f"C{i}", "indices": [1]} for i in range(charts)]}
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    argv = [command, "--dataset", dataset, "--cover", cover, "--max-degree", max_degree]
    proc = subprocess.run(
        [sys.executable, "-m", "lsglue.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"error: the nerve up to degree {max_degree} would visit more than"
        " 1000000 chart subsets\n"
    )


def test_os_errors_exit_1_with_their_message(files, capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, ["fit", "--dataset", missing])
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
    dataset = files("d.json", TOY_DATASET)
    code, out, err = run(capsys, ["fit", "--dataset", dataset, "--output", str(tmp_path)])
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_import_loads_no_module_the_cli_does_not_use():
    # started as the benchmark starts it: without site, from src, and with no
    # PYTHON* variable of the calling environment
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, lsglue.cli; print(*sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "lsglue.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "pathlib", "typing", "csv"} == set()

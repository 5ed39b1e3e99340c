import gc
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lsglue import assembly, cli, linalg, model
from lsglue.errors import LsglueError, excerpt

import oracles

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
# the package this process imports, for the tests that start the CLI as a
# subprocess, so that they run the code the other tests check, also a
# mutated copy of src/ (tests/mutants.py)
SRC = Path(cli.__file__).resolve().parent.parent

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


def test_a_chart_with_no_points_is_not_a_cell(files, capsys, tmp_path):
    # the nerve takes only nonempty intersections, as oracles.nerve does, so
    # an empty chart E is no cell and gets no record: every command runs as
    # on D1 and D2 alone, and a record for E is one for an unknown cell
    charts = {"D1": {1, 2, 3, 4}, "D2": {2, 3, 4, 5}, "E": set()}
    assert [names for names, _ in oracles.nerve(charts, 2)] == [("D1",), ("D2",), ("D1", "D2")]
    cover = files("c.json", {"charts": TWO_CHARTS["charts"] + [{"name": "E", "indices": []}]})
    inputs = ["--dataset", files("d.json", TOY_DATASET), "--cover", cover]
    code, out, err = run(capsys, ["fit", *inputs])
    assert (code, err) == (0, "")
    assert set(json.loads(out)["cells"]) == {"D1", "D2", "D1|D2"}
    report = tmp_path / "report.json"
    assert run(capsys, ["cocycle", *inputs, "--output", str(report)]) == (0, "", "")
    golden = (ROOT / "tests/golden/cocycle_two_charts.json").read_text(encoding="utf-8")
    assert report.read_text(encoding="utf-8") == golden
    code, out, err = run(capsys, ["verify", *inputs, "--cochain", str(report)])
    assert (code, out, err) == (0, golden, "")
    doc = json.loads(golden)
    doc["charts"]["E"] = doc["charts"]["D1"]
    report.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["verify", *inputs, "--cochain", str(report)])
    assert_one_error_line(code, out, err)
    assert err == "error: cochain references unknown degree-0 cell 'E'\n"


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


# y = x at x = 0..3, so every cell's fit is (0, 1); A|B holds point 3 alone
ON_A_LINE = {"ambient_dim": 1, "points": [{"x": [str(x)], "y": str(x)} for x in range(4)]}
ONE_POINT_OVERLAP = {
    "charts": [{"name": "A", "indices": [1, 2, 3]}, {"name": "B", "indices": [3, 4]}]
}


@pytest.mark.parametrize("command", ["fit", "cocycle"])
def test_exact_data_one_point_overlap_exit_2(files, capsys, command):
    # B's a_hat solves the singular N·a_hat = -nu of A|B, and A|B's delta is
    # zero, yet the pair is not certified: it is solved, and names itself
    dataset, cover = files("d.json", ON_A_LINE), files("c.json", ONE_POINT_OVERLAP)
    code, out, err = run(capsys, [command, "--dataset", dataset, "--cover", cover])
    assert (code, out) == (2, "")
    assert err == "error: singular cell: normal matrix is singular on A|B (rank 1 < 2)\n"


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
    # a usage error exits 1, not 2, the code of a singular cell
    dataset = files("d.json", TOY_DATASET)
    code, out, err = run(capsys, [dataset if arg == "d.json" else arg for arg in argv])
    assert_one_error_line(code, out, err)
    assert message in err


_PARSED = {
    "command": "fit",
    "dataset": "d.json",
    "cover": None,
    "model": None,
    "max_degree": 2,
    "format": "json",
    "allow_negative_weights": False,
    "output": None,
}


@pytest.mark.parametrize(
    "argv, parsed",
    [
        pytest.param(["fit", "--dataset", "d.json"], {}, id="defaults"),
        pytest.param(
            ["fit", "--dataset=d.json", "--format=text", "--cover=", "--output=-x"],
            {"format": "text", "cover": "", "output": "-x"},
            id="opt=value",
        ),
        pytest.param(
            ["fit", "--data", "d.json", "--cov", "c", "--mo", "m", "--ma", "3", "--fo", "text"]
            + ["--al", "--out", "o"],
            {"cover": "c", "model": "m", "max_degree": 3, "format": "text"}
            | {"allow_negative_weights": True, "output": "o"},
            id="unique_prefixes",
        ),
        pytest.param(
            ["fit", "--dataset", "a", "--format", "text", "--dataset", "d.json", "--format", "json"]
            + ["--allow-negative-weights", "--allow-negative-weights"],
            {"allow_negative_weights": True},
            id="last_value_wins",
        ),
        pytest.param(
            ["fit", "--dataset", "d.json", "--max-degree=-1"], {"max_degree": -1}, id="degree=-1"
        ),
        pytest.param(
            ["fit", "--dataset", "d.json", "--max-degree", "-1", "--output", "-2"],
            {"max_degree": -1, "output": "-2"},
            id="negative_number_values",
        ),
        pytest.param(
            ["cocycle", "--dataset", "d.json", "--cover", "c.json"],
            {"command": "cocycle", "cover": "c.json"},
            id="cocycle",
        ),
        pytest.param(
            ["verify", "--dataset", "d.json", "--cov", "c.json", "--coc", "r.json"],
            {"command": "verify", "cover": "c.json", "cochain": "r.json"},
            id="verify",
        ),
    ],
)
def test_parser_parity_accepted(monkeypatch, argv, parsed):
    # the values each command receives, in argparse's grammar and with its
    # defaults; only verify takes --cochain
    seen = []
    for command in ("fit", "cocycle", "verify"):
        monkeypatch.setattr(cli, f"_cmd_{command}", lambda args: seen.append(vars(args)) or 0)
    assert cli.main(argv) == 0
    assert seen == [_PARSED | parsed]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["verify", "--dataset", "d.json", "--c", "c.json"],
            "ambiguous option: --c could match --cover, --cochain",
            id="ambiguous_prefix",
        ),
        pytest.param(
            ["fit", "--dataset", "d.json", "--output", "-x"],
            "argument --output: expected one argument",
            id="dash_value",
        ),
        pytest.param(
            ["fit", "--dataset", "d.json", "--output"],
            "argument --output: expected one argument",
            id="no_value",
        ),
        pytest.param([], "the following arguments are required: command", id="no_command"),
        pytest.param(["fit"], "the following arguments are required: --dataset", id="no_dataset"),
        pytest.param(
            ["cocycle", "--dataset", "d.json"],
            "the following arguments are required: --cover",
            id="cocycle_needs_cover",
        ),
        pytest.param(
            ["verify", "--dataset", "d.json"],
            "the following arguments are required: --cover, --cochain",
            id="verify_needs_cover_and_cochain",
        ),
        pytest.param(
            ["fit", "--dataset", "d.json", "--cochain", "r"],
            "unrecognized arguments: --cochain r",
            id="cochain_outside_verify",
        ),
        pytest.param(
            ["cocycle", "--dataset", "d.json", "--cover", "c.json", "--bogus", "x", "-y"],
            "unrecognized arguments: --bogus x -y",
            id="unknown_option",
        ),
        pytest.param(
            ["fit", "--dataset", "d.json", "--", "--format", "text"],
            "unrecognized arguments: -- --format text",
            id="double_dash",
        ),
        pytest.param(
            ["fit", "--dataset", "d.json", "--allow-negative-weights=1"],
            "argument --allow-negative-weights: ignored explicit argument '1'",
            id="flag_with_value",
        ),
        pytest.param(
            ["fit", "--dataset", "d.json", "--max-degree", "1.5"],
            "argument --max-degree: invalid int value: '1.5'",
            id="non_integer_degree",
        ),
        pytest.param(
            ["refit", "--dataset", "d.json"],
            "argument command: invalid choice: 'refit' (choose from 'fit', 'cocycle', 'verify')",
            id="unknown_command",
        ),
        pytest.param(
            ["fit", "--dataset", "d.json", "--format", "xml"],
            "argument --format: invalid choice: 'xml' (choose from 'json', 'text')",
            id="unknown_format",
        ),
    ],
)
def test_parser_parity_refused(capsys, argv, message):
    # a usage error is one error: line and exit 1, whatever the file names
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


def test_usage_and_path_errors_cut_long_values(files, capsys, tmp_path):
    # a usage error quotes each value it echoes, and an OSError its path,
    # cut by errors.excerpt however long they are
    value = "j" * 100_000
    argv = ["fit", "--dataset", files("d.json", TOY_DATASET), "--format", value]
    code, out, err = run(capsys, argv)
    assert_one_error_line(code, out, err)
    assert len(err.encode()) < 300
    assert err == (
        f"error: argument --format: invalid choice: {excerpt(repr(value))}"
        " (choose from 'json', 'text')\n"
    )
    extras = ["a"] * 50_000
    code, out, err = run(capsys, [*argv[:3], *extras])
    assert_one_error_line(code, out, err)
    assert err == f"error: unrecognized arguments: {excerpt(' '.join(extras))}\n"
    path = str(tmp_path / ("p" * 5000))
    code, out, err = run(capsys, ["fit", "--dataset", path])
    assert_one_error_line(code, out, err)
    assert len(err.encode()) < 300
    assert err.startswith("error: [Errno ") and err.endswith(f": {excerpt(repr(path))}\n")


_OPTION_NAMES = [
    "--dataset",
    "--cover",
    "--model",
    "--max-degree",
    "--format",
    "--allow-negative-weights",
    "--output",
    "--cochain",
]


def test_help_exit_0(capsys):
    for command in (None, "fit", "cocycle", "verify"):
        for flag in ("-h", "--help"):
            with pytest.raises(SystemExit) as exit_info:
                cli.main([flag] if command is None else [command, flag])
            assert exit_info.value.code == 0
            out, err = capsys.readouterr()
            assert out.startswith("usage: lsglue ") and err == ""
            if command is None:
                assert all(name in out for name in ("fit", "cocycle", "verify"))
                assert not any(name in out for name in _OPTION_NAMES)
            else:
                # each command lists exactly the options it takes
                taken = _OPTION_NAMES if command == "verify" else _OPTION_NAMES[:-1]
                assert [name for name in _OPTION_NAMES if f"{name} " in out] == taken


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


@pytest.mark.parametrize("command", ["fit", "cocycle", "verify"])
def test_lone_surrogate_chart_name_exit_1_without_output(tmp_path, command):
    # JSON can spell a lone surrogate, which no UTF-8 text can hold: the cover
    # is refused before any report is written, as the text format would fail
    cover = tmp_path / "c.json"
    cover.write_text(
        '{"charts": [{"name": "A\\ud800", "indices": [1, 2, 3, 4]},'
        ' {"name": "D2", "indices": [2, 3, 4, 5]}]}',
        encoding="utf-8",
    )
    output = tmp_path / "report.txt"
    argv = [command, "--dataset", "sampledata/toy5.json", "--cover", str(cover)]
    if command == "verify":
        argv += ["--cochain", "tests/golden/cocycle_two_charts.json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lsglue.cli", *argv, "--format", "text", "--output", str(output)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: chart name 'A\\ud800' is not encodable as UTF-8\n"
    assert "Traceback" not in proc.stderr
    assert not output.exists()


def test_text_on_an_ascii_stdout_is_utf8(tmp_path):
    # the text format spells a chart name as it is, so stdout gets the UTF-8
    # bytes --output writes, whatever the encoding of stdout
    cover = json.loads(json.dumps(THREE_CHARTS))
    cover["charts"][0]["name"] = "Dé"
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cover), encoding="utf-8")
    output = tmp_path / "report.txt"
    argv = ["cocycle", "--dataset", "sampledata/toy5.json", "--cover", str(cover_path)]
    env = dict(os.environ, PYTHONIOENCODING="ascii")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    outputs = []
    for extra in ([], ["--output", str(output)]):
        proc = subprocess.run(
            [sys.executable, "-m", "lsglue.cli", *argv, "--format", "text", *extra],
            cwd=ROOT,
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (3, b"")
        outputs.append(proc.stdout)
    assert outputs[1] == b""
    assert outputs[0] == output.read_bytes()
    assert "  Dé: indices=[1, 2, 3, 4]" in outputs[0].decode("utf-8")


def _past_the_digit_limit(files) -> list:
    """The smallest input known to write integers past 4300 digits: five
    1-d points whose x have 121-digit denominators, under three charts whose
    pairs and triple all differ.  The triple defect's integers have about
    5,040 digits; â's and β's, which verify reads back, fewer than 2,700."""
    points = []
    for k in range(5):
        x = k + F(1, 10**120 + 2 * k + 1)
        points.append({"x": [f"{x.numerator}/{x.denominator}"], "y": str(k * k % 7)})
    cover = {
        "charts": [
            {"name": "A", "indices": [1, 2, 3, 4]},
            {"name": "B", "indices": [1, 2, 3, 5]},
            {"name": "C", "indices": [1, 2, 4, 5]},
        ]
    }
    dataset = files("wall.json", {"ambient_dim": 1, "points": points})
    return ["--dataset", dataset, "--cover", files("wall_cover.json", cover)]


def _digits(literal: str) -> int:
    """The most decimal digits of one integer of a `p/q` literal."""
    return max(len(part.lstrip("-")) for part in literal.split("/"))


def test_round_trip_past_the_digit_limit(files, capsys, tmp_path):
    # the writer spells every value it computed, however long; verify reads
    # â and β, below the limit, and writes the same report
    inputs = _past_the_digit_limit(files)
    report = tmp_path / "report.json"
    code, out, err = run(capsys, ["cocycle", *inputs, "--output", str(report)])
    assert (code, out, err) == (3, "", "")
    doc = json.loads(report.read_text(encoding="utf-8"))
    (triple,) = doc["triples"].values()
    assert min(map(_digits, triple["defect_constant"])) > 5000
    records = [r for section in ("charts", "pairs", "triples") for r in doc[section].values()]
    read = [x for r in records for x in r["a_hat"]]
    read += [c["c0"] for r in doc["pairs"].values() for c in r["beta"].values()]
    assert max(map(_digits, read)) < 2700
    checked = tmp_path / "checked.json"
    argv = ["verify", *inputs, "--cochain", str(report), "--output", str(checked)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith("triple A|B|C: residual {")
    assert checked.read_bytes() == report.read_bytes()


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on decimal integer strings in this interpreter",
)
def test_verify_refuses_a_report_value_past_the_digit_limit(files, capsys, tmp_path):
    # the reader keeps the interpreter's limit: a β literal one digit past
    # it is malformed
    inputs = _past_the_digit_limit(files)
    report = tmp_path / "report.json"
    run(capsys, ["cocycle", *inputs, "--output", str(report)])
    doc = json.loads(report.read_text(encoding="utf-8"))
    doc["pairs"]["A|B"]["beta"]["[1]"]["c0"] = "7" * (sys.get_int_max_str_digits() + 1)
    report.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, ["verify", *inputs, "--cochain", str(report)])
    assert_one_error_line(code, out, err)
    assert err.endswith(f"exceeds the limit of {sys.get_int_max_str_digits()} digits for decimal integers\n")


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


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on decimal integer strings in this interpreter",
)
def test_power_over_digit_limit_builds_no_rational(files):
    # the normal sums refuse the power on the points' integer pairs, with the
    # error line FeatureMap.evaluate gives, and build no rational: under the
    # fractions backend, the module fractions is never imported
    limit = sys.get_int_max_str_digits()
    exponent = (10**limit - 1).bit_length()
    argv = [
        "cocycle",
        "--dataset",
        files("d.json", TOY_DATASET),
        "--cover",
        files("c.json", TWO_CHARTS),
        "--model",
        files("m.json", {"features": "monomials", "exponents": [[exponent], [0]]}),
    ]
    script = f"""
import sys
from lsglue import cli
code = cli.main({argv!r})
print(code, "fractions" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stdout.split() == ["1", "False"]
    assert proc.stderr == (
        f"error: a power in monomial [{exponent}] exceeds the limit of {limit} digits"
        " for decimal integers\n"
    )


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


def test_unreadable_cochain_solves_only_short_rank_cells(files, capsys, tmp_path, monkeypatch):
    # every quad3d cell has full rank modulo the prime, which proves it
    # nonsingular, so a missing report is refused without an elimination; on
    # ABC_CHARTS the pair A|C and the triple A|B|C hold one point, one normal
    # system with a short modular rank, which is solved once, at A|C, and
    # exits 2
    calls = []
    solve = model.solve_square

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(model, "solve_square", counting)
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, ["verify", *QUAD_ARGV, "--cochain", missing])
    assert (code, out, len(calls)) == (1, "", 0)
    assert err == f"error: [Errno 2] No such file or directory: {excerpt(repr(missing))}\n"
    dataset, cover = files("d.json", TOY_DATASET), files("c.json", ABC_CHARTS)
    argv = ["verify", "--dataset", dataset, "--cover", cover, "--cochain", missing]
    code, out, err = run(capsys, argv)
    assert (code, out, len(calls)) == (2, "", 1)
    assert err == "error: singular cell: normal matrix is singular on A|C (rank 1 < 2)\n"


def test_refused_nerve_evaluates_no_atom(files, capsys, monkeypatch):
    # the nerve is checked before any atom's normal system is accumulated
    def fail(*args):
        raise AssertionError("an atom was evaluated")

    monkeypatch.setattr(assembly, "build_normal_system", fail)
    code, out, err = run(capsys, ["fit", *QUAD_ARGV, "--max-degree", "-1"])
    assert_one_error_line(code, out, err)
    assert err == "error: max_degree must be >= 0\n"
    # C(200, 1) + C(200, 2) + C(200, 3) subsets of the one atom's signature
    dataset = files("d.json", {"ambient_dim": 1, "points": [{"x": ["0"], "y": "0"}]})
    cover = files("c.json", {"charts": [{"name": f"C{i}", "indices": [1]} for i in range(200)]})
    code, out, err = run(capsys, ["fit", "--dataset", dataset, "--cover", cover])
    assert_one_error_line(code, out, err)
    assert err == (
        "error: the nerve up to degree 2 would visit more than 1000000 chart subsets\n"
    )


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


LINE_ARGV = [
    "--dataset", str(ROOT / "sampledata/line6.json"),
    "--cover", str(ROOT / "sampledata/cover_line_three_charts.json"),
]


@pytest.mark.parametrize(
    "command, inputs, spoil, eliminations, columns",
    [
        ("fit", "quad3d", None, 5, [1] * 5),
        ("cocycle", "quad3d", None, 5, [1] * 4 + [7]),
        ("verify", "quad3d", None, 0, []),
        ("verify", "quad3d", _zero_a_hats, 5, [1] * 5),
        ("fit", "line_three_charts", None, 1, [1]),
        ("cocycle", "line_three_charts", None, 1, [1]),
    ],
    ids=["fit", "cocycle", "verify", "verify_a_hat_zeroed", "fit_glues", "cocycle_glues"],
)
def test_eliminations_per_command(
    capsys, tmp_path, monkeypatch, command, inputs, spoil, eliminations, columns
):
    # quad3d has 4 charts, 6 pairs and 4 triples, and the pairs and triples
    # all hold the common core's points: 5 distinct normal systems, each
    # solved once by fit and cocycle, cocycle the core against -nu and the
    # six pairs' deltas together; verify solves only the systems whose
    # claimed a_hat is wrong, and none of them for a beta.  line6's three
    # charts glue: its 6 distinct systems all have the fit of L1, so fit and
    # cocycle solve L1 and certify that a_hat for the rest, and every delta
    # is zero, so no pair is eliminated for its beta
    argv = [command, *{"quad3d": QUAD_ARGV, "line_three_charts": LINE_ARGV}[inputs]]
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
    assert out == (ROOT / f"tests/golden/{command}_{inputs}.json").read_text()
    assert len(calls) == eliminations
    assert calls == columns


def test_a_run_leaves_no_cycle_behind(tmp_path):
    # main pauses the cyclic collector and leaves it as it found it; with
    # the collector off throughout, neither parsing the arguments nor a
    # whole run leaves an unreachable object, so nothing the pipeline builds
    # waits for a collection to be freed
    report = str(tmp_path / "report.json")
    commands = [
        (["cocycle", *QUAD_ARGV, "--output", report], 0),
        (["verify", *QUAD_ARGV, "--cochain", report, "--output", str(tmp_path / "v.json")], 0),
    ]
    collecting = gc.isenabled()
    gc.disable()
    try:
        for argv, expected in commands:
            gc.collect()
            cli.parse_args(argv)
            assert gc.collect() == 0, argv[0]
            assert cli.main(argv) == expected
            assert not gc.isenabled()
            assert gc.collect() == 0, argv[0]
        gc.enable()
        assert cli.main(commands[1][0]) == 0
        assert gc.isenabled()
    finally:
        if collecting:
            gc.enable()
        else:
            gc.disable()


def test_verify_parses_each_distinct_list_once(capsys, monkeypatch):
    # the reader keeps whole lists only: a literal is parsed once for each
    # distinct list of strings that holds it (a_hat, base, c), and each c0
    # is parsed where it stands
    golden = ROOT / "tests/golden/cocycle_quad3d.json"
    doc = json.loads(golden.read_text())
    lists, scalars = set(), 0
    for section, field in (("charts", "alpha"), ("pairs", "beta"), ("triples", "r")):
        for record in doc[section].values():
            lists.add(tuple(record["a_hat"]))
            for coeff in (record[field] or {}).values():
                lists.update((tuple(coeff["base"]), tuple(coeff["c"])))
                scalars += 1
    parsed = []
    read_list = assembly.literal_row

    def counting_list(texts):
        parsed.extend(texts)
        return read_list(texts)

    # a c0 is read as a list of one literal
    monkeypatch.setattr(assembly, "literal_row", counting_list)
    code, out, err = run(capsys, ["verify", *QUAD_ARGV, "--cochain", str(golden)])
    assert (code, err) == (0, "")
    assert out == (ROOT / "tests/golden/verify_quad3d.json").read_text()
    assert len(parsed) == sum(map(len, lists)) + scalars


# the report fields that hold exact values, as strings or arrays of them
SPELLED = ("a_hat", "base", "c", "c0", "delta")


def _respell(node):
    """A report with every exact value of ``SPELLED`` written as the writer
    never writes it: 13/14 as 26/28, 0 as 000, -2 as -002."""
    if isinstance(node, dict):
        return {
            key: _respell_value(value) if key in SPELLED else _respell(value)
            for key, value in node.items()
        }
    return node


def _respell_value(value):
    if isinstance(value, list):
        return [_respell_value(entry) for entry in value]
    sign, digits = ("-", value[1:]) if value.startswith("-") else ("", value)
    if "/" in digits:
        num, den = digits.split("/")
        return f"{sign}{2 * int(num)}/{2 * int(den)}"
    return f"{sign}00{digits}"


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_reads_non_canonical_spellings(capsys, tmp_path, monkeypatch, fmt):
    # the same values spelled otherwise: every claim is still taken, so no
    # cell is solved, and the output is that of the canonical report, for
    # the obstructed report its failure dump on stderr included, so no
    # input spelling is echoed
    calls = []
    original = linalg._row_echelon

    def counting(rows, rhs):
        calls.append(len(rhs))
        return original(rows, rhs)

    monkeypatch.setattr(linalg, "_row_echelon", counting)
    for name, cover, code in [
        ("cocycle_two_charts", "cover_two_charts", 0),
        ("cocycle_three_charts", "cover_three_charts", 4),
    ]:
        golden = ROOT / f"tests/golden/{name}.json"
        doc = _respell(json.loads(golden.read_text()))
        assert doc["charts"]["D1"]["a_hat"] == ["22/84", "100/42"]
        assert doc["charts"]["D1"]["alpha"]["[]"]["c0"] == "000"
        respelled = tmp_path / f"{name}.json"
        respelled.write_text(json.dumps(doc), encoding="utf-8")
        argv = [
            "verify",
            "--dataset", str(ROOT / "sampledata/toy5.json"),
            "--cover", str(ROOT / f"sampledata/{cover}.json"),
            "--format", fmt,
        ]
        canonical = run(capsys, [*argv, "--cochain", str(golden)])
        assert canonical[0] == code and (canonical[2] == "") == (code == 0)
        assert run(capsys, [*argv, "--cochain", str(respelled)]) == canonical
    assert calls == []


@pytest.mark.parametrize(
    "base, named",
    [
        (["54/56", "24/14"], "['27/28', '12/7']"),
        (["22/84", "100/42"], "['11/42', '50/21']"),
    ],
    ids=["another_point", "chart_a_hat_read_before"],
)
def test_verify_respelled_base_of_another_value_exit_1(capsys, tmp_path, base, named):
    # a slot base is compared with its cell's fit by value, also when its
    # strings were read before in the document (chart D1's a_hat, a claim)
    doc = _respell(json.loads((ROOT / "tests/golden/cocycle_two_charts.json").read_text()))
    record = doc["pairs"]["D1|D2"]
    assert record["beta"]["[1]"]["base"] == ["26/28", "24/14"]
    record["beta"]["[2]"]["base"] = base
    code, out, err = _verify_golden(capsys, tmp_path, doc)
    assert_one_error_line(code, out, err)
    assert err == (
        f"error: cochain 'pairs' entry 'D1|D2': coefficient at [2] is based at"
        f" {named}, expected ['13/14', '12/7']\n"
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "name, argv, code",
    [
        ("cocycle_quad3d", QUAD_ARGV, 0),
        (
            "cocycle_three_charts",
            ["--dataset", "sampledata/toy5.json", "--cover", "sampledata/cover_three_charts.json"],
            3,
        ),
        (
            "cocycle_line_three_charts",
            [
                "--dataset", "sampledata/line6.json",
                "--cover", "sampledata/cover_line_three_charts.json",
            ],
            0,
        ),
    ],
    ids=["quad3d", "three_charts_obstructed", "line_glues"],
)
def test_cocycle_report_is_derived_without_a_check(capsys, monkeypatch, name, argv, code, fmt):
    # the report of cocycle follows from its construction; only verify checks
    def fail(*args):
        raise AssertionError("cocycle ran verify_cocycle")

    monkeypatch.setattr(assembly, "verify_cocycle", fail)
    monkeypatch.setattr(cli, "verify_cocycle", fail)
    monkeypatch.chdir(ROOT)
    assert run(capsys, ["cocycle", *argv, "--format", fmt]) == (
        code,
        (ROOT / f"tests/golden/{name}.{fmt}").read_text(),
        "",
    )


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
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
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
    assert err == f"error: [Errno 2] No such file or directory: {excerpt(repr(missing))}\n"
    dataset = files("d.json", TOY_DATASET)
    code, out, err = run(capsys, ["fit", "--dataset", dataset, "--output", str(tmp_path)])
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 21] Is a directory: {excerpt(repr(str(tmp_path)))}\n"


# Packages no command uses: fractions imports decimal, numbers and re; json's
# decoder, scanner and encoder compile patterns at import, so load re; re
# imports enum, which imports functools, which imports collections
START_UP_UNUSED = {
    "re", "enum", "functools", "collections", "decimal", "numbers", "fractions", "json"
}


def _unused(loaded) -> list:
    """The modules of ``loaded`` that no command uses: those packages and
    their submodules."""
    return sorted(name for name in loaded if name.partition(".")[0] in START_UP_UNUSED)


def _child_env() -> dict:
    # started as the benchmark starts it: without site, from src, with no
    # PYTHON* variable of the calling environment, on the fractions backend
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), LSGLUE_BACKEND="fractions")
    return env


def test_import_loads_no_module_the_cli_does_not_use():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, lsglue.cli; print(*sys.modules)"],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    loaded = set(proc.stdout.split())
    assert "lsglue.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "pathlib", "typing", "csv"} == set()
    assert _unused(loaded) == []


def test_a_run_loads_no_module_the_import_did_not(tmp_path):
    # a cocycle and a verify run on a JSON data set need nothing that import
    # lsglue.cli did not load: on line6's three charts the triple glues, and
    # on toy5's it is obstructed, so verify dumps its residuals too
    for dataset, cover, codes in (
        ("line6.json", "cover_line_three_charts.json", "0 0"),
        ("toy5.json", "cover_three_charts.json", "3 4"),
    ):
        data = ["--dataset", str(ROOT / "sampledata" / dataset)]
        data += ["--cover", str(ROOT / "sampledata" / cover)]
        report, checked = str(tmp_path / "report.json"), str(tmp_path / "verify.json")
        script = f"""
import sys
from lsglue import cli
before = set(sys.modules)
codes = (
    cli.main(["cocycle", *{data!r}, "--output", {report!r}]),
    cli.main(["verify", *{data!r}, "--cochain", {report!r}, "--output", {checked!r}]),
)
print(*codes, *sorted(set(sys.modules) - before))
print(*sorted(sys.modules))
"""
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        codes_and_added, loaded = proc.stdout.splitlines()
        assert codes_and_added == codes
        assert set(loaded.split()) & {"argparse", "gettext", "locale", "shutil"} == set()
        assert _unused(loaded.split()) == []


def test_a_run_without_the_json_accelerator_writes_the_same_bytes():
    # with _json blocked before the import, json's own Python code reads the
    # inputs and json.dumps writes the failure dump: a cocycle with an
    # obstructed triple, and a verify of a tampered cochain that dumps a
    # pair's and a triple's residual, write what they write with _json
    script = """
import sys
blocked = sys.argv[1] == "blocked"
if blocked:
    sys.modules["_json"] = None
from lsglue import cli
assert (cli._make_encoder is None) == (cli._make_scanner is None) == blocked
sys.exit(cli.main(sys.argv[2:]))
"""
    sample = ROOT / "sampledata"
    line = ["--dataset", str(sample / "line6.json")]
    line += ["--cover", str(sample / "cover_line_three_charts.json")]
    runs = (
        (["cocycle", "--dataset", str(sample / "toy5.json"), "--cover",
          str(sample / "cover_three_charts.json")], 3),
        (["verify", *line, "--cochain",
          str(ROOT / "tests/golden/cochain_tampered_beta_c0.json")], 4),
    )
    for argv, code in runs:
        outcomes = [
            subprocess.run(
                [sys.executable, "-S", "-c", script, side, *argv],
                env=_child_env(),
                capture_output=True,
                timeout=60,
            )
            for side in ("loaded", "blocked")
        ]
        loaded, blocked = [(p.returncode, p.stdout, p.stderr) for p in outcomes]
        assert blocked == loaded
        assert loaded[0] == code and loaded[1]
    assert [row.split(b":")[0] for row in loaded[2].splitlines()] == [
        b"pair L1|L3",
        b"triple L1|L2|L3",
    ]


# JSON leaves and keys that json.dumps treats specially: quotes, backslashes,
# control characters, non-ASCII text and astral characters escaped as
# surrogate pairs; -0.0, subnormals, 1e16, NaN and the infinities; ints far
# past 64 bits
_JSON_TEXT = st.text(st.sampled_from('a"\\\x00\x1f\x7f\n\t/é€😀\u2028'), max_size=5)
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-(2**200), 2**200)
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 123456789.0])
    | _JSON_TEXT
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(
    doc=_JSON_DOCS,
    shared=st.lists(_JSON_TEXT | st.integers() | st.floats(), min_size=1, max_size=4),
)
@example(doc={}, shared=["a"])
@example(doc=[1.0, float("nan")], shared=["a"])
@example(doc={}, shared=["a", float("-inf")])
def test_json_text_is_json_dumps_indent_2(doc, shared):
    # one list object at several depths, and twice at one, as the report
    # holds one list per vector; a NaN or an infinity is refused as strict
    # JSON refuses it, with the same message
    deeper = {"a": shared, "b": [[shared], []], "c": {"x": shared, "y": shared}, "d": {}}
    doc = {"doc": doc, "shared": shared, "deeper": deeper}
    try:
        expected = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as err:
        with pytest.raises(ValueError) as raised:
            cli._json_text(doc)
        assert str(raised.value) == str(err)
        # the failure dump's compact writer refuses it too, in the words of
        # json's C encoder, which json.dumps runs without indent: before
        # Python 3.13 they leave the value out.  Its first refused value is
        # met in the order of the dict, not of the sorted keys
        with pytest.raises(ValueError) as compact:
            json.dumps(doc, allow_nan=False)
        with pytest.raises(ValueError) as raised:
            cli._compact_text(doc)
        assert str(raised.value) == str(compact.value)
    else:
        assert cli._json_text(doc) == expected
        # the failure dump's compact writer is json.dumps with its defaults
        assert cli._compact_text(doc) == json.dumps(doc)


# JSON texts: documents written compact and indented, cut short, after a
# byte order mark or blanks, before trailing data or blanks
_JSON_INPUTS = st.one_of(
    _JSON_DOCS.map(json.dumps),
    _JSON_DOCS.map(lambda doc: json.dumps(doc, indent=2, ensure_ascii=False)),
    st.tuples(_JSON_DOCS.map(json.dumps), st.integers(0, 60)).map(lambda t: t[0][: t[1]]),
    st.tuples(
        st.sampled_from(["", " \t\n\r", "\ufeff", "\x0b", "\xa0"]),
        _JSON_DOCS.map(json.dumps),
        st.sampled_from(["", " \n\t\r", "x", " 1", "{}", "\x0c", "\u2028", "]"]),
    ).map("".join),
)


@pytest.fixture(scope="module")
def json_file(tmp_path_factory):
    return tmp_path_factory.mktemp("reader") / "doc.json"


def _reading(path, scanner) -> tuple:
    """``cli._read_json`` of ``path`` with ``cli._make_scanner`` set to
    ``scanner`` (None: json.loads reads it): the document as json.dumps
    writes it, or the error line, and the number of json.loads calls."""
    saved, loads = cli._make_scanner, json.loads
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    cli._make_scanner, json.loads = scanner, counting
    try:
        outcome = ("doc", json.dumps(cli._read_json(str(path))))
    except LsglueError as err:
        outcome = ("error", f"error: {err}")
    finally:
        cli._make_scanner, json.loads = saved, loads
    return outcome, len(calls)


@settings(max_examples=300, deadline=None)
@given(text=_JSON_INPUTS)
@example(text="")
@example(text="   ")
@example(text="\ufeff{}")
@example(text='{"a": 1} x')
@example(text='{"a": [1, 2')
@example(text="NaN")
@example(text="[-Infinity, Infinity, NaN, 1e400, -0.0]")
@example(text='{"a": 1, "b": 2, "b": 3, "a": 4}')
@example(text='[{"k": 1, "k": 1}, {"k": 2, "k": 2}]')
@example(text="[" * 100_000)
@example(text="[" * 100_000 + "]" * 100_000)
@example(text="1" * 5000)
@example(text='"\\ud800"')
@example(text='"\x01"')
def test_reader_gives_what_json_loads_gives(json_file, text):
    # the fast path gives json.loads' document, without calling it, or the
    # same error line, which json.loads gives
    json_file.write_text(text, encoding="utf-8")
    slow, slow_calls = _reading(json_file, None)
    fast, fast_calls = _reading(json_file, cli._make_scanner)
    assert fast == slow
    assert slow_calls == 1
    assert fast_calls == (fast[0] == "error")


def test_report_holds_one_list_object_per_vector(capsys, monkeypatch):
    # the writer keeps each vector's strings, so â's one list is a chart's
    # a_hat, its α's c and base, and a pair's a_hat and every β slot's base,
    # in the report of cocycle and in that of verify
    assert assembly.ReportStrings.__slots__ == ("_vectors",)
    docs = []
    render = cli._json_text

    def keep(doc):
        docs.append(doc)
        return render(doc)

    monkeypatch.setattr(cli, "_json_text", keep)
    # toy5 over three charts: every β is nonzero, and the triple is obstructed
    toy = [
        "--dataset",
        str(ROOT / "sampledata/toy5.json"),
        "--cover",
        str(ROOT / "sampledata/cover_three_charts.json"),
    ]
    golden = str(ROOT / "tests/golden/cocycle_three_charts.json")
    assert run(capsys, ["cocycle", *toy])[0] == 3
    assert run(capsys, ["verify", *toy, "--cochain", golden])[0] == 4
    assert len(docs) == 2
    for doc in docs:
        assert doc["charts"] and doc["pairs"]
        for record in doc["charts"].values():
            (alpha,) = record["alpha"].values()
            assert alpha["c"] is record["a_hat"] and alpha["base"] is record["a_hat"]
        for record in doc["pairs"].values():
            assert record["beta"]
            for slot in record["beta"].values():
                assert slot["base"] is record["a_hat"]

"""Mutated inputs end in an exit code, never in a traceback.

Valid dataset, cover, model (affine and monomial) and cochain documents are
mutated at one nested position -- a value replaced, a key or an element
removed, a key or an element added -- and ``cli.main`` runs ``fit``,
``cocycle`` or ``verify`` on them in process.  Every run must return 0, 2, 3
or 4, or return 1 with exactly one ``error:`` line on stderr.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsglue import cli

DATASET = {
    "ambient_dim": 1,
    "points": [
        {"x": ["-4"], "y": "2", "weight": "1"},
        {"x": ["-1"], "y": "1", "weight": "1"},
        {"x": ["1"], "y": "2", "weight": "1/2"},
        {"x": ["2"], "y": "4", "weight": "1"},
        {"x": ["5"], "y": "6"},
    ],
}
# three charts with one triple overlap, which is obstructed for both models
COVER = {
    "charts": [
        {"name": "D1", "indices": [1, 2, 3, 4]},
        {"name": "D2", "indices": [2, 3, 4, 5]},
        {"name": "D3", "indices": [1, 2, 3, 5]},
    ]
}
MODELS = {
    "affine": {"features": "affine"},
    "monomial": {"features": "monomials", "exponents": [[3], [0]]},
}
KEYS = [
    "ambient_dim", "points", "x", "y", "weight", "charts", "name", "indices",
    "features", "exponents", "alpha", "beta", "r", "c0", "c", "base",
    "D1", "D1|D2", "D1|D2|D3", "[1]", "[1,2]",
]
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-4, 4, allow_nan=False),
    st.sampled_from(["", "x", "0", "-1", "1/2", "1/0", "2.5", "affine", "monomials"]),
    st.sampled_from(KEYS),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutations(draw, doc):
    """``doc`` with one nested position replaced, removed or extended."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    action = draw(st.sampled_from(["replace", "remove", "extend"]))
    if not path:
        return draw(values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    if action == "remove":
        del parent[path[-1]]
    elif action == "extend" and isinstance(node, dict):
        node[draw(st.sampled_from(KEYS))] = draw(values)
    elif action == "extend" and isinstance(node, list):
        node.insert(draw(st.integers(0, len(node))), draw(values))
    else:
        parent[path[-1]] = draw(values)
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the honest cocycle report of each model."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "dataset.json").write_text(json.dumps(DATASET), encoding="utf-8")
    (root / "cover.json").write_text(json.dumps(COVER), encoding="utf-8")
    for name, model in MODELS.items():
        (root / "model.json").write_text(json.dumps(model), encoding="utf-8")
        report = root / f"cochain_{name}.json"
        code, err = _run(
            [
                "cocycle",
                "--dataset", str(root / "dataset.json"),
                "--cover", str(root / "cover.json"),
                "--model", str(root / "model.json"),
                "--output", str(report),
            ]
        )
        assert (code, err) == (3, "")
    return root


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_mutated_inputs_end_in_an_exit_code(workdir, data):
    command = data.draw(st.sampled_from(["fit", "cocycle", "verify"]))
    model_name = data.draw(st.sampled_from(sorted(MODELS)))
    docs = {
        "dataset": DATASET,
        "cover": COVER,
        "model": MODELS[model_name],
    }
    if command == "verify":
        docs["cochain"] = json.loads(
            (workdir / f"cochain_{model_name}.json").read_text(encoding="utf-8")
        )
    target = data.draw(st.sampled_from(sorted(docs)))
    docs[target] = data.draw(mutations(docs[target]))

    argv = [command]
    for name, doc in docs.items():
        path = workdir / f"input_{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv += [f"--{name}", str(path)]
    argv += ["--output", str(workdir / "report.json")]
    code, err = _run(argv)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code in (0, 2, 3, 4), (code, err)

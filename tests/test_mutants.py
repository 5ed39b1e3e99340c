"""The mutation catalog of ``tests/mutants.py`` still points at the code.

Each entry's old text must occur exactly once in ``src/lsglue``, in the
entry's own file, and each of its node ids must name a test function of its
file.  The catalog itself runs outside tier-1: ``python tests/mutants.py``.
"""

import re

import pytest

from mutants import CATALOG, ROOT

PACKAGE = ROOT / "src" / "lsglue"
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
IDS = [mutant.name for mutant in CATALOG]


def test_entry_names_are_unique():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("mutant", CATALOG, ids=IDS)
def test_old_text_occurs_once_in_src(mutant):
    counts = {name: text.count(mutant.old) for name, text in SOURCES.items() if mutant.old in text}
    assert counts == {mutant.path: 1}
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", CATALOG, ids=IDS)
def test_node_ids_name_tests(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        function = name.partition("[")[0]
        source = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {function}\(", source, re.M), node

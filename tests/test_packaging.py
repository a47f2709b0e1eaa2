import ast
import re
import sys
from pathlib import Path

import pytest

import altlex_miner

tomllib = pytest.importorskip("tomllib")

PACKAGE = Path(altlex_miner.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def _imported_top_levels(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_declared_dependencies_are_the_imported_ones():
    # A declared dependency the code never imports still has to be
    # installed; an undeclared one breaks a clean install.
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    imported = set().union(*(_imported_top_levels(p) for p in PACKAGE.rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {PACKAGE.name}
    assert declared == third_party

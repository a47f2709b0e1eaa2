import ast
import re
import sys
from argparse import _HelpAction, _SubParsersAction
from pathlib import Path

import pytest

import altlex_miner
from altlex_miner.cli import build_parser

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


def test_readme_lists_exactly_the_cli_options():
    # An option the README does not name is one a user cannot find; a name
    # the CLI does not accept is a usage error. Install lines name pip's
    # options, and --help is argparse's own.
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, _SubParsersAction)]
    cli_options = {
        option
        for sub in subcommands.choices.values()
        for action in sub._actions
        if not isinstance(action, _HelpAction)
        for option in action.option_strings
        if option.startswith("--")
    }
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    readme_options = {
        option
        for line in readme.splitlines()
        if "pip install" not in line
        for option in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)
    }
    assert readme_options == cli_options

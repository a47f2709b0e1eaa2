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


# Calls that read a file. ``text.read_lines`` is the one reader of input
# files, and the only function that calls one.
_FILE_READS = {"open", "read_text", "read_bytes"}
_FILE_READERS = {"text.read_lines"}
_LINE_READERS = {
    "corpus.read_aligned_rows",
    "corpus.read_article",
    "corpus.load_agreement_tsv",
    "discourse.load_inventory",
    "cli.load_config_file",
    "lexres.load_ppdb",
    "lexres.load_synonyms",
}


def _calls_by_function(path):
    """{"module.function": [Call nodes]}, by the innermost enclosing def;
    module-level calls fall under "module.<module>"."""
    calls: dict[str, list[ast.Call]] = {}

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{path.stem}.{node.name}"
        if isinstance(node, ast.Call):
            calls.setdefault(owner, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.<module>")
    return calls


def _called_name(call):
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", "")


def _reads_a_file(call):
    name = _called_name(call)
    # ``resources.files(...)...read_*()`` reads a package file.
    return name in _FILE_READS or (
        name.startswith("read_")
        and any(isinstance(node, ast.Call) and _called_name(node) == "files" for node in ast.walk(call.func))
    )


def test_every_input_file_is_read_by_read_lines():
    # One reader means one rule for BOMs, line ends, blank lines and
    # undecodable bytes; a second open() would be a second rule.
    calls = {}
    for path in PACKAGE.rglob("*.py"):
        calls.update(_calls_by_function(path))
    assert {owner for owner, found in calls.items() if any(map(_reads_a_file, found))} == _FILE_READERS
    line_readers = {owner for owner, found in calls.items() if "read_lines" in map(_called_name, found)}
    assert line_readers == _LINE_READERS


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

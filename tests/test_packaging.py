import ast
import builtins
import importlib
import inspect
import re
import sys
from argparse import _HelpAction, _SubParsersAction
from pathlib import Path

import pytest

import altlex_miner
from altlex_miner import lexres
from altlex_miner.cli import build_parser
from altlex_miner.discourse import load_inventory

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


# Calls that read a file. ``text.read_blocks`` is the one function that
# opens input files, and the only function that calls one.
_FILE_READS = {"open", "read_text", "read_bytes"}
_FILE_READERS = {"text.read_blocks"}
# The callers of each of the two readers.
_LINE_READERS = {
    "read_lines": {
        "corpus.read_aligned_rows",
        "corpus.read_article",
        "corpus.load_agreement_tsv",
        "discourse.load_inventory",
        "cli.load_config_file",
        "lexres.load_synonyms",
    },
    "read_blocks": {"text.read_lines", "lexres.load_ppdb"},
}


def _nodes_by_function(path, node_type):
    """{"module.function": [nodes of ``node_type``]}, by the innermost
    enclosing def; module-level nodes fall under "module.<module>"."""
    nodes: dict[str, list[ast.AST]] = {}

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{path.stem}.{node.name}"
        if isinstance(node, node_type):
            nodes.setdefault(owner, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.<module>")
    return nodes


def _called_name(call):
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", "")


def _writes_only(call):
    """Whether an ``open`` call's mode is a literal that cannot read: "w",
    "x" or "a" without "+". An absent mode is "r"."""
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    return any(
        isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not set("r+") & set(mode.value)
        for mode in modes
    )


def _reads_a_file(call):
    name = _called_name(call)
    if name == "open" and _writes_only(call):
        return False
    # ``resources.files(...)...read_*()`` reads a package file.
    return name in _FILE_READS or (
        name.startswith("read_")
        and any(isinstance(node, ast.Call) and _called_name(node) == "files" for node in ast.walk(call.func))
    )


def test_every_input_file_is_read_by_read_blocks():
    # One reader means one rule for BOMs, line ends and undecodable bytes;
    # a second open() would be a second rule.
    calls = {}
    for path in PACKAGE.rglob("*.py"):
        calls.update(_nodes_by_function(path, ast.Call))
    assert {owner for owner, found in calls.items() if any(map(_reads_a_file, found))} == _FILE_READERS
    line_readers = {
        reader: {owner for owner, found in calls.items() if reader in map(_called_name, found)}
        for reader in _LINE_READERS
    }
    assert line_readers == _LINE_READERS


def _reads_token_re(node):
    name = node.id if isinstance(node, ast.Name) else node.attr
    return name == "_TOKEN_RE" and isinstance(node.ctx, ast.Load)


def test_one_pattern_says_what_a_token_is():
    # Sentences read from files, substituted sentences, blank lines and the
    # surface tokens found again in a Sentence's raw text, all or the first,
    # follow ``_TOKEN_RE``; a second rule would need a reader of its own.
    nodes = {}
    for path in PACKAGE.rglob("*.py"):
        nodes.update(_nodes_by_function(path, (ast.Name, ast.Attribute)))
    readers = {owner for owner, found in nodes.items() if any(map(_reads_token_re, found))}
    assert readers == {"text.tokenize", "text.block_lines", "text.surface_forms", "text.first_surface"}


# Regex syntax new in Python 3.11, which 3.10, the least version
# pyproject.toml allows, rejects with "multiple repeat": possessive
# quantifiers and atomic groups.
_NEW_IN_PYTHON_3_11 = re.compile(r"[*+?}]\+|\(\?>")


def test_patterns_compile_on_the_least_python():
    # Tests run on a newer Python, where such a pattern compiles.
    patterns = [
        value
        for path in PACKAGE.glob("*.py")
        if path.stem != "__main__"
        for value in vars(importlib.import_module(f"{PACKAGE.name}.{path.stem}")).values()
        if isinstance(value, re.Pattern)
    ]
    assert lexres._SCORE_RE in patterns
    patterns.append(lexres._unstorable_lines({entry.parts[0] for entry in load_inventory()}))
    assert [p.pattern for p in patterns if _NEW_IN_PYTHON_3_11.search(p.pattern)] == []


def test_every_output_file_is_written_by_replacing():
    # One writer means one rule for temporary files, symlinks, permission
    # bits and FIFOs, and one way a failed run leaves the old outputs.
    calls = {}
    for path in PACKAGE.rglob("*.py"):
        calls.update(_nodes_by_function(path, ast.Call))
    # The null device, which a closed stdout is pointed at, is no output.
    null_device = lambda call: call.args and ast.unparse(call.args[0]) == "os.devnull"
    writes = lambda call: _called_name(call) in {"write_text", "write_bytes"} or (
        _called_name(call) == "open" and _writes_only(call) and not null_device(call)
    )
    assert {owner for owner, found in calls.items() if any(map(writes, found))} == {"cli._replacing"}


def test_declared_dependencies_are_the_imported_ones():
    # A declared dependency the code never imports still has to be
    # installed; an undeclared one breaks a clean install.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_")
        for spec in project["dependencies"]
    }
    imported = set().union(*(_imported_top_levels(p) for p in PACKAGE.rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {PACKAGE.name}
    assert declared == third_party


def test_every_cli_option_has_help():
    # ``--help`` is where a user looks up an option and its default, or
    # what a positional argument names.
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, _SubParsersAction)]
    unexplained = [
        (name, action.option_strings or action.metavar)
        for name, sub in subcommands.choices.items()
        for action in sub._actions
        if not isinstance(action, (_HelpAction, _SubParsersAction)) and not action.help
    ]
    assert unexplained == []


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


# Public names that neither code in the package nor the README's inline
# code reaches, each with its reason.
_UNREACHED_PUBLIC_NAMES = {
    "compute_idf": "bound by perfbench's tracer",
    "match_phrase": "bound by perfbench's tracer",
    "load_article_dir": "bound by perfbench's tracer",
    # The README's Library example does not count: the check strips fenced code.
    "load_aligned_tsv": "bound by perfbench's tracer as cli.load_aligned_tsv",
}


def test_public_names_are_used_or_documented():
    # A public function or class that no code calls and the README does not
    # name is surface no run reaches. A re-export in __init__ is no use.
    readme = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    inline_code = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```", "", readme, flags=re.M | re.S))
    documented = {name for code in inline_code for name in re.findall(r"[A-Za-z_]\w*", code)}
    public, used = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        public.update(
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert public - used - documented == set(_UNREACHED_PUBLIC_NAMES)


def test_exports_are_the_imported_public_names():
    # A name left in __all__ after its deletion breaks ``import *``; a public
    # class or function imported but not exported is surface nobody listed.
    exported = altlex_miner.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(altlex_miner, name)] == []
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {
        name
        for name in imported
        if not name.startswith("_")
        and (inspect.isclass(obj := getattr(altlex_miner, name)) or inspect.isfunction(obj))
    }
    assert public - set(exported) == set()


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def test_private_module_names_are_read():
    # A private module-level function, class or constant that no code in
    # the package reads is left over from code that has gone.
    defined, read = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
                defined.update((path.stem, name.id) for name in names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert sorted((module, name) for module, name in defined if _is_private(name) and name not in read) == []


def _names_an_exception(base):
    name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
    builtin = getattr(builtins, name, None)
    return name.endswith(("Error", "Exception")) or isinstance(builtin, type) and issubclass(builtin, BaseException)


def test_input_error_is_the_one_exception_class():
    # Every bad input raises one type, which ``main`` and library callers
    # catch; a second class would only carry the same message.
    exceptions = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(map(_names_an_exception, node.bases)):
                exceptions.add(f"{path.stem}.{node.name}")
    assert exceptions == {"text.InputError"}

"""Checks on the package source itself."""

from __future__ import annotations

import argparse
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "prsafety"
SOURCES = sorted(PACKAGE.glob("*.py"))
# Every file that may read a package constant.
READERS = sorted(path for folder in ("src", "tests", "bench") for path in (ROOT / folder).rglob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import csv\nimport json\njson.dumps(1)\n") == ["csv (line 1)"]
    assert _unused_imports("from typing import Mapping\nx: Mapping\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_import_is_used(path):
    assert _unused_imports(path.read_text("utf-8")) == []


def _imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a source imports, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_only_corpus_formats_csv():
    # One CSV form: corpus opens every CSV artifact and formats every field
    # through csv.writer; other modules hand it rows.
    assert [path.name for path in SOURCES if "csv" in _imported_modules(path.read_text("utf-8"))] == ["corpus.py"]


def _own_json_forms(source: str) -> list[str]:
    """Each to_json the source defines and each use of dataclasses.asdict."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_json":
            sites.append(f"def to_json (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and any(alias.name == "asdict" for alias in node.names):
            sites.append(f"import asdict (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr == "asdict":
            sites.append(f"asdict (line {node.lineno})")
    return sites


def test_the_check_sees_an_own_json_form():
    source = "from dataclasses import asdict, dataclass\nclass A:\n def to_json(self):\n  return dataclasses.asdict(self)\n"
    assert _own_json_forms(source) == ["import asdict (line 1)", "def to_json (line 3)", "asdict (line 4)"]


def test_only_corpus_json_form_gives_values_their_json_form():
    # One JSON form: corpus.json_form turns dataclasses, timestamps, dates,
    # paths, sets and arrays into JSON data for every writer.
    assert [f"{path.name}: {site}" for path in SOURCES for site in _own_json_forms(path.read_text("utf-8"))] == []


def _names_read(sources: list[str]) -> set[str]:
    """Every name the sources read: as a name, an attribute or a from-import."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _unread_constants(source: str, read: set[str]) -> list[str]:
    """Names the module's top-level assignments bind (dunders aside) that are not in read."""
    bound = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store) and not name.id.startswith("__"):
                    bound.setdefault(name.id, node.lineno)
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_check_sees_an_unread_constant():
    module = "A = 1\nB: int = 2\nC, D = 3, 4\n_E = A\n__all__ = []\nF[0] = 5\n"
    read = _names_read([module, "import m\nm.B\n", "from m import C\n"])
    assert _unread_constants(module, read) == ["D (line 3)", "_E (line 4)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_constant_is_read(path):
    read = _names_read([reader.read_text("utf-8") for reader in READERS])
    assert _unread_constants(path.read_text("utf-8"), read) == []


def _callers(source: str, name: str) -> list[str]:
    """Every function around each self.<name>(...) or <name>(...) call, nested ones included."""
    return [
        function.name
        for function in ast.walk(ast.parse(source))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == name
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == name
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        )
    ]


def test_the_check_sees_every_caller():
    source = (
        "class A:\n def f(self):\n  self._get()\n def g(self):\n  h = lambda: self._get()\n"
        "def k():\n _get()\n_get()\n"
    )
    assert _callers(source, "_get") == ["k", "f", "g"]


def test_every_github_request_goes_through_the_staging_loop():
    # One loop stages and cursor-marks every response, so nothing else may send a GET.
    source = (PACKAGE / "github_fetch.py").read_text("utf-8")
    assert _callers(source, "_get") == ["_stage"]


def test_every_parser_is_built_at_import():
    # _compile and _builder exec new source on each call, so only module
    # level and the two of them call either: a load execs nothing.
    source = (PACKAGE / "corpus.py").read_text("utf-8")
    assert set(_callers(source, "_compile") + _callers(source, "_builder")) <= {"_compile", "_builder"}


def _readme_imports(text: str) -> list[tuple[str, str]]:
    """(module, name) for each from-import of prsafety in the text's python blocks."""
    return [
        (node.module, alias.name)
        for block in re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "prsafety"
        for alias in node.names
    ]


def _resolves(module: str, name: str) -> bool:
    """Whether `from module import name` finds an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_the_readme_check_sees_a_missing_name():
    text = "```sh\nfrom prsafety import nothing\n```\n```python\nfrom prsafety import glm, load_corpus\n```\n"
    assert _readme_imports(text) == [("prsafety", "glm"), ("prsafety", "load_corpus")]
    assert _resolves("prsafety", "glm") and _resolves("prsafety.corpus", "load_corpus")
    assert not _resolves("prsafety", "load_corpus")


def test_every_readme_import_resolves():
    imports = _readme_imports((ROOT / "README.md").read_text("utf-8"))
    assert ("prsafety.corpus", "load_corpus") in imports
    assert [f"{module}.{name}" for module, name in imports if not _resolves(module, name)] == []


def _raised(source: str) -> list[str]:
    """The class name each raise statement raises, a module's prefix aside."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.append(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def test_the_check_names_every_raised_class():
    source = "raise StageError('a')\nraise pipeline.StageError\nraise ValueError('StageError')\nraise\n"
    assert _raised(source) == ["StageError", "StageError", "ValueError"]


def test_one_place_raises_stage_error():
    # The no-fit policy is written once, in run_pipeline.
    assert sum(_raised(path.read_text("utf-8")).count("StageError") for path in SOURCES) == 1


def test_the_subcommands_are_fetch_and_the_stage_names():
    from prsafety import cli, pipeline

    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["fetch", *(stage.name for stage in pipeline.STAGES)]

"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "prsafety"
SOURCES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
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


def _callers(source: str, method: str) -> list[str]:
    """Every function around each self.<method>(...) call, nested ones included."""
    return [
        function.name
        for function in ast.walk(ast.parse(source))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "self"
    ]


def test_the_check_sees_every_caller():
    source = "class A:\n def f(self):\n  self._get()\n def g(self):\n  h = lambda: self._get()\n"
    assert _callers(source, "_get") == ["f", "g"]


def test_every_github_request_goes_through_the_staging_loop():
    # One loop stages and cursor-marks every response, so nothing else may send a GET.
    source = (PACKAGE / "github_fetch.py").read_text("utf-8")
    assert _callers(source, "_get") == ["_stage"]

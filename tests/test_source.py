"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).parent.parent / "src" / "prsafety").glob("*.py")
    if path.name != "__init__.py"
)


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

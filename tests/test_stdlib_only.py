"""The package is stdlib-only: every import in src/flexstore is of the
standard library or of flexstore itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "flexstore")
                 .glob("*.py"))


def imported(tree):
    """The top-level name of each module an absolute import names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "repo.py", "core.py"}


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib(source):
    names = set(imported(ast.parse(source.read_text(), str(source))))
    assert names - sys.stdlib_module_names - {"flexstore"} == set()

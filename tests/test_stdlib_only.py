"""Static checks of src/flexstore's sources: the package is
stdlib-only, every import in it being of the standard library or of
flexstore itself; no module imports a name it does not use; and only
hashing.py knows how a node is hashed."""

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


def bound_imports(tree):
    """The name each import binds, but `from __future__` ones."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0]
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def exported(tree):
    """The names a module's `__all__` lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(source):
    tree = ast.parse(source.read_text(), str(source))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert set(bound_imports(tree)) - used - exported(tree) == set()


# Node encoding: the domain tags and packed layouts, and the bare hash
# constructor a module would need to hash a node by itself.
NODE_ENCODING = {"TAG_INTERNAL", "TAG_LEAF", "TAG_SENTINEL",
                 "internal_layout", "leaf_layout", "hash_fn"}


def names_read(tree):
    """Every name, attribute and imported name a module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


@pytest.mark.parametrize(
    "source", [p for p in SOURCES if p.name != "hashing.py"],
    ids=lambda p: p.name)
def test_only_hashing_encodes_nodes(source):
    tree = ast.parse(source.read_text(), str(source))
    assert set(names_read(tree)) & NODE_ENCODING == set()

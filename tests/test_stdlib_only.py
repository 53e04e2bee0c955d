"""Static checks of src/flexstore's sources: the package is
stdlib-only, every import in it being of the standard library or of
flexstore itself; no module imports a name it does not use; only
hashing.py knows how a node is hashed; every function and class is
named by the package or the benchmark, so none is there for the tests
alone; and no module can rewrite a file in place."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "flexstore").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


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


def parse(source):
    return ast.parse(source.read_text(), str(source))


def defined(tree):
    """The name of every function, method and class a module defines,
    but dunders."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))):
            yield node.name


def test_every_definition_named_by_the_package_or_the_benchmark():
    """A definition no code of the package or the benchmark names is
    there for the tests alone. An import or an `__all__` entry is not a
    use. The benchmark's tracer names what it wraps by strings, so its
    string constants count."""
    named = set()
    for source in SOURCES + BENCHMARK:
        named |= {node.id if isinstance(node, ast.Name) else node.attr
                  for node in ast.walk(parse(source))
                  if isinstance(node, (ast.Name, ast.Attribute))}
    for source in BENCHMARK:
        named |= {part for node in ast.walk(parse(source))
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  for part in node.value.split(".")}
    unnamed = {f"{source.name}: {name}" for source in SOURCES
               for name in defined(parse(source)) if name not in named}
    assert sorted(unnamed) == []


def file_modes(tree):
    """Every string constant that reads as an open() mode."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.fullmatch("[rwxa][bt+]{0,2}", node.value)):
            yield node.value


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_file_rewritten_in_place(source):
    """A store file is appended to and cut back, never written over: no
    mode opens a file for update, and nothing writes at an offset."""
    tree = parse(source)
    assert [mode for mode in file_modes(tree) if "+" in mode] == []
    assert set(names_read(tree)) & {"pwrite", "pwritev"} == set()

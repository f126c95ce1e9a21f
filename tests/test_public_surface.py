"""The package's public surface: no public helper that only tests call."""

import ast
from pathlib import Path

import afbell

SRC = Path(afbell.__file__).parent

# Public top-level names that no src/ code calls but that stay public.
# exact_behavior is the library's call for the exact tables of a rotated
# setup, and the benchmark harness calls it.
NO_SRC_CALLER = {"exact_behavior"}


def _references(node, skip):
    """Names that node reads, as plain names or attributes, outside the
    subtree skip.  Imports and __all__ strings are not reads."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip)


def test_every_public_function_and_class_has_a_src_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in NO_SRC_CALLER):
                if not any(node.name in _references(other, node) for other in trees.values()):
                    uncalled.append(f"{module[:-3]}.{node.name}")
    assert uncalled == []


def test_every_exported_name_resolves():
    missing = [name for name in afbell.__all__ if not hasattr(afbell, name)]
    assert missing == []
    assert len(set(afbell.__all__)) == len(afbell.__all__)

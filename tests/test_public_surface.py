"""The package's public surface: no public helper that only tests call."""

import ast
from pathlib import Path

import afbell

SRC = Path(afbell.__file__).parent

# Public top-level names, and public methods of public classes as
# "Class.method", that no src/ code calls but that stay public.
NO_SRC_CALLER = {
    # The library's call for the exact tables of a rotated setup; the
    # benchmark harness calls it.
    "exact_behavior",
    # Acceptance criteria 1, 2 and 7 read P(a, b | x, y) through it.
    "ExactBehavior.prob",
    # Folds the counts of separately sampled chunks; streaming sample's chunk
    # counts are meant to be its first src/ caller.
    "JointStats.merge",
}


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


def _public(nodes, kinds):
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def test_every_public_function_and_class_has_a_src_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uncalled = []
    for module, tree in trees.items():
        for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            names = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                names += [(f"{node.name}.{method.name}", method)
                          for method in _public(node.body, ast.FunctionDef)]
            for qualified, definition in names:
                # A method is found by its bare name, so another class's
                # attribute of the same name also counts as a caller.
                if qualified not in NO_SRC_CALLER and not any(
                        definition.name in _references(other, definition)
                        for other in trees.values()):
                    uncalled.append(f"{module[:-3]}.{qualified}")
    assert uncalled == []


def test_every_exported_name_resolves():
    missing = [name for name in afbell.__all__ if not hasattr(afbell, name)]
    assert missing == []
    assert len(set(afbell.__all__)) == len(afbell.__all__)

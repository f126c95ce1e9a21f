"""The package's public surface: no public helper that only tests call."""

import ast
import textwrap
from pathlib import Path

import afbell

SRC = Path(afbell.__file__).parent

# Public top-level names, and public methods of public classes as
# "Class.method", that no src/ code calls but that stay public.
NO_SRC_CALLER = {
    # The library's call for the exact tables of a rotated setup; the
    # benchmark harness calls it.
    "exact_behavior",
}


def _imported_modules(tree):
    """Names that ``import`` statements bind: modules outside the package
    (numpy as np, math).  The package's own modules come in by
    ``from . import``, so reads through them stay reads of its names."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}


def _references(node, skip, modules):
    """Names that node reads, as plain names or attributes, outside the
    subtree skip.  Imports and __all__ strings are not reads, and neither is
    an attribute chain that starts at a name in modules, such as
    np.linalg.norm: it names another library's function, not this one's."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in modules:
            return
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip, modules)


def _public(nodes, kinds):
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def _uncalled(trees):
    """'module.name' of every public function, class and method of public
    classes in trees (file name: module) that no tree reads, bar
    NO_SRC_CALLER."""
    modules = {name: _imported_modules(tree) for name, tree in trees.items()}
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
                        definition.name in _references(other, definition, modules[name])
                        for name, other in trees.items()):
                    uncalled.append(f"{module[:-3]}.{qualified}")
    return uncalled


def test_every_public_function_and_class_has_a_src_caller():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert _uncalled(trees) == []


def test_another_librarys_function_is_not_a_caller():
    # A public method that shares its name with a numpy function stays
    # uncalled when only np.linalg.norm reads that name.
    state = ast.parse(textwrap.dedent("""
        import numpy as np

        class State:
            def norm(self):
                return 1.0

        def distance(x):
            return np.linalg.norm(x)
    """))
    assert "state.State.norm" in _uncalled({"state.py": state})
    # A read through an object is a call, and so is one through a module of
    # the package.
    user = ast.parse("from . import state\n\ndef size(s):\n    return s.norm() + state.distance(s)\n")
    uncalled = _uncalled({"state.py": state, "user.py": user})
    assert "state.State.norm" not in uncalled and "state.distance" not in uncalled


def test_every_exported_name_resolves():
    missing = [name for name in afbell.__all__ if not hasattr(afbell, name)]
    assert missing == []
    assert len(set(afbell.__all__)) == len(afbell.__all__)

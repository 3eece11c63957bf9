"""Every name a ``memwave`` module exports has a caller inside the package.

A name that only tests call is a second route or dead code: second routes
live beside their tests (``tests/oracles.py``), and dead code is deleted.
The package's ``__init__`` re-exports names without calling them, so it does
not count as a caller.
"""

import ast
from pathlib import Path

import memwave

PACKAGE = Path(memwave.__file__).parent


def _trees():
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_every_exported_name_is_used_in_the_package():
    trees = _trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _exports(tree)
        if name not in used
    ]
    assert unused == []

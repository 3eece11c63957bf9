"""Source guards over the ``memwave`` package.

Every name a module exports has a caller inside the package.  A name that
only tests call is a second route or dead code: second routes live beside
their tests (``tests/oracles.py``), and dead code is deleted.  The
package's ``__init__`` re-exports names without calling them, so it does
not count as a caller.

Every matrix the package inverts is triangular, so a general dense inverse
runs only on the diagonal leaf blocks of the blocked triangular inverse.

The package forks at one site, in ``worker.Worker``, which holds the fork
policy for every caller.

Every CSV cell goes through the numpy %.17g kernel: no ``%``-formatting of a
tuple of values is left, and ``format(v, ".17g")`` runs only on the cells
the kernel leaves to it.
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


def _owners(tree):
    """The innermost function around each node: ``ast.walk`` visits outer
    functions before the functions nested in them."""
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, func.name) for node in ast.walk(func))
    return owner


def _is_inverse(node):
    return ((isinstance(node, ast.Attribute) and node.attr == "inv")
            or (isinstance(node, ast.Name) and node.id == "inv")
            or (isinstance(node, ast.alias) and node.name == "inv"))


def test_dense_inverse_only_in_the_triangular_leaf():
    found = []
    for module, tree in _trees().items():
        owner = _owners(tree)
        found += [f"{module}.{owner.get(node, '<module>')}:{ast.unparse(node)}"
                  for node in ast.walk(tree) if _is_inverse(node)]
    assert found == ["gelfand_levitan._tril_inverse:np.linalg.inv"]


def _is_fork(node):
    return ((isinstance(node, ast.Attribute) and node.attr in ("fork", "forkpty"))
            or (isinstance(node, ast.alias) and node.name in ("fork", "forkpty")))


def test_one_fork_site_inside_the_worker_helper():
    found = []
    for module, tree in _trees().items():
        owner = _owners(tree)
        found += [f"{module}.{owner.get(node, '<module>')}:{ast.unparse(node)}"
                  for node in ast.walk(tree) if _is_fork(node)]
    assert found == ["worker._start:os.fork"]


def _docstrings(tree):
    return {
        node.body[0].value
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def _is_str(node):
    return isinstance(node, ast.JoinedStr) or (
        isinstance(node, ast.Constant) and isinstance(node.value, str))


def test_csv_cells_have_one_formatting_route():
    assert not [path.name for path in PACKAGE.glob("*.py")
                if "% tuple(" in path.read_text()]
    found = []
    for module, tree in _trees().items():
        owner, docs = _owners(tree), _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) and (
                    _is_str(node.left) or isinstance(node.right, ast.Tuple)
                    or (isinstance(node.right, ast.Call)
                        and ast.unparse(node.right.func) == "tuple")):
                found.append(f"{module}.{owner.get(node, '<module>')}:{ast.unparse(node)}")
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and ".17g" in node.value and node not in docs):
                found.append(f"{module}.{owner.get(node, '<module>')}:{node.value!r}")
    assert found == ["artifacts._slice_text:'.17g'"]

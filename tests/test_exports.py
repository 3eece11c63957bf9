"""Source guards over the ``memwave`` package.

Every name a module exports has a caller inside the package.  A name that
only tests call is a second route or dead code: second routes live beside
their tests (``tests/oracles.py``), and dead code is deleted.  The
package's ``__init__`` re-exports names without calling them, so it does
not count as a caller.  Every private module-level name is read in the
package outside its own body, and no function calls itself but the in-place
inverse Cholesky factor.

Every matrix the package inverts is triangular, so a general dense inverse
runs only on the diagonal leaf blocks of the in-place inverse Cholesky
factor, on the leaf's own Cholesky factor.

Every stage runs in one process: the package has no ``fork`` or
``forkpty``.  A fork site comes back only with a measurement that it pays.

The second routes in ``tests/oracles.py`` share no private code with the
routes they check: they import no underscore-prefixed name from ``memwave``.
Inside the package, private code lives with its callers: the only private
name one module imports from another is the block width ``model._BLOCK``.

Every reader of a march's level blocks walks them through
``model.level_starts``: no other module adds up block heights itself.  The
leapfrog march comes back as its plain level-major array, as the other
marches do, with no field wrapper around it.

Each decision two modules share has one owner.  A problem's families are
sampled in ``catalog`` (and in ``model``, which defines them): no other
module calls ``coefficient_from_family`` or ``kernel_from_family``.  The
exit-3 failure classes are grouped once, as ``errors.NumericalFailure``: no
other module lists two of them in a tuple or an ``except`` clause.  Inputs
share one grid by ``model.GridSpec.of``: no other module compares a
``.grid``.  Every output file is written by ``artifacts``, which makes its
directory too: no other module calls ``open``, ``os.makedirs`` or
``os.replace``.

Every report has one envelope: inside ``pipeline``, only ``_report`` spells
the key ``"schema_version"``.

Every CSV cell goes through the numpy %.17g kernel: no ``%``-formatting of a
tuple of values is left, and ``format(v, ".17g")`` runs only on the cells
the kernel leaves to it.
"""

import ast
from pathlib import Path

import memwave

PACKAGE = Path(memwave.__file__).parent
ORACLES = Path(__file__).with_name("oracles.py")


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


def _private_definitions(tree):
    """The private module-level names of a module, each with the statement
    that defines it; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _reads(tree):
    """Every name a module reads, as (name, node)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node


def test_every_private_module_name_is_read_in_the_package():
    trees = _trees()
    reads = [read for tree in trees.values() for read in _reads(tree)]
    defined = [(module, name, node) for module, tree in trees.items()
               for name, node in _private_definitions(tree)]
    assert len(defined) > 50
    dead = []
    for module, name, definition in defined:
        body = set(ast.walk(definition))
        if not any(read == name and node not in body for read, node in reads):
            dead.append(f"{module}.{name}")
    assert dead == []


def test_only_the_triangular_inverse_recurses():
    found = set()
    for module, tree in _trees().items():
        owner = _owners(tree)
        found |= {f"{module}.{owner[node]}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and node in owner
                  and ast.unparse(node.func) in (owner[node], f"self.{owner[node]}")}
    assert found == {"gelfand_levitan._inverse_cholesky"}


def _owners(tree):
    """The innermost function around each node: ``ast.walk`` visits outer
    functions before the functions nested in them."""
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, func.name) for node in ast.walk(func))
    return owner


def _uses(names):
    """Every attribute, name or import alias in the package that reads one of
    ``names``, as "module.owner:source"."""
    def name_of(node):
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return node.name if isinstance(node, ast.alias) else None

    found = []
    for module, tree in _trees().items():
        owner = _owners(tree)
        found += [f"{module}.{owner.get(node, '<module>')}:{ast.unparse(node)}"
                  for node in ast.walk(tree) if name_of(node) in names]
    return found


def test_dense_inverse_only_in_the_triangular_leaf():
    assert _uses({"inv"}) == ["gelfand_levitan._inverse_cholesky:np.linalg.inv"]


def test_dense_cholesky_only_in_the_triangular_inverse():
    # the leaf's factorization and the bisection of its own leading blocks
    assert _uses({"cholesky"}) == ["gelfand_levitan._inverse_cholesky:np.linalg.cholesky"] * 2


def test_package_never_forks():
    assert _uses({"fork", "forkpty"}) == []


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


def test_oracles_import_no_private_name():
    found = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(ORACLES.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("memwave")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert found == []


def test_only_the_block_width_is_imported_privately():
    found = {
        f"{node.module}.{alias.name}"
        for tree in _trees().values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("memwave"))
        for alias in node.names if alias.name.startswith("_")
    }
    assert found == {"model._BLOCK"}


def _is_height(node):
    """Whether ``node`` reads ``<name>.shape[0]``."""
    return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "shape" and isinstance(node.value.value, ast.Name)
            and isinstance(node.slice, ast.Constant) and node.slice.value == 0)


def test_only_model_accumulates_block_heights():
    found = []
    for module, tree in _trees().items():
        owner = _owners(tree)
        found += [f"{module}.{owner.get(node, '<module>')}:{ast.unparse(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.AugAssign) and _is_height(node.value)
                  and module != "model"]
    assert found == []


def test_no_field_wrapper_is_exported():
    assert not hasattr(memwave, "SpaceTimeField")
    assert [module for module, tree in _trees().items()
            if "SpaceTimeField" in _exports(tree)] == []


def test_only_the_catalogue_samples_a_problem():
    found = []
    for module, tree in _trees().items():
        owner = _owners(tree)
        found += [f"{module}.{owner.get(node, '<module>')}:{ast.unparse(node.func)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and module not in ("model", "catalog")
                  and ast.unparse(node.func).split(".")[-1]
                  in ("coefficient_from_family", "kernel_from_family")]
    assert found == []


def test_only_errors_groups_the_numerical_failures():
    classes = {"NumericalInstabilityError", "IllConditionedError", "AssemblyError"}
    found = []
    for module, tree in _trees().items():
        owner = _owners(tree)
        for node in ast.walk(tree):
            if module == "errors" or not isinstance(node, (ast.Tuple, ast.ExceptHandler)):
                continue
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.type if isinstance(node, ast.ExceptHandler)
                                       else node)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if len(named & classes) >= 2:
                found.append(f"{module}.{owner.get(node, '<module>')}")
    assert found == []


def test_only_the_report_envelope_spells_the_schema_key():
    tree = _trees()["pipeline"]
    owner = _owners(tree)
    found = [owner.get(node, "<module>") for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value == "schema_version"]
    assert found == ["_report"]


def test_only_the_grid_spec_compares_grids():
    found = []
    for module, tree in _trees().items():
        owner = _owners(tree)
        found += [f"{module}.{owner.get(node, '<module>')}:{ast.unparse(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and module != "model"
                  and any(isinstance(n, ast.Attribute) and n.attr == "grid"
                          for n in ast.walk(node))]
    assert found == []


def test_only_artifacts_opens_or_places_files():
    found = []
    for module, tree in _trees().items():
        owner = _owners(tree)
        found += [f"{module}.{owner.get(node, '<module>')}:{ast.unparse(node.func)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and module != "artifacts"
                  and ast.unparse(node.func) in ("open", "os.makedirs", "os.replace")]
    assert found == []

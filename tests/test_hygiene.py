"""Every module-level import of the package is referenced in its module,
every name a module exports through ``__all__`` exists, only the shared
evaluation rule picks a return type by the argument's dimension, only
``measures`` finds the scan ends, every built-in cost has a closed-form
conjugate, and no measure forms a reference cycle."""

import ast
import gc
import importlib
import inspect
import weakref
from pathlib import Path

import numpy as np
import pytest

from tcilab import costs, measures

SRC = Path(__file__).resolve().parents[1] / "src" / "tcilab"


def _module_imports(tree):
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse + getattr(node, "finalbody", [])
            todo += [s for h in getattr(node, "handlers", []) for s in h.body]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    assert sorted(set(_module_imports(tree)) - used) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_export_resolves(path):
    name = "tcilab" if path.stem == "__init__" else f"tcilab.{path.stem}"
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def _picks_float_by_ndim(node):
    """An ``if``/``x if c else y`` whose test reads ``ndim`` and one of whose
    branches returns or is ``float(...)``."""
    if not isinstance(node, (ast.If, ast.IfExp)):
        return False
    reads_ndim = any(getattr(n, "attr", getattr(n, "id", None)) == "ndim"
                     for n in ast.walk(node.test))
    branches = ([node.body, node.orelse] if isinstance(node, ast.IfExp)
                else [*node.body, *node.orelse])
    return reads_ndim and any(
        isinstance(n, ast.Call) and getattr(n.func, "id", None) == "float"
        for b in branches for n in ast.walk(b))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_shared_rule_picks_float_by_ndim(path):
    # scalar-or-array evaluation goes through numerics.shaped; a second
    # branch would give a second rounding or another return type
    tree = ast.parse(path.read_text())
    found = {fn.name for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef)
             and any(_picks_float_by_ndim(n) for n in ast.walk(fn))}
    assert found == ({"shaped"} if path.name == "numerics.py" else set())


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_measures_finds_the_scan_ends(path):
    # a law finds quantile(_GRID_LEVEL) and its mirror once, in scan_end;
    # a direct call elsewhere would redo that root-find on every use
    tree = ast.parse(path.read_text())
    found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
             and getattr(n.func, "attr", None) == "quantile"
             and any(getattr(c, "id", None) == "_GRID_LEVEL"
                     for a in n.args for c in ast.walk(a))]
    assert found == [] or path.name == "measures.py"


@pytest.mark.parametrize("name", sorted(costs._COST_BUILTINS))
def test_every_builtin_cost_has_a_maximizer(name):
    # without one, its conjugate would silently take the column search
    factory = costs._COST_BUILTINS[name]
    wanted = inspect.signature(factory).parameters
    for p in (1.0, 1.5, 2.0, 3.0):
        params = {k: v for k, v in {"p": p, "lam": p / 4.0}.items()
                  if k in wanted}
        assert factory(**params).maximizer is not None


def _evaluated_measure_ref(build):
    """A weak reference to a measure that was built, evaluated and dropped."""
    mu = build()
    for name in ("cdf", "sf", "log_density", "density"):
        getattr(mu, name)(0.3)
        getattr(mu, name)(np.array([-1.0, 0.3, 2.0]))
    mu.quantile(np.array([0.1, 0.7]))
    mu.isf(0.2)
    return weakref.ref(mu)


@pytest.mark.parametrize("build", [
    lambda: measures.make_builtin("exp_power", p=1.5),
    lambda: measures.make_from_table(np.linspace(-4.0, 4.0, 33),
                                     np.linspace(-4.0, 4.0, 33) ** 4 / 4.0),
    lambda: measures.make_from_potential(lambda x: 0.5 * np.asarray(x) ** 2),
], ids=["builtin", "table", "potential"])
def test_no_measure_forms_a_reference_cycle(build):
    # a measure that kept bound methods of itself would live until the
    # cyclic collector ran, and every pass's tables would pile up
    gc.disable()
    try:
        assert _evaluated_measure_ref(build)() is None
    finally:
        gc.enable()

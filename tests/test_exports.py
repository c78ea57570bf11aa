"""Every name a module exports in ``__all__`` exists, so a stale export
fails here and not in a user's ``from ... import *``; and a submodule
exports only what it defines, so each name has one home."""

import ast
import importlib
import inspect

import pytest

MODULES = ["memvec", "memvec.analytic", "memvec.assignment", "memvec.construction",
           "memvec.core", "memvec.sampling", "memvec.search", "memvec.harness.cli",
           "memvec.harness.evaluation", "memvec.harness.experiments", "memvec.harness.io"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which it does not define"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def _assigned(module) -> set[str]:
    """Names the module binds by a top-level assignment, such as its constants."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("name", [m for m in MODULES if m != "memvec"])  # the facade re-exports
def test_submodules_export_only_their_own_names(name):
    module = importlib.import_module(name)
    assigned = _assigned(module)

    def own(n):
        obj = getattr(module, n)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            return obj.__module__ == name
        return n in assigned

    foreign = [n for n in module.__all__ if not own(n)]
    assert not foreign, f"{name}.__all__ names {foreign}, which it does not define"

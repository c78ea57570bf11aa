"""Every name a module exports in ``__all__`` exists, so a stale export
fails here and not in a user's ``from ... import *``; and a submodule
exports only what it defines, so each name has one home."""

import ast
import importlib
import inspect
import pathlib

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


def _library_trees() -> dict[str, ast.Module]:
    """The parsed source of every module of the package, by module name."""
    root = pathlib.Path(importlib.import_module("memvec").__file__).parent
    trees = {}
    for path in root.rglob("*.py"):
        parts = path.relative_to(root).with_suffix("").parts
        name = ".".join(("memvec", *parts)).removesuffix(".__init__")
        trees[name] = ast.parse(path.read_text(encoding="utf-8"))
    return trees


def test_only_construction_names_the_config_shim():
    # ConstructionConfig is kept for callers outside the package only
    def names(node):
        return {getattr(node, field, None) for field in ("id", "attr", "name")}

    naming = {name for name, tree in _library_trees().items()
              if any("ConstructionConfig" in names(node) for node in ast.walk(tree))}
    assert naming == {"memvec.construction"}


def test_the_construction_kinds_are_spelled_once():
    def is_pair(node):
        elts = node.keys if isinstance(node, ast.Dict) else getattr(node, "elts", [])
        return {getattr(e, "value", None) for e in elts} == {"sum", "pinv"} and len(elts) == 2

    spelled = set()
    for name, tree in _library_trees().items():
        # io._TAGS numbers the kinds for the MVIX format: a format table, not a check
        exempt = {id(node.value) for node in tree.body if name == "memvec.harness.io"
                  and isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_TAGS"}
        if any(is_pair(node) and id(node) not in exempt for node in ast.walk(tree)):
            spelled.add(name)
    assert spelled == {"memvec.core"}


def test_every_count_is_checked_at_its_floor():
    # a floor of -inf once deferred the range to a second, hand-written test
    def floor_is_a_count(call):  # the floor passed third, as a literal int >= 0
        floor = call.args[2] if len(call.args) > 2 else None
        return isinstance(floor, ast.Constant) and type(floor.value) is int and floor.value >= 0

    calls = [(name, call) for name, tree in _library_trees().items()
             for call in ast.walk(tree) if isinstance(call, ast.Call)
             and ast.unparse(call.func) == "_check_count"]
    assert len(calls) > 10
    loose = [f"{name}: {ast.unparse(call)}" for name, call in calls
             if not floor_is_a_count(call)]
    assert not loose, loose

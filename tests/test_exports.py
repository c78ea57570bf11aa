"""Every name a module exports in ``__all__`` exists, so a stale export
fails here and not in a user's ``from ... import *``."""

import importlib

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

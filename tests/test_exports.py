"""Every exported name resolves: each module's `__all__` lists only names
the module defines, and `from copula_rank import *` succeeds."""

import importlib
import pkgutil

import pytest

import copula_rank

MODULES = ["copula_rank"] + [f"copula_rank.{info.name}"
                             for info in pkgutil.iter_modules(copula_rank.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_star_import():
    namespace = {}
    exec("from copula_rank import *", namespace)
    assert set(copula_rank.__all__) <= set(namespace)

"""Shared test fixtures."""

import multiprocessing
import sys

import numpy as np
import pytest
import scipy.linalg.lapack

from copula_rank import mc


def package_modules():
    """The imported `copula_rank` modules, by name."""
    return {name: module for name, module in list(sys.modules.items())
            if module is not None and (name == "copula_rank" or name.startswith("copula_rank."))}


@pytest.fixture(autouse=True)
def clear_process_caches():
    """Empty every process-level cache before each test, so that call counts
    and monkeypatched builders see no state left by earlier tests.  The
    caches are found, not listed: every function with `cache_clear`
    (functools.lru_cache) that a package module defines.  Returns them."""
    caches = [value for name, module in package_modules().items()
              for value in vars(module).values()
              if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name]
    for cache in caches:
        cache.cache_clear()
    return caches


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running, such as the workers
    of a process pool that was not shut down."""
    yield
    children = multiprocessing.active_children()
    assert not children, f"child processes left running: {children}"


@pytest.fixture
def serial_pool(monkeypatch):
    """Replaces `mc`'s process pool by one that maps in this process, so no
    process starts.  Returns the list of pool sizes asked for."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(mc, "ProcessPoolExecutor", SerialPool)
    return sizes


def lapack_calls(monkeypatch, name):
    """Wraps, for the test, each package module attribute bound to the LAPACK
    routine scipy.linalg.lapack.<name> (numcore's binding is the package's
    one entry point).  Returns the list of the shapes of the matrices passed
    to it so far."""
    calls = []
    source = getattr(scipy.linalg.lapack, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return source(a, *args, **kwargs)

    bound = 0
    for module in package_modules().values():
        for attr, value in list(vars(module).items()):
            if value is source:
                monkeypatch.setattr(module, attr, counted)
                bound += 1
    assert bound, f"no package module binds LAPACK {name}"
    return calls


@pytest.fixture
def factorizations(monkeypatch):
    """Counts every Cholesky factorization the package makes (LAPACK
    dpotrf): the shapes of the matrices factored so far."""
    return lapack_calls(monkeypatch, "dpotrf")


@pytest.fixture
def eigensolves(monkeypatch):
    """Counts every symmetric eigen-solve the package makes (LAPACK dsyevd,
    which `numcore.sym_eig` calls): the shapes of the matrices solved so
    far."""
    return lapack_calls(monkeypatch, "dsyevd")

"""Shared test fixtures."""

import sys

import pytest
import scipy.linalg


@pytest.fixture
def factorizations(monkeypatch):
    """Counts every Cholesky factorization the package makes: each package
    module attribute bound to scipy.linalg's cho_factor or cholesky is
    wrapped for the test.  Yields the list of calls made so far."""
    calls = []
    for source in (scipy.linalg.cho_factor, scipy.linalg.cholesky):
        def counted(*args, _source=source, **kwargs):
            calls.append(_source.__name__)
            return _source(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if module is None or not (name == "copula_rank" or name.startswith("copula_rank.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is source:
                    monkeypatch.setattr(module, attr, counted)
    return calls

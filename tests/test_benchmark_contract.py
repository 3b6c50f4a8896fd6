"""The benchmark's span tracer wraps package functions by name; every
traced name must still resolve, or a traced run breaks."""

import ast
import importlib
from pathlib import Path

from copula_rank import circular, rank_transform, sample_copula

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_constant(name):
    """The value of the top-level constant `name` of perfbench/tracing.py,
    read without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {TRACING}")


def traced_names():
    """The TRACED mapping of perfbench/tracing.py."""
    return tracing_constant("TRACED")


def test_every_traced_name_resolves_to_a_callable():
    traced = traced_names()
    assert traced
    missing = [f"{mod}.{fn}" for mod, fns in traced.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"copula_rank.{mod}"),
                                       fn, None))]
    assert not missing, missing


def test_estimate_results_carry_the_traced_fields():
    # The tracer counts `clamped` on the result of every ESTIMATE_RESULTS
    # estimator, and adds up `iterations` on ple_estimate's.
    names = tracing_constant("ESTIMATE_RESULTS")
    assert names
    model = circular()
    sample = rank_transform(sample_copula(model.r_of_theta([0.5]), 60, seed=1))
    for name in names:
        mod, fn = name.split(".")
        result = getattr(importlib.import_module(f"copula_rank.{mod}"), fn)(model, sample)
        assert isinstance(result.clamped, bool), name
        if name == "estimators.ple_estimate":
            assert isinstance(result.iterations, int), name

"""The benchmark's span tracer wraps package functions by name; every
traced name must still resolve, or a traced run breaks."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_names():
    """The TRACED mapping of perfbench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED mapping in {TRACING}")


def test_every_traced_name_resolves_to_a_callable():
    traced = traced_names()
    assert traced
    missing = [f"{mod}.{fn}" for mod, fns in traced.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"copula_rank.{mod}"),
                                       fn, None))]
    assert not missing, missing

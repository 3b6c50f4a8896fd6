"""Loading and applying the JSON schemas shipped with the package."""

from __future__ import annotations

import json
from importlib import resources

_NAMES = ("bound", "check", "estimate", "are", "mc_report",
          "model_descriptor", "mc_config")


def load_schema(name):
    if name not in _NAMES:
        raise KeyError(f"unknown schema {name!r}; available: {_NAMES}")
    path = resources.files("copula_rank") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def validate_output(name, obj):
    """Raise jsonschema.ValidationError if obj does not match the named schema.

    jsonschema, from the `test` extra and not a runtime dependency, is
    imported here, on first use, so that importing the package (and every
    CLI call, none of which validates) does not need it.
    """
    import jsonschema

    jsonschema.validate(obj, load_schema(name))

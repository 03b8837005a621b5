"""Minimal declarative JSON validation for the fleet's HTTP front.

The container pins its dependency set (numpy and the standard library),
so the API layer cannot lean on ``jsonschema``. This module implements
the small, boring subset the fleet's endpoints actually need — types,
required keys, bounds, enums, nested objects and arrays — with
path-qualified error messages (``jobs[2].n_jobs: expected integer``)
so a rejected submission tells the caller exactly which field to fix.

Schemas are plain dicts in the JSON-Schema dialect everyone already
reads::

    {"type": "object",
     "required": ["tenant"],
     "additionalProperties": False,
     "properties": {
         "tenant": {"type": "string", "minLength": 1},
         "n_jobs": {"type": "integer", "minimum": 1, "maximum": 10_000},
     }}

Unknown schema keywords are a programming error and raise immediately —
a validator that silently ignores a constraint it does not implement
would "pass" payloads it never checked.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = ["SchemaError", "validate"]

#: Keywords implemented per type; anything else in a schema raises.
_KNOWN_KEYWORDS = {
    "type", "properties", "required", "additionalProperties",
    "items", "minimum", "maximum", "minLength", "maxLength",
    "enum", "minItems", "maxItems",
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # bool is an int subclass; JSON distinguishes them, so must we.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


class SchemaError(ValueError):
    """One payload field failed validation; ``path`` locates it."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path or "$"
        self.message = message
        super().__init__(f"{self.path}: {message}")


def _check_type(value: Any, expected: str, path: str) -> None:
    check = _TYPE_CHECKS.get(expected)
    if check is None:
        raise ValueError(f"schema bug: unknown type {expected!r}")
    if not check(value):
        raise SchemaError(path, f"expected {expected}, got {type(value).__name__}")


def validate(value: Any, schema: dict, path: str = "") -> None:
    """Raise :class:`SchemaError` on the first constraint ``value`` breaks."""
    unknown = set(schema) - _KNOWN_KEYWORDS
    if unknown:
        raise ValueError(f"schema bug: unsupported keyword(s) {sorted(unknown)}")

    if "type" in schema:
        _check_type(value, schema["type"], path)

    if "enum" in schema and value not in schema["enum"]:
        raise SchemaError(path, f"must be one of {schema['enum']!r}")

    if isinstance(value, str):
        if "minLength" in schema and len(value) < schema["minLength"]:
            raise SchemaError(path, f"shorter than {schema['minLength']} characters")
        if "maxLength" in schema and len(value) > schema["maxLength"]:
            raise SchemaError(path, f"longer than {schema['maxLength']} characters")

    if isinstance(value, (int, float)) and not isinstance(value, bool):
        # json.loads accepts NaN and Infinity; JSON has neither.
        if isinstance(value, float) and not math.isfinite(value):
            raise SchemaError(path, f"expected a finite number, got {value!r}")
        if "minimum" in schema and value < schema["minimum"]:
            raise SchemaError(path, f"below minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            raise SchemaError(path, f"above maximum {schema['maximum']}")

    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise SchemaError(path, f"missing required key {key!r}")
        properties = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            extra = sorted(set(value) - set(properties))
            if extra:
                raise SchemaError(path, f"unexpected key(s) {extra}")
        for key, sub in properties.items():
            if key in value:
                child = f"{path}.{key}" if path else key
                validate(value[key], sub, child)

    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            raise SchemaError(path, f"fewer than {schema['minItems']} items")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            raise SchemaError(path, f"more than {schema['maxItems']} items")
        if "items" in schema:
            for i, item in enumerate(value):
                validate(item, schema["items"], f"{path}[{i}]")

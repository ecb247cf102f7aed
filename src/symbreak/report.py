"""Report serialization and schema validation for the CLI.

JSON payloads are emitted by a small custom writer so that every float
carries 17 significant digits (value-preserving round trip) while exact
integers (characters, ring coefficients, multiplicities) stay integers.
Text output prints the identical numbers; only the layout differs.
"""

from __future__ import annotations

import json
import math
from importlib import resources

from .errors import ConsistencyError, DomainError


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ConsistencyError("non-finite value in report payload")
    return format(x, ".17g")


def dumps(obj) -> str:
    """JSON indented by two spaces, with 17-significant-digit floats and
    dict keys left in insertion order (reports are built deterministically)."""

    def emit(node, depth: int) -> str:
        pad = "  " * depth
        pad_in = "  " * (depth + 1)
        if node is None:
            return "null"
        if isinstance(node, bool):
            return "true" if node else "false"
        if isinstance(node, int):
            return str(node)
        if isinstance(node, float):
            return format_float(node)
        if isinstance(node, str):
            return json.dumps(node)
        if isinstance(node, (list, tuple)):
            if not node:
                return "[]"
            inner = ",\n".join(pad_in + emit(v, depth + 1) for v in node)
            return "[\n" + inner + "\n" + pad + "]"
        if isinstance(node, dict):
            if not node:
                return "{}"
            inner = ",\n".join(
                f"{pad_in}{json.dumps(str(k))}: {emit(v, depth + 1)}" for k, v in node.items()
            )
            return "{\n" + inner + "\n" + pad + "}"
        raise ConsistencyError(f"unserializable value of type {type(node).__name__}")

    return emit(obj, 0) + "\n"


def load_schema() -> dict:
    with resources.files("symbreak").joinpath("data/report_schema.json").open("r") as fh:
        return json.load(fh)


def validate_report(obj) -> list[str]:
    """Check a report against the packaged schema with a minimal JSON-schema
    subset validator (type/required/properties/items/enum); returns a list of
    violations, empty when valid."""
    errors: list[str] = []

    def type_ok(value, expected: str) -> bool:
        return {
            "object": lambda v: isinstance(v, dict),
            "array": lambda v: isinstance(v, (list, tuple)),
            "string": lambda v: isinstance(v, str),
            "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
            "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
            "boolean": lambda v: isinstance(v, bool),
            "null": lambda v: v is None,
        }[expected](value)

    def walk(value, sch: dict, where: str):
        stype = sch.get("type")
        if stype is not None:
            types = stype if isinstance(stype, list) else [stype]
            if not any(type_ok(value, t) for t in types):
                errors.append(f"{where}: expected {stype}, got {type(value).__name__}")
                return
        if "enum" in sch and value not in sch["enum"]:
            errors.append(f"{where}: {value!r} not in {sch['enum']}")
        if isinstance(value, dict):
            for req in sch.get("required", []):
                if req not in value:
                    errors.append(f"{where}: missing required key {req!r}")
            for key, sub in sch.get("properties", {}).items():
                if key in value:
                    walk(value[key], sub, f"{where}.{key}")
        if isinstance(value, (list, tuple)) and "items" in sch:
            for i, item in enumerate(value):
                walk(item, sch["items"], f"{where}[{i}]")

    walk(obj, load_schema(), "$")
    return errors


DEFAULT_TOLERANCES = {
    "spectrum_match": 1e-10,
    "critical_residual": 1e-12,
    "gradient_fd_rel": 1e-6,
    "alpha1_gradient_agreement": 1e-10,
    "alpha1_hessian_fd": 1e-5,
    "critical_point_gradient": 1e-12,
    "mc_sigma": 3.0,
    "mc_pass_fraction": 0.99,
}


def resolve_tolerances(overrides: dict[str, float] | None) -> dict[str, float]:
    tol = dict(DEFAULT_TOLERANCES)
    for name, value in (overrides or {}).items():
        if name not in tol:
            raise DomainError(f"unknown tolerance {name!r}; known: {sorted(tol)}")
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"tolerance {name} must be positive and finite, got {value}")
        if name == "mc_pass_fraction" and value > 1:
            raise DomainError(f"tolerance mc_pass_fraction must be at most 1, got {value}")
        tol[name] = value
    return tol

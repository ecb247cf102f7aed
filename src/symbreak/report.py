"""Report serialization, check records and tolerances for the CLI.

JSON payloads are emitted by a small custom writer so that every float
carries 17 significant digits (value-preserving round trip) while exact
integers (characters, ring coefficients, multiplicities) stay integers.
Text output prints the identical numbers; only the layout differs.
"""

from __future__ import annotations

import json
import math

from .errors import ConsistencyError


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


def check(name: str, passed, hard: bool = True, detail=None) -> dict:
    """One check record of a report.  passed is coerced to bool, so a numpy
    bool never reaches the writer."""
    return {"name": name, "passed": bool(passed), "hard": hard, "detail": detail}


# the gates of the hard checks; fixed, so that no run can loosen a check
TOLERANCES = {
    "spectrum_match": 1e-10,
    "critical_residual": 1e-12,
    "gradient_fd_rel": 1e-6,
    "alpha1_gradient_agreement": 1e-10,
    "alpha1_hessian_fd": 1e-5,
    "critical_point_gradient": 1e-12,
    "isotypic_residual": 1e-10,
    "mc_sigma": 3.0,
    "mc_pass_fraction": 0.99,
}

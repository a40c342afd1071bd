"""Tiny expression catalog for scalar fields of the space variable.

Potentials, speeds and boundary data may be given as expression strings
such as ``"0.5 - 0.5*cos(2*pi*(x-0.5))"``.
Expressions are evaluated with numpy under a restricted namespace: the
coordinates ``x`` (and ``y`` in 2-D), the constant ``pi`` and a short list of
functions. Anything else is rejected up front.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

_ALLOWED_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "hypot": np.hypot,
}

_ALLOWED_NAMES = set(_ALLOWED_FUNCS) | {"x", "y", "pi"}


def _check_names(expr: str) -> None:
    import ast

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"bad expression {expr!r}: {exc}") from None
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES:
            raise ConfigError(f"expression {expr!r} uses unknown name {node.id!r}")
        if isinstance(node, ast.Attribute):
            raise ConfigError(f"expression {expr!r}: attribute access is not allowed")
        if isinstance(node, ast.Call) and not isinstance(node.func, ast.Name):
            raise ConfigError(f"expression {expr!r}: only plain function calls allowed")


def scalar_field(expr: str, dim: int):
    """Compile ``expr`` into a callable mapping points (..., dim) -> (...)."""
    _check_names(expr)
    code = compile(expr, "<field>", "eval")

    def fn(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        names = {"pi": math.pi, **_ALLOWED_FUNCS, "x": pts[..., 0]}
        if dim >= 2:
            names["y"] = pts[..., 1]
        out = eval(code, {"__builtins__": {}}, names)
        return np.broadcast_to(np.asarray(out, dtype=float), pts.shape[:-1]).copy()

    fn.expr = expr
    return fn

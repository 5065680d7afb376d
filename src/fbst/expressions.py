"""Minimal arithmetic expression grammar used by JSON model/hypothesis specs.

Expressions are strings over coordinate names with +, -, *, /, ^ (power),
exp, log, sqrt, abs, and numeric constants.  They compile to vectorized
callables mapping a parameter array of shape (..., d) to shape (...,).
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

import numpy as np


class ExpressionError(ValueError):
    """Raised for expressions outside the supported grammar."""


_FUNCS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_CONSTS = {"pi": math.pi, "e": math.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}


def compile_expression(text: str, names: Sequence[str]) -> Callable:
    """Compile `text` over coordinates `names` into f(theta) -> ndarray.

    `theta` may be a vector of shape (d,) or a batch of shape (..., d).
    """
    index = {name: i for i, name in enumerate(names)}
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from exc

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ExpressionError(f"non-numeric constant in {text!r}")
            value = float(node.value)
            return lambda theta: value
        if isinstance(node, ast.Name):
            if node.id in index:
                i = index[node.id]
                return lambda theta: np.asarray(theta)[..., i]
            if node.id in _CONSTS:
                value = _CONSTS[node.id]
                return lambda theta: value
            raise ExpressionError(f"unknown name {node.id!r} in {text!r}")
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise ExpressionError(f"operator not allowed in {text!r}")
            left, right = build(node.left), build(node.right)
            return lambda theta: op(left(theta), right(theta))
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                operand = build(node.operand)
                return lambda theta: np.negative(operand(theta))
            if isinstance(node.op, ast.UAdd):
                return build(node.operand)
            raise ExpressionError(f"unary operator not allowed in {text!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ExpressionError(f"unknown function in {text!r}")
            if len(node.args) != 1 or node.keywords:
                raise ExpressionError(f"functions take one argument in {text!r}")
            fn = _FUNCS[node.func.id]
            arg = build(node.args[0])
            return lambda theta: fn(arg(theta))
        raise ExpressionError(f"unsupported syntax in {text!r}")

    return build(tree)


def linear_coefficients(fn: Callable, dim: int, rng_seed: int = 0):
    """Detect whether a compiled expression is affine in theta.

    Returns (coeffs, offset) if f(theta) = coeffs . theta + offset to
    within 1e-9 on random probes, else None.  A probe that is not finite
    (log(0) at the origin, say) marks the expression nonlinear.
    """
    probes = np.random.default_rng(rng_seed).normal(size=(4, dim)) * 3.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        base = float(fn(np.zeros(dim)))
        coeffs = np.array([float(fn(e)) for e in np.eye(dim)]) - base
        got = np.asarray(fn(probes), dtype=float)
    if not (np.isfinite(base) and np.all(np.isfinite(coeffs))):
        return None
    want = probes @ coeffs + base
    if not np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))):
        return None
    return coeffs, base

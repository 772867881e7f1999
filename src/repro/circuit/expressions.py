"""Arithmetic expression evaluation for ``.param`` netlists.

Netlist parameter values and ``{...}`` substitutions are arithmetic
expressions over previously defined parameters::

    .param rload=4.7k gain=2
    R1 in out {rload * gain}

Expressions support ``+ - * / // % **``, unary sign, parentheses, a
small set of math functions (``sqrt``, ``exp``, ``log``, ``log10``,
``sin``, ``cos``, ``tan``, ``abs``, ``min``, ``max``, ``floor``,
``ceil``), the constant ``pi``, and SPICE engineering suffixes on
numeric literals (``4.7k`` is ``4700.0``).  Evaluation is AST-based —
no :func:`eval`, no attribute access, no subscripts — so untrusted
netlists cannot execute code.
"""

from __future__ import annotations

import ast
import math
import re
from functools import lru_cache

__all__ = ["ExpressionError", "evaluate"]


class ExpressionError(ValueError):
    """An expression failed to parse or evaluate.

    The netlist parser wraps this into a
    :class:`~repro.errors.NetlistParseError` carrying the line number.
    """


#: Functions callable from expressions, by name.
FUNCTIONS: dict[str, object] = {
    "abs": abs,
    "min": min,
    "max": max,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "log10": math.log10,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "floor": math.floor,
    "ceil": math.ceil,
}

#: Constants available without definition.
CONSTANTS: dict[str, float] = {"pi": math.pi}

#: Distinct expression texts whose parsed trees stay cached, least
#: recently used out.  A netlist holds a few dozen expressions, and a
#: sweep evaluates the same ones at every design point.
EXPRESSION_CACHE_SIZE = 1024

_BINARY = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.FloorDiv: lambda a, b: a // b,
    ast.Mod: lambda a, b: a % b,
    ast.Pow: lambda a, b: a**b,
}

_UNARY = {
    ast.UAdd: lambda a: a,
    ast.USub: lambda a: -a,
}

# A numeric literal with a trailing engineering suffix ("4.7k",
# "10pF").  The lookbehind keeps identifiers like "r2k" intact: the
# digits must not continue a word.
_SUFFIXED_NUMBER = re.compile(
    r"(?<![\w.])((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)([a-zA-Z]\w*)")


def _desuffix(expression: str) -> str:
    """Rewrite engineering-suffixed literals as plain floats."""
    from repro.units import parse_value

    def replace(match: re.Match) -> str:
        return repr(parse_value(match.group(0)))

    return _SUFFIXED_NUMBER.sub(replace, expression)


@lru_cache(maxsize=EXPRESSION_CACHE_SIZE)
def _parse(text: str) -> ast.Expression:
    """The syntax tree of a stripped expression text, parsed once.

    A text that fails to parse raises on every call and is never
    cached; evaluation only reads the tree.
    """
    return ast.parse(_desuffix(text), mode="eval")


def _eval_node(node: ast.AST, env: dict, expression: str) -> float:
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, env, expression)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            return float(node.value)
        raise ExpressionError(
            f"non-numeric literal {node.value!r} in {expression!r}")
    if isinstance(node, ast.Name):
        if node.id in env:
            return float(env[node.id])
        if node.id in CONSTANTS:
            return CONSTANTS[node.id]
        raise ExpressionError(
            f"undefined parameter {node.id!r} in {expression!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        left = _eval_node(node.left, env, expression)
        right = _eval_node(node.right, env, expression)
        try:
            return float(_BINARY[type(node.op)](left, right))
        except ZeroDivisionError:
            raise ExpressionError(
                f"division by zero in {expression!r}") from None
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_eval_node(node.operand, env,
                                                expression))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise ExpressionError(
                f"unsupported call syntax in {expression!r}")
        function = FUNCTIONS.get(node.func.id)
        if function is None:
            raise ExpressionError(
                f"unknown function {node.func.id!r} in {expression!r}")
        arguments = [_eval_node(arg, env, expression) for arg in node.args]
        try:
            return float(function(*arguments))
        except (TypeError, ValueError) as exc:
            raise ExpressionError(
                f"bad call to {node.func.id}(): {exc}") from exc
    raise ExpressionError(
        f"unsupported syntax {type(node).__name__!r} in {expression!r}")


def evaluate(expression: str, env: dict | None = None) -> float:
    """Evaluate *expression* against the parameter mapping *env*.

    >>> evaluate("2 * rload", {"rload": 4700.0})
    9400.0
    >>> evaluate("sqrt(4) + 1k")
    1002.0

    Raises :class:`ExpressionError` on syntax errors, undefined
    parameters, or unsupported constructs.
    """
    text = expression.strip()
    if not text:
        raise ExpressionError("empty expression")
    try:
        tree = _parse(text)
    except SyntaxError as exc:
        raise ExpressionError(
            f"cannot parse expression {expression!r}: {exc.msg}") from exc
    return _eval_node(tree, dict(env or {}), expression)

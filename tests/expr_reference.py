"""Reference scalar evaluator: the recursive AST walk on the math module.

``tsfloquet.expr.evaluate_array`` walks the AST once over a whole node
array with numpy. This is the scalar walk that defined the language
before it: one recursive call per node with an ``isinstance`` chain, the
math module's sin, cos, exp and sqrt and Python's float operators. Where
the math module raises OverflowError or ValueError, it raises the
package's ``DomainError`` subclass of that class with the same message,
looked up when raised, so that ``report_digest.py`` can import this
module on an older tree that lacks those classes. Its five ``if``
comparisons are written out here, not read from the package's comparison
table, so a wrong rule in that table shows as a difference. Tests check
that the array walk, and ``evaluate``, which is one node of it, raise
this walk's exceptions with its messages at the same t, and give its
values bit for bit, except where numpy's exp and power differ from the
math module's in the last ulp. It imports nothing from the package but
the node classes and error types, so it stays independent of the code
under test.
"""
from __future__ import annotations

import math

from tsfloquet import errors
from tsfloquet.errors import DomainError, NonDifferentiableNode, NonIntegerNeg1Pow
from tsfloquet.expr import (
    Abs,
    Add,
    Cmp,
    Const,
    Cos,
    Div,
    Exp,
    Expression,
    If,
    Mod,
    Mul,
    Neg,
    Neg1Pow,
    Pow,
    Sin,
    Sqrt,
    Sub,
    Var,
    _NonDiff,
)


def evaluate(e: Expression, t: float) -> float:
    """IEEE double evaluation at the point t."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return t
    if isinstance(e, Add):
        return evaluate(e.left, t) + evaluate(e.right, t)
    if isinstance(e, Sub):
        return evaluate(e.left, t) - evaluate(e.right, t)
    if isinstance(e, Mul):
        return evaluate(e.left, t) * evaluate(e.right, t)
    if isinstance(e, Div):
        den = evaluate(e.right, t)
        if den == 0.0:
            raise DomainError(f"division by zero at t={t}")
        return evaluate(e.left, t) / den
    if isinstance(e, Neg):
        return -evaluate(e.arg, t)
    if isinstance(e, Pow):
        base = evaluate(e.base, t)
        try:
            v = base ** e.exponent
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"{base} ** {e.exponent} at t={t}") from exc
        if isinstance(v, complex):
            raise DomainError(f"{base} ** {e.exponent} is complex at t={t}")
        return v
    if isinstance(e, Sin):
        v = evaluate(e.arg, t)
        try:
            return math.sin(v)
        except ValueError as exc:  # inf
            raise errors.UndefinedValue(f"sin of {v} at t={t}") from exc
    if isinstance(e, Cos):
        v = evaluate(e.arg, t)
        try:
            return math.cos(v)
        except ValueError as exc:  # inf
            raise errors.UndefinedValue(f"cos of {v} at t={t}") from exc
    if isinstance(e, Exp):
        v = evaluate(e.arg, t)
        try:
            return math.exp(v)
        except OverflowError as exc:
            raise errors.ValuePastRange(f"exp({v}) at t={t}") from exc
    if isinstance(e, Sqrt):
        v = evaluate(e.arg, t)
        if v < 0:
            raise DomainError(f"sqrt of negative value {v} at t={t}")
        return math.sqrt(v)
    if isinstance(e, Abs):
        return abs(evaluate(e.arg, t))
    if isinstance(e, Mod):
        if e.modulus == 0.0:
            raise DomainError(f"mod with zero divisor at t={t}")
        return evaluate(e.arg, t) % e.modulus
    if isinstance(e, Neg1Pow):
        v = evaluate(e.arg, t)
        try:
            k = round(v)
        except (ValueError, OverflowError) as exc:  # NaN, inf
            named = (errors.UndefinedValue if isinstance(exc, ValueError)
                     else errors.ValuePastRange)
            raise named(f"neg1pow argument {v} at t={t}") from exc
        if abs(v - k) > 1e-9:
            raise NonIntegerNeg1Pow(f"neg1pow argument {v} at t={t}")
        return -1.0 if k % 2 else 1.0
    if isinstance(e, If):
        return evaluate(e.then if _cmp(e.cond, t) else e.other, t)
    if isinstance(e, _NonDiff):
        raise NonDifferentiableNode(f"{e.reason} at t={t}")
    raise TypeError(f"unknown node {e!r}")


def _cmp(c: Cmp, t: float) -> bool:
    tol = 1e-12 * max(1.0, abs(t))
    v = evaluate(c.arg, t)
    # the five rules written out, independent of the package's table
    if c.op == "eq":
        return abs(v - c.ref) <= tol
    if c.op == "lt":
        return v < c.ref - tol
    if c.op == "le":
        return v <= c.ref + tol
    if c.op == "gt":
        return v > c.ref + tol
    if c.op == "ge":
        return v >= c.ref - tol
    raise TypeError(f"unknown comparison {c.op!r}")

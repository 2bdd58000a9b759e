"""Expression language for the periodic coefficients p(t), q(t).

Small recursive-descent parser, scalar and array evaluators and symbolic
derivative for the grammar:

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' atom)?
    atom  := number | 't' | 'pi' | func '(' args ')' | '(' expr ')'

with func in {sin, cos, exp, sqrt, abs, mod, neg1pow, if, eq, lt, le, gt,
ge}. Exponents and the second arguments of mod/comparisons must be
constant. ``neg1pow(e)`` is (-1)**e for integer-valued e; comparison
functions are only legal as the first argument of ``if``.

``evaluate(e, t)`` evaluates at one point. ``evaluate_array(e, x)`` walks
the AST once and applies numpy ufuncs to a whole array of nodes; an ``if``
evaluates each branch only on the nodes that take it (masking, not
``np.where``), so an error in an untaken branch is not raised, and wherever
``evaluate`` would raise at some node it raises the same exception class,
naming the first offending t. No numpy warning escapes it.

Expressions are immutable after parsing and may be evaluated concurrently.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityError,
    DomainError,
    ExpressionSyntaxError,
    NonConstantExponent,
    NonDifferentiableNode,
    NonIntegerNeg1Pow,
)

__all__ = [
    "Expression", "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Neg",
    "Sin", "Cos", "Exp", "Sqrt", "Abs", "Mod", "Neg1Pow", "Cmp", "If",
    "parse", "evaluate", "evaluate_array", "differentiate", "serialize",
    "is_constant", "const_value",
]


class Expression:
    """Base class for AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expression):
    value: float


@dataclass(frozen=True)
class Var(Expression):
    pass


@dataclass(frozen=True)
class Add(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Sub(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Mul(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Div(Expression):
    left: Expression
    right: Expression


@dataclass(frozen=True)
class Pow(Expression):
    base: Expression
    exponent: float  # exponents are restricted to constants


@dataclass(frozen=True)
class Neg(Expression):
    arg: Expression


@dataclass(frozen=True)
class Sin(Expression):
    arg: Expression


@dataclass(frozen=True)
class Cos(Expression):
    arg: Expression


@dataclass(frozen=True)
class Exp(Expression):
    arg: Expression


@dataclass(frozen=True)
class Sqrt(Expression):
    arg: Expression


@dataclass(frozen=True)
class Abs(Expression):
    arg: Expression


@dataclass(frozen=True)
class Mod(Expression):
    arg: Expression
    modulus: float


@dataclass(frozen=True)
class Neg1Pow(Expression):
    """(-1)**arg; arg must evaluate to an integer within 1e-9."""

    arg: Expression


@dataclass(frozen=True)
class Cmp(Expression):
    op: str  # eq | lt | le | gt | ge
    arg: Expression
    ref: float


@dataclass(frozen=True)
class If(Expression):
    cond: Cmp
    then: Expression
    other: Expression


@dataclass(frozen=True)
class _NonDiff(Expression):
    """Placeholder produced by differentiate() for mod/neg1pow arguments.

    Raises only when actually evaluated, so derivatives remain usable on
    regions where the offending branch is never taken.
    """

    reason: str


# -- tokenizer -------------------------------------------------------------

_NUMBER = re.compile(r"\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_FUNCS = {"sin", "cos", "exp", "sqrt", "abs", "mod", "neg1pow", "if"}
_CMPS = {"eq", "lt", "le", "gt", "ge"}


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or c == ".":
            m = _NUMBER.match(text, i)
            if m is None:
                raise ExpressionSyntaxError("malformed number", i)
            tokens.append(("num", float(m.group()), i))
            i = m.end()
            continue
        if c.isalpha() or c == "_":
            m = _NAME.match(text, i)
            tokens.append(("name", m.group(), i))
            i = m.end()
            continue
        if c in "+-*/^(),":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ExpressionSyntaxError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self) -> Expression:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError("trailing input", tok[2])
        return e

    def expr(self) -> Expression:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expression:
        e = self.unary()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self) -> Expression:
        if self.peek()[0] == "-":
            self.next()
            arg = self.unary()
            if isinstance(arg, Const):
                return Const(-arg.value)
            return Neg(arg)
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.peek()[0] == "^":
            tok = self.next()
            exponent = self.atom()
            try:
                value = const_value(exponent)
            except ValueError:
                raise NonConstantExponent(
                    f"exponent must be constant (offset {tok[2]})"
                ) from None
            return Pow(base, value)
        return base

    def atom(self) -> Expression:
        tok = self.next()
        kind, value, off = tok
        if kind == "num":
            return Const(value)
        if kind == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            if value == "t":
                return Var()
            if value == "pi":
                return Const(math.pi)
            if value in _FUNCS:
                return self.call(value, off)
            if value in _CMPS:
                raise ExpressionSyntaxError(
                    f"comparison {value!r} only allowed as if-condition", off
                )
            raise ExpressionSyntaxError(f"unknown name {value!r}", off)
        raise ExpressionSyntaxError("expected an atom", off)

    def args(self):
        self.expect("(")
        out = [self.expr()]
        while self.peek()[0] == ",":
            self.next()
            out.append(self.expr())
        self.expect(")")
        return out

    def call(self, name: str, off: int) -> Expression:
        if name == "if":
            cond = self.if_condition()
            self.expect(",")
            then = self.expr()
            self.expect(",")
            other = self.expr()
            self.expect(")")
            return If(cond, then, other)
        args = self.args()
        if name == "mod":
            if len(args) != 2:
                raise ArityError("mod takes 2 arguments")
            try:
                modulus = const_value(args[1])
            except ValueError:
                raise NonConstantExponent(
                    f"mod divisor must be constant (offset {off})"
                ) from None
            return Mod(args[0], modulus)
        if len(args) != 1:
            raise ArityError(f"{name} takes 1 argument")
        node = {
            "sin": Sin, "cos": Cos, "exp": Exp, "sqrt": Sqrt, "abs": Abs,
            "neg1pow": Neg1Pow,
        }[name]
        return node(args[0])

    def if_condition(self) -> Cmp:
        self.expect("(")
        tok = self.next()
        if tok[0] != "name" or tok[1] not in _CMPS:
            raise ExpressionSyntaxError("if-condition must be a comparison", tok[2])
        op = tok[1]
        self.expect("(")
        arg = self.expr()
        self.expect(",")
        ref_expr = self.expr()
        self.expect(")")
        try:
            ref = const_value(ref_expr)
        except ValueError:
            raise NonConstantExponent(
                f"comparison reference must be constant (offset {tok[2]})"
            ) from None
        return Cmp(op, arg, ref)


def parse(text: str) -> Expression:
    """Parse ``text`` into an Expression AST."""
    return _Parser(text).parse()


# -- evaluation ------------------------------------------------------------

def is_constant(e: Expression) -> bool:
    """True if the expression contains no occurrence of t."""
    if isinstance(e, Var):
        return False
    if isinstance(e, Const):
        return True
    if isinstance(e, (Add, Sub, Mul, Div)):
        return is_constant(e.left) and is_constant(e.right)
    if isinstance(e, Pow):
        return is_constant(e.base)
    if isinstance(e, (Neg, Sin, Cos, Exp, Sqrt, Abs, Mod, Neg1Pow)):
        return is_constant(e.arg)
    if isinstance(e, If):
        return is_constant(e.cond.arg) and is_constant(e.then) and is_constant(e.other)
    return False


def const_value(e: Expression) -> float:
    """Value of a constant expression; raises ValueError if it contains t."""
    if not is_constant(e):
        raise ValueError("expression is not constant")
    return evaluate(e, 0.0)


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
        return math.sin(evaluate(e.arg, t))
    if isinstance(e, Cos):
        return math.cos(evaluate(e.arg, t))
    if isinstance(e, Exp):
        return math.exp(evaluate(e.arg, t))
    if isinstance(e, Sqrt):
        v = evaluate(e.arg, t)
        if v < 0:
            raise DomainError(f"sqrt of negative value {v} at t={t}")
        return math.sqrt(v)
    if isinstance(e, Abs):
        return abs(evaluate(e.arg, t))
    if isinstance(e, Mod):
        if e.modulus == 0.0:
            raise DomainError("mod with zero divisor")
        return evaluate(e.arg, t) % e.modulus
    if isinstance(e, Neg1Pow):
        v = evaluate(e.arg, t)
        k = round(v)
        if abs(v - k) > 1e-9:
            raise NonIntegerNeg1Pow(f"neg1pow argument {v} at t={t}")
        return -1.0 if k % 2 else 1.0
    if isinstance(e, If):
        return evaluate(e.then if _cmp(e.cond, t) else e.other, t)
    if isinstance(e, _NonDiff):
        raise NonDifferentiableNode(e.reason)
    raise TypeError(f"unknown node {e!r}")


def _cmp(c: Cmp, t: float) -> bool:
    tol = 1e-12 * max(1.0, abs(t))
    v = evaluate(c.arg, t)
    return _compare(c.op, v, c.ref, tol)


def _compare(op: str, v, ref: float, tol):
    """v op ref within tol; elementwise when v and tol are arrays."""
    if op == "eq":
        return abs(v - ref) <= tol
    if op == "lt":
        return v < ref - tol
    if op == "le":
        return v <= ref + tol
    if op == "gt":
        return v > ref + tol
    if op == "ge":
        return v >= ref - tol
    raise TypeError(f"unknown comparison {op!r}")


def evaluate_array(e: Expression, x) -> np.ndarray:
    """IEEE double evaluation at every node of the array x.

    One walk of the AST applies numpy ufuncs to whole node arrays; the
    values agree with ``evaluate`` node for node up to the last-ulp
    differences of numpy's sin, cos, exp and power. An ``if`` evaluates
    each branch only on the nodes that take it, so an error in a branch
    no node takes is not raised. Wherever ``evaluate`` would raise at some
    node, this raises the same exception class for the first such node,
    named by its t.
    """
    x = np.array(x, dtype=float)
    walk = _ArrayWalk()
    with np.errstate(all="ignore"):
        v = walk.eval(e, x, np.arange(len(x)))
    if walk.error is not None:
        raise walk.error
    return v


class _ArrayWalk:
    """One ``evaluate_array`` call.

    Every node array travels with ``idx``, the nodes' positions in the
    caller's array. An error is recorded, not raised, so that the walk can
    find the lowest position that fails anywhere; at one position the
    error met first in walk order wins, which is the one the scalar walk
    raises there. Values at a failed node are never read again.
    """

    def __init__(self):
        self.first = math.inf
        self.error = None

    def fail(self, bad, x, idx, make):
        """Record make(t, j) for the first node j in the mask ``bad``."""
        if bad.any():
            j = int(np.argmax(bad))
            if idx[j] < self.first:
                self.first = idx[j]
                self.error = make(x[j], j)

    def eval(self, e: Expression, x, idx):
        if isinstance(e, Const):
            return np.full(len(x), e.value)
        if isinstance(e, Var):
            return x
        if isinstance(e, Add):
            return self.eval(e.left, x, idx) + self.eval(e.right, x, idx)
        if isinstance(e, Sub):
            return self.eval(e.left, x, idx) - self.eval(e.right, x, idx)
        if isinstance(e, Mul):
            return self.eval(e.left, x, idx) * self.eval(e.right, x, idx)
        if isinstance(e, Div):
            den = self.eval(e.right, x, idx)
            self.fail(den == 0.0, x, idx,
                      lambda t, j: DomainError(f"division by zero at t={t}"))
            return self.eval(e.left, x, idx) / den
        if isinstance(e, Neg):
            return -self.eval(e.arg, x, idx)
        if isinstance(e, Pow):
            return self.pow(e, x, idx)
        if isinstance(e, (Sin, Cos)):
            v = self.eval(e.arg, x, idx)
            # math.sin and math.cos reject infinite arguments
            self.fail(np.isinf(v), x, idx, lambda t, j: ValueError(
                f"{type(e).__name__.lower()} of {v[j]} at t={t}"))
            return np.sin(v) if isinstance(e, Sin) else np.cos(v)
        if isinstance(e, Exp):
            v = self.eval(e.arg, x, idx)
            out = np.exp(v)
            self.fail(np.isinf(out) & np.isfinite(v), x, idx,
                      lambda t, j: OverflowError(f"exp({v[j]}) at t={t}"))
            return out
        if isinstance(e, Sqrt):
            v = self.eval(e.arg, x, idx)
            self.fail(v < 0, x, idx, lambda t, j: DomainError(
                f"sqrt of negative value {v[j]} at t={t}"))
            return np.sqrt(v)
        if isinstance(e, Abs):
            return np.abs(self.eval(e.arg, x, idx))
        if isinstance(e, Mod):
            if e.modulus == 0.0:
                # checked before the argument, as in the scalar walk
                self.fail(np.ones(len(x), dtype=bool), x, idx,
                          lambda t, j: DomainError(
                              f"mod with zero divisor at t={t}"))
                return np.full(len(x), math.nan)
            return np.mod(self.eval(e.arg, x, idx), e.modulus)
        if isinstance(e, Neg1Pow):
            v = self.eval(e.arg, x, idx)
            # round() raises on NaN (ValueError) and on inf (OverflowError)
            self.fail(np.isnan(v), x, idx, lambda t, j: ValueError(
                f"neg1pow argument {v[j]} at t={t}"))
            self.fail(np.isinf(v), x, idx, lambda t, j: OverflowError(
                f"neg1pow argument {v[j]} at t={t}"))
            k = np.round(v)
            self.fail(np.abs(v - k) > 1e-9, x, idx,
                      lambda t, j: NonIntegerNeg1Pow(
                          f"neg1pow argument {v[j]} at t={t}"))
            return np.where(np.mod(k, 2.0) == 1.0, -1.0, 1.0)
        if isinstance(e, If):
            c = e.cond
            tol = 1e-12 * np.maximum(1.0, np.abs(x))
            m = _compare(c.op, self.eval(c.arg, x, idx), c.ref, tol)
            out = np.empty(len(x))
            for branch, mask in ((e.then, m), (e.other, ~m)):
                if mask.any():
                    out[mask] = self.eval(branch, x[mask], idx[mask])
            return out
        if isinstance(e, _NonDiff):
            self.fail(np.ones(len(x), dtype=bool), x, idx,
                      lambda t, j: NonDifferentiableNode(
                          f"{e.reason} at t={t}"))
            return np.full(len(x), math.nan)
        raise TypeError(f"unknown node {e!r}")

    def pow(self, e: Pow, x, idx):
        base = self.eval(e.base, x, idx)
        p = float(e.exponent)
        out = np.power(base, p)
        # zero and infinite bases take Python's float semantics, which
        # numpy's sqrt fast path for p = 0.5 does not share on -0.0 and -inf
        special = (base == 0.0) | np.isinf(base)
        if special.any():
            for b in (0.0, -0.0, math.inf, -math.inf):
                at = special & (base == b) & (np.signbit(base) == (
                    math.copysign(1.0, b) < 0))
                try:
                    out[at] = b ** p
                except ZeroDivisionError:
                    self.fail(at, x, idx, lambda t, j: DomainError(
                        f"{base[j]} ** {p} at t={t}"))
        finite = np.isfinite(base) & ~special
        if math.isfinite(p):
            self.fail(finite & np.isinf(out), x, idx, lambda t, j:
                      DomainError(f"{base[j]} ** {p} at t={t}"))
            if not p.is_integer():
                self.fail(finite & (base < 0), x, idx, lambda t, j:
                          DomainError(f"{base[j]} ** {p} is complex at t={t}"))
        return out


# -- symbolic derivative ---------------------------------------------------

def differentiate(e: Expression) -> Expression:
    """Symbolic derivative with respect to t.

    mod/neg1pow subtrees yield a placeholder that raises
    NonDifferentiableNode when evaluated; if-nodes differentiate both
    branches and keep the condition.
    """
    if isinstance(e, (Const, Cmp)):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, Add):
        return Add(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Sub):
        return Sub(differentiate(e.left), differentiate(e.right))
    if isinstance(e, Mul):
        return Add(
            Mul(differentiate(e.left), e.right),
            Mul(e.left, differentiate(e.right)),
        )
    if isinstance(e, Div):
        num = Sub(
            Mul(differentiate(e.left), e.right),
            Mul(e.left, differentiate(e.right)),
        )
        return Div(num, Mul(e.right, e.right))
    if isinstance(e, Neg):
        return Neg(differentiate(e.arg))
    if isinstance(e, Pow):
        if e.exponent == 0.0:
            return Const(0.0)
        return Mul(
            Mul(Const(e.exponent), Pow(e.base, e.exponent - 1.0)),
            differentiate(e.base),
        )
    if isinstance(e, Sin):
        return Mul(Cos(e.arg), differentiate(e.arg))
    if isinstance(e, Cos):
        return Neg(Mul(Sin(e.arg), differentiate(e.arg)))
    if isinstance(e, Exp):
        return Mul(Exp(e.arg), differentiate(e.arg))
    if isinstance(e, Sqrt):
        return Div(differentiate(e.arg), Mul(Const(2.0), Sqrt(e.arg)))
    if isinstance(e, Abs):
        # d|u| = u u' / |u|; DomainError at u = 0
        return Div(Mul(e.arg, differentiate(e.arg)), Abs(e.arg))
    if isinstance(e, Mod):
        return _NonDiff("derivative of mod(...) used on a dense region")
    if isinstance(e, Neg1Pow):
        return _NonDiff("derivative of neg1pow(...) used on a dense region")
    if isinstance(e, If):
        return If(e.cond, differentiate(e.then), differentiate(e.other))
    if isinstance(e, _NonDiff):
        return e
    raise TypeError(f"unknown node {e!r}")


# -- serialization ---------------------------------------------------------

def serialize(e: Expression) -> str:
    """Render e in the input grammar; parse(serialize(e)) is structurally e."""
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{repr(-e.value)}"
        return repr(e.value)
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Add):
        return f"({serialize(e.left)} + {serialize(e.right)})"
    if isinstance(e, Sub):
        return f"({serialize(e.left)} - {serialize(e.right)})"
    if isinstance(e, Mul):
        return f"({serialize(e.left)} * {serialize(e.right)})"
    if isinstance(e, Div):
        return f"({serialize(e.left)} / {serialize(e.right)})"
    if isinstance(e, Neg):
        return f"(-{serialize(e.arg)})"
    if isinstance(e, Pow):
        # base is re-wrapped: a bare negative constant would otherwise bind
        # as -(b ^ c) on re-parse
        exp = repr(e.exponent) if e.exponent >= 0 else f"(0 - {repr(-e.exponent)})"
        return f"(({serialize(e.base)}) ^ {exp})"
    if isinstance(e, Sin):
        return f"sin({serialize(e.arg)})"
    if isinstance(e, Cos):
        return f"cos({serialize(e.arg)})"
    if isinstance(e, Exp):
        return f"exp({serialize(e.arg)})"
    if isinstance(e, Sqrt):
        return f"sqrt({serialize(e.arg)})"
    if isinstance(e, Abs):
        return f"abs({serialize(e.arg)})"
    if isinstance(e, Mod):
        m = repr(e.modulus) if e.modulus >= 0 else f"(0 - {repr(-e.modulus)})"
        return f"mod({serialize(e.arg)}, {m})"
    if isinstance(e, Neg1Pow):
        return f"neg1pow({serialize(e.arg)})"
    if isinstance(e, If):
        c = e.cond
        ref = repr(c.ref) if c.ref >= 0 else f"(0 - {repr(-c.ref)})"
        return (
            f"if({c.op}({serialize(c.arg)}, {ref}), "
            f"{serialize(e.then)}, {serialize(e.other)})"
        )
    raise TypeError(f"cannot serialize {e!r}")

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

``evaluate(e, t)`` evaluates at one point, and it alone defines the
language's errors: whether an expression fails at t, and what it raises,
always naming t. It calls a closure tree, built once per node from its
children's closures and cached on the nodes, which makes the float
operations of a recursive walk over the AST in the walk's order and raises
its exceptions and messages (``tests/expr_reference.py`` keeps the walk).
``evaluate_array(e, x)`` walks the AST once and applies numpy ufuncs to a
whole array of nodes; an ``if`` evaluates each branch only on the nodes
that take it (masking, not ``np.where``), so an error in an untaken branch
is not raised. The array walk computes values only: where some node may
fail, it replays ``evaluate`` over the nodes in order, so what it raises
is the scalar walk's exception at the first offending t. No numpy warning
escapes it.

Each rule is stated once, in a table that all its readers read:
``_LEVELS`` (and ``_BINARY``, by node) the binary operators' symbols,
nodes and float operations, for the parser, ``serialize``, the closures
and the array walk; ``_UNARY`` the one-argument nodes' scalar and array
operations, the errors the scalar one raises and the array walk's test
for them; ``_FUNCS`` the function names and ``_CMP`` the ``if``
comparisons. Nodes whose evaluators differ keep their own branches: a
``Div`` evaluates its denominator first and raises at zero; a ``Pow``
turns Python's errors and complex results into DomainError, where numpy
takes Python's results at zero and infinite bases; ``neg1pow`` rounds and
tests its argument; mod by zero and a derivative placeholder raise at
every node, and an ``if`` evaluates one branch per node.

Expressions are immutable after parsing and may be evaluated concurrently;
two threads that build the same node's closure at once each build one
that computes the same values, and either is kept.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

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

    @cached_property
    def _closure(self):
        """``evaluate``'s closure t -> value of this node, built on first
        use with those of the nodes below that have none yet, and kept in
        each node's ``__dict__``: it is no dataclass field, so equality
        and hash still compare the fields alone."""
        return _compile(self)

    def __getstate__(self):
        # a closure does not pickle; an unpickled node builds its own
        return {k: v for k, v in self.__dict__.items() if k != "_closure"}


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


# -- rule tables -----------------------------------------------------------

# the binary operators by precedence level, loosest first: symbol -> node
# and its float operation, which numpy applies elementwise to arrays
_LEVELS = ({"+": (Add, operator.add), "-": (Sub, operator.sub)},
           {"*": (Mul, operator.mul), "/": (Div, operator.truediv)})
_BINARY = {node: (symbol, op) for level in _LEVELS
           for symbol, (node, op) in level.items()}


class _Unary(NamedTuple):
    """A one-argument node's operation on floats and on arrays. Where
    ``scalar`` raises ``error[0]``, ``evaluate`` raises ``error[1]`` with
    the message ``error[2]``, formatted with the argument v, then " at
    t=..."; ``fails(v, out)`` marks where that may be, out = ``array(v)``."""

    scalar: Callable
    array: Callable
    error: tuple = None
    fails: Callable = None


# math.sin and math.cos reject infinite arguments
_UNARY = {
    Neg: _Unary(operator.neg, operator.neg),
    Abs: _Unary(abs, np.abs),
    Sin: _Unary(math.sin, np.sin, (ValueError, ValueError, "sin of {v}"),
                lambda v, out: np.isinf(v)),
    Cos: _Unary(math.cos, np.cos, (ValueError, ValueError, "cos of {v}"),
                lambda v, out: np.isinf(v)),
    Exp: _Unary(math.exp, np.exp, (OverflowError, OverflowError, "exp({v})"),
                lambda v, out: np.isinf(out) & np.isfinite(v)),
    Sqrt: _Unary(math.sqrt, np.sqrt,
                 (ValueError, DomainError, "sqrt of negative value {v}"),
                 lambda v, out: v < 0),
}
# the function names and their nodes, read by the parser and ``serialize``
_FUNCS = {"sin": Sin, "cos": Cos, "exp": Exp, "sqrt": Sqrt, "abs": Abs,
          "mod": Mod, "neg1pow": Neg1Pow, "if": If}
_NAMES = {node: name for name, node in _FUNCS.items()}
# the comparisons of an if-condition: v op ref within tol, elementwise when
# v and tol are arrays
_CMP = {
    "eq": lambda v, ref, tol: abs(v - ref) <= tol,
    "lt": lambda v, ref, tol: v < ref - tol,
    "le": lambda v, ref, tol: v <= ref + tol,
    "gt": lambda v, ref, tol: v > ref + tol,
    "ge": lambda v, ref, tol: v >= ref - tol,
}

_NUMBER = re.compile(r"\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


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

    def expr(self, level: int = 0) -> Expression:
        """A left-associative chain of the operators of ``_LEVELS[level]``
        (level 0 is the grammar's expr, 1 its term) over the next level's
        chains, or unaries past the last level."""
        tighter = level + 1 < len(_LEVELS)
        e = self.expr(level + 1) if tighter else self.unary()
        operators = _LEVELS[level]
        while self.peek()[0] in operators:
            node, _ = operators[self.next()[0]]
            e = node(e, self.expr(level + 1) if tighter else self.unary())
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
            off = self.next()[2]
            return Pow(base, self.constant(self.atom(), "exponent", off))
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
            if value in _CMP:
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
        node = _FUNCS[name]
        if node is If:
            cond = self.if_condition()
            self.expect(",")
            then = self.expr()
            self.expect(",")
            other = self.expr()
            self.expect(")")
            return If(cond, then, other)
        args = self.args()
        if node is Mod:
            if len(args) != 2:
                raise ArityError("mod takes 2 arguments")
            return Mod(args[0], self.constant(args[1], "mod divisor", off))
        if len(args) != 1:
            raise ArityError(f"{name} takes 1 argument")
        return node(args[0])

    def if_condition(self) -> Cmp:
        self.expect("(")
        tok = self.next()
        if tok[0] != "name" or tok[1] not in _CMP:
            raise ExpressionSyntaxError("if-condition must be a comparison", tok[2])
        op = tok[1]
        self.expect("(")
        arg = self.expr()
        self.expect(",")
        ref = self.expr()
        self.expect(")")
        return Cmp(op, arg, self.constant(ref, "comparison reference", tok[2]))

    def constant(self, e: Expression, what: str, off: int) -> float:
        """The value of e, which must be constant."""
        try:
            return const_value(e)
        except ValueError:
            raise NonConstantExponent(
                f"{what} must be constant (offset {off})") from None


def parse(text: str) -> Expression:
    """Parse ``text`` into an Expression AST."""
    return _Parser(text).parse()


# -- evaluation ------------------------------------------------------------

def is_constant(e: Expression) -> bool:
    """True if the expression contains no occurrence of t: a walk over
    each node's Expression-valued fields, in which a derivative
    placeholder stands for a function of t."""
    if isinstance(e, (Var, _NonDiff)):
        return False
    return all(is_constant(v) for v in vars(e).values()
               if isinstance(v, Expression))


def const_value(e: Expression) -> float:
    """Value of a constant expression; raises ValueError if it contains t."""
    if not is_constant(e):
        raise ValueError("expression is not constant")
    return evaluate(e, 0.0)


def evaluate(e: Expression, t: float) -> float:
    """IEEE double evaluation at the point t, by the closure tree of e."""
    try:
        closure = e._closure
    except AttributeError:  # not an Expression
        raise TypeError(f"unknown node {e!r}") from None
    return closure(t)


def _compile(e):
    """The closure t -> value of the node e, calling its children's: it
    makes the float operations of e's step of the recursive walk, in the
    walk's order, and raises what the walk raises there, with the same
    message. A node's closure is built once and kept where
    ``Expression._closure`` caches it; building recurses one call per tree
    level, as the walk did.
    """
    if not isinstance(e, Expression):
        return _raises(TypeError(f"unknown node {e!r}"))
    closure = e.__dict__.get("_closure")
    if closure is not None:
        return closure
    kind = type(e)
    if kind in _BINARY:
        left, right, op = _compile(e.left), _compile(e.right), _BINARY[kind][1]
        if kind is Div:
            def closure(t):
                den = right(t)
                if den == 0.0:
                    raise DomainError(f"division by zero at t={t}")
                return op(left(t), den)
        else:
            def closure(t):
                return op(left(t), right(t))
    elif kind in _UNARY:
        arg, rule = _compile(e.arg), _UNARY[kind]
        scalar, error = rule.scalar, rule.error
        if error is None:
            def closure(t):
                return scalar(arg(t))
        else:
            caught, raised, message = error

            def closure(t):
                v = arg(t)
                try:
                    return scalar(v)
                except caught as exc:
                    raise raised(f"{message.format(v=v)} at t={t}") from exc
    elif kind is Const:
        value = e.value

        def closure(t):
            return value
    elif kind is Var:
        closure = _identity
    elif kind is Pow:
        arg, exponent = _compile(e.base), e.exponent

        def closure(t):
            base = arg(t)
            try:
                v = base ** exponent
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise DomainError(f"{base} ** {exponent} at t={t}") from exc
            if isinstance(v, complex):
                raise DomainError(f"{base} ** {exponent} is complex at t={t}")
            return v
    elif kind is Mod:
        arg, modulus = _compile(e.arg), e.modulus
        if modulus == 0.0:
            def closure(t):
                raise DomainError(f"mod with zero divisor at t={t}")
        else:
            def closure(t):
                return arg(t) % modulus
    elif kind is Neg1Pow:
        arg = _compile(e.arg)

        def closure(t):
            v = arg(t)
            try:
                k = round(v)
            except (ValueError, OverflowError) as exc:  # NaN, inf
                raise type(exc)(f"neg1pow argument {v} at t={t}") from exc
            if abs(v - k) > 1e-9:
                raise NonIntegerNeg1Pow(f"neg1pow argument {v} at t={t}")
            return -1.0 if k % 2 else 1.0
    elif kind is If:
        c = e.cond
        closure = _if(c.op, _compile(c.arg), c.ref, _compile(e.then),
                      _compile(e.other))
    elif kind is _NonDiff:
        reason = e.reason

        def closure(t):
            raise NonDifferentiableNode(f"{reason} at t={t}")
    else:
        closure = _raises(TypeError(f"unknown node {e!r}"))
    e.__dict__["_closure"] = closure
    return closure


def _identity(t):
    return t


def _raises(exc: Exception):
    """A closure that raises exc, the same message at every t."""
    kind, message = type(exc), str(exc)

    def closure(t):
        raise kind(message)
    return closure


def _if(op: str, arg, ref: float, then, other):
    """``then(t) if op(arg(t), ref) else other(t)``, the comparison within
    1e-12 max(1, |t|) by the rule ``_CMP`` holds for op; an unknown op
    raises ``_compare``'s TypeError once arg(t) is evaluated."""
    rule = _CMP.get(op, lambda v, ref, tol: _compare(op, v, ref, tol))

    def closure(t):
        tol = 1e-12 * max(1.0, abs(t))
        return then(t) if rule(arg(t), ref, tol) else other(t)
    return closure


def _compare(op: str, v, ref: float, tol):
    """v op ref within tol by ``_CMP``; elementwise when v and tol are
    arrays."""
    if op not in _CMP:
        raise TypeError(f"unknown comparison {op!r}")
    return _CMP[op](v, ref, tol)


def evaluate_array(e: Expression, x) -> np.ndarray:
    """IEEE double evaluation at every node of the array x.

    One walk of the AST applies numpy ufuncs to whole node arrays; the
    values agree with ``evaluate`` node for node up to the last-ulp
    differences of numpy's sin, cos, exp and power. An ``if`` evaluates
    each branch only on the nodes that take it, so an error in a branch
    no node takes is not raised. The walk computes values only: where the
    scalar walk could raise at some node, it replays ``evaluate`` over the
    nodes in order, which raises its own exception at the first offending
    t, or else returns the replayed values.
    """
    x = np.array(x, dtype=float)
    walk = _ArrayWalk()
    with np.errstate(all="ignore"):
        v = walk.eval(e, x)
    if walk.failed:
        return np.array([evaluate(e, float(t)) for t in x], dtype=float)
    return v


class _ArrayWalk:
    """One ``evaluate_array`` walk.

    ``failed`` is set once any node meets a case where ``evaluate`` may
    raise; the values at such a node are never read.
    """

    failed = False

    def eval(self, e: Expression, x):
        kind = type(e)
        if kind in _BINARY:
            op = _BINARY[kind][1]
            if kind is Div:
                den = self.eval(e.right, x)
                self.failed |= (den == 0.0).any()
                return op(self.eval(e.left, x), den)
            return op(self.eval(e.left, x), self.eval(e.right, x))
        rule = _UNARY.get(kind)
        if rule is not None:
            v = self.eval(e.arg, x)
            out = rule.array(v)
            if rule.fails is not None:
                self.failed |= rule.fails(v, out).any()
            return out
        if kind is Const:
            return np.full(len(x), e.value)
        if kind is Var:
            return x
        if kind is Pow:
            return self.pow(e, x)
        if kind is Mod and e.modulus != 0.0:
            return np.mod(self.eval(e.arg, x), e.modulus)
        if kind is Neg1Pow:
            v = self.eval(e.arg, x)
            k = np.round(v)
            # NaN and inf fail the test too, as round() rejects them
            self.failed |= (~(np.abs(v - k) <= 1e-9)).any()
            return np.where(np.mod(k, 2.0) == 1.0, -1.0, 1.0)
        if kind is If:
            c = e.cond
            tol = 1e-12 * np.maximum(1.0, np.abs(x))
            m = _compare(c.op, self.eval(c.arg, x), c.ref, tol)
            out = np.empty(len(x))
            for branch, mask in ((e.then, m), (e.other, ~m)):
                if mask.any():
                    out[mask] = self.eval(branch, x[mask])
            return out
        if kind in (Mod, _NonDiff):
            # mod by zero or a derivative of mod or neg1pow: the scalar
            # walk raises at every node
            self.failed = True
            return np.full(len(x), math.nan)
        raise TypeError(f"unknown node {e!r}")

    def pow(self, e: Pow, x):
        base = self.eval(e.base, x)
        p = float(e.exponent)
        out = np.power(base, p)
        if math.isfinite(p):
            # overflow, zero to a negative power or a complex result
            self.failed |= (np.isfinite(base) & ~np.isfinite(out)).any()
        if not self.failed:
            # zero and infinite bases take Python's float results, which
            # numpy's sqrt fast path for p = 0.5 does not share on -0.0 and -inf
            for j in np.flatnonzero((base == 0.0) | np.isinf(base)):
                out[j] = float(base[j]) ** p
        return out


# -- symbolic derivative ---------------------------------------------------

def differentiate(e: Expression) -> Expression:
    """Symbolic derivative with respect to t.

    mod/neg1pow subtrees yield a placeholder that raises
    NonDifferentiableNode when evaluated, and that ``serialize`` cannot
    write; if-nodes differentiate both branches and keep the condition.
    Every other derivative tree round-trips through ``serialize``.
    """
    if isinstance(e, (Const, Cmp)):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0)
    if isinstance(e, (Add, Sub)):
        return type(e)(differentiate(e.left), differentiate(e.right))
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
        d = differentiate(e.arg)
        # folded as the parser folds it, so serialize round-trips the tree
        return Const(-d.value) if isinstance(d, Const) else Neg(d)
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
    """Render e in the input grammar, as an atom; parse(serialize(e)) is
    structurally e for every e that parse or differentiate returns (a NaN
    exponent, modulus or reference is written as the constant
    (1e999 - 1e999)). The placeholder that differentiate leaves for mod
    and neg1pow cannot be written: TypeError."""
    kind = type(e)
    if kind is Const:
        return _number(e.value)
    if kind is Var:
        return "t"
    if kind in _BINARY:
        return f"({serialize(e.left)} {_BINARY[kind][0]} {serialize(e.right)})"
    if kind is Neg:
        return f"(-{serialize(e.arg)})"
    if kind is Pow:
        return f"({serialize(e.base)} ^ {_number(e.exponent)})"
    name = _NAMES.get(kind)
    if kind is Mod:
        return f"{name}({serialize(e.arg)}, {_number(e.modulus)})"
    if kind is If:
        c = e.cond
        return (
            f"{name}({c.op}({serialize(c.arg)}, {_number(c.ref)}), "
            f"{serialize(e.then)}, {serialize(e.other)})"
        )
    if name is not None:
        return f"{name}({serialize(e.arg)})"
    raise TypeError(f"cannot serialize {e!r}")


def _number(v: float) -> str:
    """The float v as an atom that parses back to v: a negative value,
    -0.0 too, in parentheses, an infinite one as 1e999 and a NaN as
    (1e999 - 1e999)."""
    if math.isnan(v):
        return "(1e999 - 1e999)"
    text = "1e999" if math.isinf(v) else repr(abs(v))
    return f"(-{text})" if math.copysign(1.0, v) < 0 else text

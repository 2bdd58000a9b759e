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
always naming t. It calls a closure tree: on a node's first scalar
evaluation, each node below it that has none yet gets one closure, built
from its children's, which makes that node's float operations in the
order of a recursive walk over the AST and raises that walk's exception
and message (``tests/expr_reference.py`` keeps the walk). A ``Div``
evaluates its denominator first and an ``If`` its condition and then
only the branch it takes. The tree is cached on the nodes, so later
evaluations make no per-node type dispatch; the values equal the walk's
bit for bit. ``evaluate_array(e, x)`` walks the AST once and applies
numpy ufuncs to a whole array of nodes; an ``if`` evaluates each branch
only on the nodes that take it (masking, not ``np.where``), so an error in
an untaken branch is not raised. The array walk computes values only:
where some node may fail, it replays ``evaluate`` over the nodes in order,
so what it raises is the scalar walk's exception at the first offending t.
No numpy warning escapes it.

Expressions are immutable after parsing and may be evaluated concurrently;
two threads that build the same node's closure at once each build one
that computes the same values, and either is kept.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

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


# -- tokenizer -------------------------------------------------------------

_NUMBER = re.compile(r"\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

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
            try:
                modulus = const_value(args[1])
            except ValueError:
                raise NonConstantExponent(
                    f"mod divisor must be constant (offset {off})"
                ) from None
            return Mod(args[0], modulus)
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
    """IEEE double evaluation at the point t, by the closure tree of e."""
    try:
        closure = e._closure
    except AttributeError:  # not an Expression
        raise TypeError(f"unknown node {e!r}") from None
    return closure(t)


def _compile(e):
    """The closure t -> value of the node e, calling its children's.

    Each closure makes the float operations of one node of the recursive
    walk in the walk's order and raises what the walk raises there, with
    the same message: a ``Div`` evaluates its denominator first, an ``If``
    its condition and then only the branch it takes. A node's closure is
    built once and kept where ``Expression._closure`` caches it; building
    recurses one call per tree level, as the walk did.
    """
    if not isinstance(e, Expression):
        return _raises(TypeError(f"unknown node {e!r}"))
    closure = e.__dict__.get("_closure")
    if closure is not None:
        return closure
    if isinstance(e, Const):
        value = e.value

        def closure(t):
            return value
        e.__dict__["_closure"] = closure
        return closure
    if isinstance(e, Var):
        e.__dict__["_closure"] = _identity
        return _identity
    if isinstance(e, (Add, Sub, Mul, Div)):
        left, right = _compile(e.left), _compile(e.right)
    elif isinstance(e, Pow):
        arg, exponent = _compile(e.base), e.exponent
    elif isinstance(e, (Neg, Sin, Cos, Exp, Sqrt, Abs, Mod, Neg1Pow)):
        arg = _compile(e.arg)

    if isinstance(e, Add):
        def closure(t):
            return left(t) + right(t)
    elif isinstance(e, Sub):
        def closure(t):
            return left(t) - right(t)
    elif isinstance(e, Mul):
        def closure(t):
            return left(t) * right(t)
    elif isinstance(e, Div):
        def closure(t):
            den = right(t)
            if den == 0.0:
                raise DomainError(f"division by zero at t={t}")
            return left(t) / den
    elif isinstance(e, Neg):
        def closure(t):
            return -arg(t)
    elif isinstance(e, Pow):
        def closure(t):
            base = arg(t)
            try:
                v = base ** exponent
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise DomainError(f"{base} ** {exponent} at t={t}") from exc
            if isinstance(v, complex):
                raise DomainError(f"{base} ** {exponent} is complex at t={t}")
            return v
    elif isinstance(e, (Sin, Cos)):
        trig = math.sin if isinstance(e, Sin) else math.cos
        name = _NAMES[type(e)]

        def closure(t):
            v = arg(t)
            try:
                return trig(v)
            except ValueError as exc:  # inf
                raise ValueError(f"{name} of {v} at t={t}") from exc
    elif isinstance(e, Exp):
        def closure(t):
            v = arg(t)
            try:
                return math.exp(v)
            except OverflowError as exc:
                raise OverflowError(f"exp({v}) at t={t}") from exc
    elif isinstance(e, Sqrt):
        def closure(t):
            v = arg(t)
            if v < 0:
                raise DomainError(f"sqrt of negative value {v} at t={t}")
            return math.sqrt(v)
    elif isinstance(e, Abs):
        def closure(t):
            return abs(arg(t))
    elif isinstance(e, Mod):
        modulus = e.modulus
        if modulus == 0.0:
            def closure(t):
                raise DomainError(f"mod with zero divisor at t={t}")
        else:
            def closure(t):
                return arg(t) % modulus
    elif isinstance(e, Neg1Pow):
        def closure(t):
            v = arg(t)
            try:
                k = round(v)
            except (ValueError, OverflowError) as exc:  # NaN, inf
                raise type(exc)(f"neg1pow argument {v} at t={t}") from exc
            if abs(v - k) > 1e-9:
                raise NonIntegerNeg1Pow(f"neg1pow argument {v} at t={t}")
            return -1.0 if k % 2 else 1.0
    elif isinstance(e, If):
        c = e.cond
        closure = _if(c.op, _compile(c.arg), c.ref, _compile(e.then),
                      _compile(e.other))
    elif isinstance(e, _NonDiff):
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
        if isinstance(e, Const):
            return np.full(len(x), e.value)
        if isinstance(e, Var):
            return x
        if isinstance(e, Add):
            return self.eval(e.left, x) + self.eval(e.right, x)
        if isinstance(e, Sub):
            return self.eval(e.left, x) - self.eval(e.right, x)
        if isinstance(e, Mul):
            return self.eval(e.left, x) * self.eval(e.right, x)
        if isinstance(e, Div):
            den = self.eval(e.right, x)
            self.failed |= (den == 0.0).any()
            return self.eval(e.left, x) / den
        if isinstance(e, Neg):
            return -self.eval(e.arg, x)
        if isinstance(e, Pow):
            return self.pow(e, x)
        if isinstance(e, (Sin, Cos)):
            v = self.eval(e.arg, x)
            # math.sin and math.cos reject infinite arguments
            self.failed |= np.isinf(v).any()
            return np.sin(v) if isinstance(e, Sin) else np.cos(v)
        if isinstance(e, Exp):
            v = self.eval(e.arg, x)
            out = np.exp(v)
            self.failed |= (np.isinf(out) & np.isfinite(v)).any()
            return out
        if isinstance(e, Sqrt):
            v = self.eval(e.arg, x)
            self.failed |= (v < 0).any()
            return np.sqrt(v)
        if isinstance(e, Abs):
            return np.abs(self.eval(e.arg, x))
        if isinstance(e, Mod) and e.modulus != 0.0:
            return np.mod(self.eval(e.arg, x), e.modulus)
        if isinstance(e, Neg1Pow):
            v = self.eval(e.arg, x)
            k = np.round(v)
            # NaN and inf fail the test too, as round() rejects them
            self.failed |= (~(np.abs(v - k) <= 1e-9)).any()
            return np.where(np.mod(k, 2.0) == 1.0, -1.0, 1.0)
        if isinstance(e, If):
            c = e.cond
            tol = 1e-12 * np.maximum(1.0, np.abs(x))
            m = _compare(c.op, self.eval(c.arg, x), c.ref, tol)
            out = np.empty(len(x))
            for branch, mask in ((e.then, m), (e.other, ~m)):
                if mask.any():
                    out[mask] = self.eval(branch, x[mask])
            return out
        if isinstance(e, (Mod, _NonDiff)):
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
    name = _NAMES.get(type(e))
    if isinstance(e, Mod):
        m = repr(e.modulus) if e.modulus >= 0 else f"(0 - {repr(-e.modulus)})"
        return f"{name}({serialize(e.arg)}, {m})"
    if isinstance(e, If):
        c = e.cond
        ref = repr(c.ref) if c.ref >= 0 else f"(0 - {repr(-c.ref)})"
        return (
            f"{name}({c.op}({serialize(c.arg)}, {ref}), "
            f"{serialize(e.then)}, {serialize(e.other)})"
        )
    if name is not None:
        return f"{name}({serialize(e.arg)})"
    raise TypeError(f"cannot serialize {e!r}")

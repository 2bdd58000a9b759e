"""Expression language for the periodic coefficients p(t), q(t).

Small recursive-descent parser, array evaluator and symbolic derivative
for the grammar:

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' atom)?
    atom  := number | 't' | 'pi' | func '(' args ')' | '(' expr ')'

with func in {sin, cos, exp, sqrt, abs, mod, neg1pow, if, eq, lt, le, gt,
ge}. Exponents and the second arguments of mod/comparisons must be
constant. ``neg1pow(e)`` is (-1)**e for integer-valued e; comparison
functions are only legal as the first argument of ``if``.

``evaluate_array(e, x)`` evaluates e at every node of the array x, and it
alone defines the language's values and errors. One walk of the AST
applies numpy ufuncs to whole node arrays; a node that does not depend on
t is a 0-d value, which numpy broadcasts, and the result is made full
length at the end. An ``if`` evaluates each branch only on the nodes that
take it (masking, not ``np.where``), so an error in an untaken branch is
not raised. A node that can fail records, in walk order, the first node
where it fails and how to build its exception; the walk then raises the
first error recorded at the lowest failing node, always naming its t.
That is what a recursive walk over the nodes in order raises
(``tests/expr_reference.py`` keeps that walk), where the math module's
OverflowError and ValueError become the ``DomainError`` subclasses
``ValuePastRange`` and ``UndefinedValue``. No numpy warning escapes.
``evaluate(e, t)`` is ``evaluate_array(e, [t])[0]``, so its sin, cos, exp
and ``^`` round as numpy's do, which may differ from the math module's in
the last ulp.

``Forest(roots).evaluate(x)`` yields each root's ``evaluate_array`` on x
in turn, from one walk that evaluates a node shared by several places once
per grid: ``differentiate`` reuses its argument's subtrees, so q and q'
share q's ``if`` conditions and inner terms. A node is reused by identity,
only where no ``if`` mask encloses it: the walk keeps the value of each
node met at more than one place, and a shared ``if`` condition's mask,
until it ends. Which nodes those are, a ``Forest`` finds once for all its
grids. The ``if`` tolerance is computed once per walk. Each root raises
its own error when its values are asked for, so a caller checks one
root's values before the next root is walked.

The one shape of unbounded depth is the one the parser builds as long as
the text: the chain of binary nodes down the left operands of a flat sum,
difference, product or quotient. Every pass walks that chain in a loop,
down to the node below it and back up through the right operands, in the
order a recursive walk takes; every other node is walked by recursion,
which the parser's own nesting limit bounds. Which nodes a tree holds,
for ``is_constant`` and ``Forest``, is found by one walk with a stack,
and a node's ``==``, ``hash``, ``repr`` and pickling walk with one too.

Each rule is stated once, in one of six tables that all its readers
read: ``_LEVELS`` (and ``_BINARY``, by node) the binary operators'
symbols, nodes, float operations and precedence levels, for the parser,
``serialize`` and the walk;
``_UNARY`` the one-argument nodes' array operations, where each fails and
what it raises there; ``_FUNCS`` the function names and ``_CMP`` the
``if`` comparisons; ``_DERIVATIVES`` each node's derivative and
``_TEXTS`` its text. Nodes with more to do keep their own branches in the
walk: a ``Div`` evaluates its denominator first and fails at zero; a
``Pow`` takes Python's float results at zero and infinite bases and fails
where Python raises or returns a complex number; ``neg1pow`` rounds and
tests its argument; mod by zero and a derivative placeholder fail at
every node, and an ``if`` evaluates one branch per node.

Expressions are immutable after parsing and may be evaluated
concurrently: each evaluation keeps its state in its own walk.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ArityError,
    DomainError,
    ExpressionSyntaxError,
    NonConstantExponent,
    NonDifferentiableNode,
    NonIntegerNeg1Pow,
    UndefinedValue,
    ValuePastRange,
)

__all__ = [
    "Expression", "Const", "Var", "Add", "Sub", "Mul", "Div", "Pow", "Neg",
    "Sin", "Cos", "Exp", "Sqrt", "Abs", "Mod", "Neg1Pow", "Cmp", "If",
    "parse", "evaluate", "evaluate_array", "Forest", "differentiate",
    "serialize",
    "is_constant", "const_value",
]


class Expression:
    """Base class for AST nodes. Equality, hashing, ``repr`` and pickling
    give what a dataclass generates for its fields: equal by kind and
    fields, ``hash(e) == hash(tuple(fields))``, the text
    ``Add(left=Var(), right=Const(value=1.0))``, and a copy with equal
    ``vars``. Each walks the tree with a stack, where the generated ones
    recurse a few frames a level, so a tree of any depth has them."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs, seen = [(self, other)], set()
        while pairs:
            a, b = pairs.pop()
            # as a tuple compares its items: identical, or equal
            for x, y in zip(_fields(a), _fields(b)):
                if x is y or (id(x), id(y)) in seen:
                    continue
                if x.__class__ is y.__class__ and isinstance(x, Expression):
                    seen.add((id(x), id(y)))
                    pairs.append((x, y))
                elif not x == y:
                    return False
        return True

    def __hash__(self):
        hashes = {}
        for e, values in _postorder(self):
            hashes[id(e)] = _Hash(hash(tuple(
                hashes[id(v)] if isinstance(v, Expression) else v
                for v in values)))
        return hashes[id(self)].value

    def __repr__(self):
        texts, stack = [], [self]
        while stack:
            e = stack.pop()
            if not isinstance(e, Expression):
                texts.append(e)
                continue
            texts.append(f"{e.__class__.__qualname__}(")
            parts = []
            for i, name in enumerate(e.__dataclass_fields__):
                v = getattr(e, name)
                parts += [f"{', ' if i else ''}{name}=",
                          v if isinstance(v, Expression) else repr(v)]
            stack += reversed(parts + [")"])
        return "".join(texts)

    def __reduce__(self):
        # the nodes as a program that builds each after its fields' nodes,
        # which refer to the nodes built before by their indices
        index, program = {}, []
        for e, values in _postorder(self):
            nodes = tuple(i for i, v in enumerate(values)
                          if isinstance(v, Expression))
            for i in nodes:
                values[i] = index[id(values[i])]
            index[id(e)] = len(program)
            program.append((e.__class__, tuple(values), nodes))
        return _build, (program,)


def _fields(e: Expression) -> list:
    return [getattr(e, name) for name in e.__dataclass_fields__]


def _postorder(root: Expression):
    """Each node of root once, with its field values, after the nodes
    among them."""
    done, stack = set(), [(root, None)]
    while stack:
        e, values = stack.pop()
        if id(e) in done:
            continue
        if values is None:
            values = _fields(e)
            stack.append((e, values))
            stack += [(v, None) for v in values
                      if isinstance(v, Expression) and id(v) not in done]
        else:
            done.add(id(e))
            yield e, values


class _Hash:
    """A node's hash, which a tuple holding it hashes as it would the
    node."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def _build(program) -> Expression:
    """The last node of a program of ``Expression.__reduce__``."""
    nodes = []
    for kind, values, below in program:
        values = list(values)
        for i in below:
            values[i] = nodes[values[i]]
        nodes.append(kind(*values))
    return nodes[-1]


def _record(cls):
    """The frozen dataclass of one field shape. Node kinds that share a
    shape are its undecorated subclasses, so the methods are generated
    once per shape; equality holds only within a class, and ``repr``
    names the subclass, as ``Expression`` defines them. Its
    ``__setattr__`` and ``__delattr__`` raise FrozenInstanceError on
    every name, where the generated ones would let a subclass's instance
    take a name that is not a field."""
    cls = dataclass(frozen=True, eq=False, repr=False)(cls)
    cls.__setattr__ = _no_setattr
    cls.__delattr__ = _no_delattr
    return cls


def _no_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _no_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@_record
class Const(Expression):
    value: float


@_record
class Var(Expression):
    pass


@_record
class _BinaryNode(Expression):
    left: Expression
    right: Expression


class Add(_BinaryNode):
    pass


class Sub(_BinaryNode):
    pass


class Mul(_BinaryNode):
    pass


class Div(_BinaryNode):
    pass


@_record
class Pow(Expression):
    base: Expression
    exponent: float  # exponents are restricted to constants


@_record
class _UnaryNode(Expression):
    arg: Expression


class Neg(_UnaryNode):
    pass


class Sin(_UnaryNode):
    pass


class Cos(_UnaryNode):
    pass


class Exp(_UnaryNode):
    pass


class Sqrt(_UnaryNode):
    pass


class Abs(_UnaryNode):
    pass


class Neg1Pow(_UnaryNode):
    """(-1)**arg; arg must evaluate to an integer within 1e-9."""


@_record
class Mod(Expression):
    arg: Expression
    modulus: float


@_record
class Cmp(Expression):
    op: str  # eq | lt | le | gt | ge
    arg: Expression
    ref: float


@_record
class If(Expression):
    cond: Cmp
    then: Expression
    other: Expression


@_record
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
_BINARY = {node: (symbol, op, level) for level, ops in enumerate(_LEVELS)
           for symbol, (node, op) in ops.items()}


class _Unary(NamedTuple):
    """A one-argument node's array operation. Where ``fails(v, out)``
    holds, for the argument v and out = ``array(v)``, the node fails and
    raises ``error(v, t)`` at the node t."""

    array: Callable
    fails: Callable = None
    error: Callable = None


# as in the math module, sin and cos fail at an infinite argument and exp
# where it overflows, with a DomainError that is the math module's class too
_UNARY = {
    Neg: _Unary(operator.neg),
    Abs: _Unary(np.abs),
    Sin: _Unary(np.sin, lambda v, out: np.isinf(v),
                lambda v, t: UndefinedValue(f"sin of {v} at t={t}")),
    Cos: _Unary(np.cos, lambda v, out: np.isinf(v),
                lambda v, t: UndefinedValue(f"cos of {v} at t={t}")),
    Exp: _Unary(np.exp, lambda v, out: np.isinf(out) & np.isfinite(v),
                lambda v, t: ValuePastRange(f"exp({v}) at t={t}")),
    Sqrt: _Unary(np.sqrt, lambda v, out: v < 0,
                 lambda v, t: DomainError(
                     f"sqrt of negative value {v} at t={t}")),
}
# the function names and their nodes, read by the parser and ``serialize``
_FUNCS = {"sin": Sin, "cos": Cos, "exp": Exp, "sqrt": Sqrt, "abs": Abs,
          "mod": Mod, "neg1pow": Neg1Pow, "if": If}
_NAMES = {node: name for name, node in _FUNCS.items()}
# the comparisons of an if-condition: v op ref within tol, elementwise
_CMP = {
    "eq": lambda v, ref, tol: abs(v - ref) <= tol,
    "lt": lambda v, ref, tol: v < ref - tol,
    "le": lambda v, ref, tol: v <= ref + tol,
    "gt": lambda v, ref, tol: v > ref + tol,
    "ge": lambda v, ref, tol: v >= ref - tol,
}

# numbers and names are ASCII: any other character is unexpected
_NUMBER = re.compile(r"([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")
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
        if c in "0123456789.":
            m = _NUMBER.match(text, i)
            if m is None:
                raise ExpressionSyntaxError("malformed number", i)
            tokens.append(("num", float(m.group()), i))
            i = m.end()
            continue
        if (m := _NAME.match(text, i)) is not None:
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
            return _negate(self.unary())
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


def _negate(e: Expression) -> Expression:
    """-e, as the parser builds it: a constant's negation is a constant."""
    return Const(-e.value) if type(e) is Const else Neg(e)


def parse(text: str) -> Expression:
    """Parse ``text`` into an Expression AST. Text nested deeper than the
    parser can recurse under the interpreter's recursion limit raises
    ExpressionSyntaxError at the offset of the last token read."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply",
                                    parser.tokens[parser.pos - 1][2]) from None


# -- evaluation ------------------------------------------------------------

def is_constant(e: Expression) -> bool:
    """True if the expression contains no occurrence of t, for which a
    derivative placeholder stands too."""
    return not any(type(node) in (Var, _NonDiff) for node in _nodes((e,))[0])


def const_value(e: Expression) -> float:
    """Value of a constant expression; raises ValueError if it contains t."""
    if isinstance(e, Const):
        return e.value
    if not is_constant(e):
        raise ValueError("expression is not constant")
    return evaluate(e, 0.0)


def evaluate(e: Expression, t: float) -> float:
    """IEEE double evaluation at the point t: ``evaluate_array`` at [t]."""
    return float(evaluate_array(e, (t,))[0])


def evaluate_array(e: Expression, x) -> np.ndarray:
    """IEEE double evaluation at every node of the array x.

    One walk of the AST applies numpy ufuncs to whole node arrays. An
    ``if`` evaluates each branch only on the nodes that take it, so an
    error in a branch no node takes is not raised. Where some node fails,
    it raises what evaluating the nodes one by one in order would: the
    error of the first node, in walk order, that fails at the lowest
    failing index, naming that t. The walk keeps no node's value.
    """
    x = np.array(x, dtype=float)
    return _ArrayWalk(frozenset()).root(e, x)


class Forest:
    """Expressions evaluated together on one grid after another, such as a
    system's q, p and q', which ``differentiate`` builds from q's subtrees.
    The nodes met at several places are found once, here (``_nodes``);
    ``evaluate(x)`` then evaluates each of them once per grid."""

    def __init__(self, roots):
        self.roots = tuple(roots)
        self.shared = _nodes(self.roots)[1]

    def evaluate(self, x):
        """Yield ``evaluate_array(e, x)`` for each root e in turn, from one
        walk over x that evaluates a node met at several places once, where
        no ``if`` mask encloses it. A root's error is raised when its values
        are asked for, before any later root is walked. A yielded array may
        be the walk's own, which a later root reads: do not change it in
        place."""
        x = np.array(x, dtype=float)
        walk = _ArrayWalk(self.shared)
        for e in self.roots:
            yield walk.root(e, x)


def _nodes(roots):
    """The nodes of ``roots``, each once, and the ids of the inner nodes
    met more than once in a walk that does not enter a node met before.
    Constants and t, which have no children, cost less to evaluate than
    to keep."""
    nodes, shared = {}, set()
    stack = list(roots)
    while stack:
        e = stack.pop()
        children = _CHILDREN.get(type(e))
        if id(e) in nodes:
            if children is not None:
                shared.add(id(e))
            continue
        nodes[id(e)] = e
        if children is not None:
            stack += children(e)
    return nodes.values(), shared


# each inner node kind's Expression-valued fields
_CHILDREN = {**dict.fromkeys(_BINARY, lambda e: (e.left, e.right)),
             **dict.fromkeys((*_UNARY, Mod, Neg1Pow, Cmp), lambda e: (e.arg,)),
             Pow: lambda e: (e.base,), If: lambda e: (e.cond, e.then, e.other)}


class _ArrayWalk:
    """One walk over the nodes x, through one root or a ``Forest``'s. A
    node that does not depend on t evaluates to a 0-d value, which numpy
    broadcasts.

    ``masks`` holds the masks of the enclosing ``if`` branches, each
    selecting the nodes walked inside it from those walked outside.
    ``errors`` holds, in walk order, each failing node's first failure:
    its index into x, the node's argument there and its exception's
    builder. A node's later failures are never raised, as an earlier
    index wins. ``shared`` holds the ids of the nodes that the walk meets
    at more than one place (``_nodes``), and ``values`` the value of each
    such node walked outside every mask, and of each such ``if``
    condition its mask, until the walk ends: such a value was walked
    without error, as any error ends the walk, so reading it records what
    walking it again would.
    """

    def __init__(self, shared):
        self.masks = []
        self.errors = []
        self.shared = shared
        self.values = {}
        self.tol = None  # the if tolerance on x, once a top-level if needs it

    def root(self, e: Expression, x) -> np.ndarray:
        """e's values on the nodes x, or the first error recorded at the
        lowest failing index."""
        with np.errstate(all="ignore"):
            v = self.eval(e, x)
        if self.errors:
            i, v, error = min(self.errors, key=operator.itemgetter(0))
            raise error(v, float(x[i]))
        return np.full(len(x), v) if v.ndim == 0 else v

    def fail(self, where, error, v=None):
        """Record ``error(v, t)`` at the first walked node where ``where``
        holds (0-d: all or none of them), v the failing node's argument."""
        if where.any():
            i = int(np.argmax(where))
            self.record(i, None if v is None else float(np.ravel(v)[i]), error)

    def record(self, i: int, v, error):
        """Record ``error(v, t)`` at the i-th walked node."""
        for mask in reversed(self.masks):
            i = int(np.flatnonzero(mask)[i])
        self.errors.append((i, v, error))

    def eval(self, e: Expression, x):
        """e's value on x. The chain of binary nodes down the left operands
        is walked in a loop: down to a node whose value is kept or that is
        not binary, evaluating each Div's denominator on the way, then back
        up through the other right operands, as a recursive walk orders
        them."""
        kind = type(e)
        if kind in _BINARY:
            top = not self.masks and self.shared
            chain = []  # the nodes from the top down, each Div's den first
            while type(e) in _BINARY and not (top and id(e) in self.values):
                if type(e) is Div:
                    chain.append(den := self.eval(e.right, x))
                    self.fail(den == 0.0, _division_error)
                chain.append(e)
                e = e.left
            # a binary node that stops the chain has its value kept
            out = self.values[id(e)] if type(e) in _BINARY else self.eval(e, x)
            while chain:
                kind = type(e := chain.pop())
                right = chain.pop() if kind is Div else self.eval(e.right, x)
                out = _BINARY[kind][1](out, right)
                if top and id(e) in self.shared:
                    self.values[id(e)] = out
            return out
        keep = self.shared and not self.masks and id(e) in self.shared
        if keep and id(e) in self.values:
            return self.values[id(e)]
        if (rule := _UNARY.get(kind)) is not None:
            v = self.eval(e.arg, x)
            out = rule.array(v)
            if rule.fails is not None:
                self.fail(rule.fails(v, out), rule.error, v)
        elif kind is Const:
            out = np.float64(e.value)
        elif kind is Var:
            out = x
        elif kind is Pow:
            out = self.pow(e, x)
        elif kind is Mod and e.modulus != 0.0:
            out = np.mod(self.eval(e.arg, x), e.modulus)
        elif kind is Neg1Pow:
            v = self.eval(e.arg, x)
            k = np.round(v)
            # NaN and inf fail the test too, as round() rejects them
            self.fail(~(np.abs(v - k) <= 1e-9), _neg1pow_error, v)
            out = np.where(np.mod(k, 2.0) == 1.0, -1.0, 1.0)
        elif kind is If:
            out = self.branch(e, x)
        else:
            # mod by zero, a derivative placeholder or an unknown node fails
            # at every node, before any child is walked
            self.fail(np.True_, lambda v, t, e=e: _node_error(e, t))
            out = np.float64(math.nan)
        if keep:
            self.values[id(e)] = out
        return out

    def branch(self, e: If, x):
        c = e.cond
        top = not self.masks
        m = self.values.get(id(c)) if top else None  # kept, if c is shared
        if m is None:
            v = self.eval(c.arg, x)
            rule = _CMP.get(c.op)
            if rule is None:
                self.fail(np.True_, lambda v, t: TypeError(
                    f"unknown comparison {c.op!r}"))
                return np.float64(math.nan)
            if top and self.tol is None:
                self.tol = _tolerance(x)
            m = rule(v, c.ref, self.tol if top else _tolerance(x))
            if top and id(c) in self.shared:
                self.values[id(c)] = m
        if m.all():
            return self.eval(e.then, x)
        if not m.any():
            return self.eval(e.other, x)
        out = np.empty(len(x))
        for branch, mask in ((e.then, m), (e.other, ~m)):
            self.masks.append(mask)
            out[mask] = self.eval(branch, x[mask])
            self.masks.pop()
        return out

    def pow(self, e: Pow, x):
        base = self.eval(e.base, x)
        p = float(e.exponent)
        out = np.power(base, p)
        # zero and infinite bases take Python's float results, which numpy's
        # sqrt fast path for p = 0.5 does not share on -0.0 and -inf; where
        # a power is not finite, Python may raise (overflow, zero to a
        # negative power) or return a complex number, and the node fails
        odd = (base == 0.0) | np.isinf(base) | ~np.isfinite(out)
        if not odd.any():
            return out
        out, flat = np.array(out), np.ravel(base)
        for j in np.flatnonzero(odd):
            b = float(flat[j])
            try:
                value = b ** p
            except (ValueError, ZeroDivisionError, OverflowError):
                value = None
            if value is None or isinstance(value, complex):
                what = "" if value is None else " is complex"
                self.record(int(j), b, lambda v, t: DomainError(
                    f"{v} ** {e.exponent}{what} at t={t}"))
                break  # the node's first failure is the one raised
            out.flat[j] = value
        return out


def _division_error(v, t):
    return DomainError(f"division by zero at t={t}")


def _tolerance(x):
    """The if comparisons' tolerance at the nodes x: fmax, as Python's
    max(1.0, abs(t)), takes 1 at a NaN t."""
    return 1e-12 * np.fmax(1.0, np.abs(x))


def _node_error(e: Expression, t: float) -> Exception:
    """What a node that fails wherever it is evaluated raises at t."""
    if type(e) is Mod:
        return DomainError(f"mod with zero divisor at t={t}")
    if type(e) is _NonDiff:
        return NonDifferentiableNode(f"{e.reason} at t={t}")
    return TypeError(f"unknown node {e!r}")


def _neg1pow_error(v: float, t: float) -> Exception:
    # round() raises ValueError at NaN and OverflowError at inf
    kind = (UndefinedValue if math.isnan(v) else ValuePastRange
            if math.isinf(v) else NonIntegerNeg1Pow)
    return kind(f"neg1pow argument {v} at t={t}")


# -- symbolic derivative ---------------------------------------------------

def differentiate(e: Expression) -> Expression:
    """Symbolic derivative with respect to t, by the rules of
    ``_DERIVATIVES``.

    mod/neg1pow subtrees yield a placeholder that raises
    NonDifferentiableNode when evaluated, and that ``serialize`` cannot
    write; if-nodes differentiate both branches and keep the condition.
    Every other derivative tree round-trips through ``serialize``.
    """
    chain = []  # the binary nodes down the left operands
    while type(e) in _BINARY:
        chain.append(e)
        e = e.left
    if (rule := _DERIVATIVES.get(type(e))) is None:
        raise TypeError(f"unknown node {e!r}")
    d = rule(e, differentiate(e.arg)) if type(e) in _UNARY else rule(e)
    for node in reversed(chain):
        d = _DERIVATIVES[type(node)](node, d, differentiate(node.right))
    return d


# each node kind's derivative: a binary node's from the node and its
# operands' derivatives (dl, dr), a ``_UNARY`` node's from the node and its
# argument's (d), any other's from the node alone
_DERIVATIVES = {
    Const: lambda e: Const(0.0),
    Cmp: lambda e: Const(0.0),
    Var: lambda e: Const(1.0),
    Add: lambda e, dl, dr: Add(dl, dr),
    Sub: lambda e, dl, dr: Sub(dl, dr),
    Mul: lambda e, dl, dr: Add(Mul(dl, e.right), Mul(e.left, dr)),
    Div: lambda e, dl, dr: Div(Sub(Mul(dl, e.right), Mul(e.left, dr)),
                               Mul(e.right, e.right)),
    # folded as the parser folds it, so serialize round-trips the tree
    Neg: lambda e, d: _negate(d),
    Pow: lambda e: Const(0.0) if e.exponent == 0.0 else Mul(
        Mul(Const(e.exponent), Pow(e.base, e.exponent - 1.0)),
        differentiate(e.base)),
    Sin: lambda e, d: Mul(Cos(e.arg), d),
    Cos: lambda e, d: Neg(Mul(Sin(e.arg), d)),
    Exp: lambda e, d: Mul(Exp(e.arg), d),
    Sqrt: lambda e, d: Div(d, Mul(Const(2.0), Sqrt(e.arg))),
    # d|u| = u u' / |u|; DomainError at u = 0
    Abs: lambda e, d: Div(Mul(e.arg, d), Abs(e.arg)),
    Mod: lambda e: _NonDiff("derivative of mod(...) used on a dense region"),
    Neg1Pow: lambda e: _NonDiff(
        "derivative of neg1pow(...) used on a dense region"),
    If: lambda e: If(e.cond, differentiate(e.then), differentiate(e.other)),
    _NonDiff: lambda e: e,
}


# -- serialization ---------------------------------------------------------

def serialize(e: Expression) -> str:
    """Render e in the input grammar, as an atom, by the rules of
    ``_TEXTS``; parse(serialize(e)) is structurally e for every e that
    parse or differentiate returns (a NaN exponent, modulus or reference
    is written as the constant (1e999 - 1e999)). The chain of binary
    nodes down the left operands is written as one atom, with
    parentheses only around a left operand whose operator binds looser,
    so that a flat sum's text is flat. The placeholder that differentiate
    leaves for mod and neg1pow cannot be written: TypeError."""
    chain = []  # the binary nodes down the left operands
    while type(e) in _BINARY:
        chain.append(e)
        e = e.left
    if (rule := _TEXTS.get(type(e))) is None:
        raise TypeError(f"cannot serialize {e!r}")
    texts = [rule(e, serialize(e.arg)) if type(e) in _UNARY else rule(e)]
    opens, top = 0, len(_LEVELS)  # the level of the text's last operator
    for node in reversed(chain):
        symbol, _, level = _BINARY[type(node)]
        if top < level:
            texts.append(")")
            opens += 1
        texts.append(f" {symbol} {serialize(node.right)}")
        top = level
    if chain:
        texts.append(")")
        opens += 1
    return "(" * opens + "".join(texts)


# each node kind's text but a binary node's: a ``_UNARY`` node's from the
# node and its argument's text (a), any other's from the node alone; a
# function is written by its name in ``_FUNCS``. A run of minus signs is
# written in one pair of parentheses, (--x), which the parser reads one
# frame a sign, where (-(-x)) would cost it a nesting level each
_TEXTS = {
    **dict.fromkeys(_UNARY, lambda e, a: f"{_NAMES[type(e)]}({a})"),
    Neg: lambda e, a: f"(-{a[1:-1] if type(e.arg) is Neg else a})",
    Const: lambda e: _number(e.value),
    Var: lambda e: "t",
    Pow: lambda e: f"({serialize(e.base)} ^ {_number(e.exponent)})",
    Mod: lambda e: f"mod({serialize(e.arg)}, {_number(e.modulus)})",
    Neg1Pow: lambda e: f"neg1pow({serialize(e.arg)})",
    If: lambda e: (f"if({e.cond.op}({serialize(e.cond.arg)}, "
                   f"{_number(e.cond.ref)}), {serialize(e.then)}, "
                   f"{serialize(e.other)})"),
}


def _number(v: float) -> str:
    """The float v as an atom that parses back to v: a negative value,
    -0.0 too, in parentheses, an infinite one as 1e999 and a NaN as
    (1e999 - 1e999)."""
    if math.isnan(v):
        return "(1e999 - 1e999)"
    text = "1e999" if math.isinf(v) else repr(abs(v))
    return f"(-{text})" if math.copysign(1.0, v) < 0 else text

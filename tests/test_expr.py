import dataclasses
import functools
import math
import operator
import pickle
import random
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tsfloquet import differentiate, evaluate, parse, serialize
from tsfloquet import expr as ex
from tsfloquet.cli import build_system, load_config
from tsfloquet.errors import (
    ArityError,
    DomainError,
    ExpressionSyntaxError,
    NonConstantExponent,
    NonDifferentiableNode,
    NonIntegerNeg1Pow,
)
from tsfloquet.expr import const_value, evaluate_array, is_constant

import expr_reference
from calculus_reference import dense_intervals
from conftest import random_discrete_system, random_hybrid_system


def test_parse_example_coefficients():
    q = parse("(1 - 15*neg1pow(t))/16")
    assert evaluate(q, 0.0) == pytest.approx(-7 / 8)
    assert evaluate(q, 1.0) == pytest.approx(1.0)
    p = parse("if(eq(mod(t, 2*pi), pi), 0.25, 0)")
    assert evaluate(p, math.pi) == 0.25
    assert evaluate(p, 1.0) == 0.0
    assert evaluate(p, 3 * math.pi) == 0.25  # periodic via mod


def test_precedence_and_unary():
    assert evaluate(parse("2 + 3 * 4"), 0) == 14
    assert evaluate(parse("-t^2"), 3) == -9  # unary binds looser than ^
    assert evaluate(parse("(-t)^2"), 3) == 9
    assert evaluate(parse("2*pi"), 0) == pytest.approx(2 * math.pi)


def test_syntax_error_offsets():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse("1 + * 2")
    assert exc.value.offset == 4
    with pytest.raises(ExpressionSyntaxError):
        parse("sin(t")
    with pytest.raises(ExpressionSyntaxError):
        parse("")


@pytest.mark.parametrize("text, offset", [
    (".", 0),  # malformed number
    ("$", 0),  # unexpected character
    ("1 2", 2),  # trailing input
    ("foo", 0),  # unknown name
    ("lt(t, 1)", 0),  # a comparison outside an if-condition
    ("if(t, 1, 2)", 3),  # an if-condition that is not a comparison
])
def test_syntax_errors_name_their_offset(text, offset):
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse(text)
    assert exc.value.offset == offset


@pytest.mark.parametrize("text, message", [
    # a letter outside ASCII starts no name
    ("1 + é", "unexpected character 'é' (offset 4)"),
    ("ß*t", "unexpected character 'ß' (offset 0)"),
    ("tµ", "unexpected character 'µ' (offset 1)"),
    # a digit outside ASCII starts no number
    ("٢", "unexpected character '٢' (offset 0)"),
    ("t * １", "unexpected character '１' (offset 4)"),
    ("1٢", "unexpected character '٢' (offset 1)"),
    # nesting deeper than the recursion limit lets the parser follow
    ("(" * 200 + "1" + ")" * 200, "expression nested too deeply (offset "),
    ("sqrt(" * 150 + "t" + ")" * 150, "expression nested too deeply (offset "),
])
def test_malformed_text_is_a_syntax_error(text, message):
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse(text)
    assert str(exc.value).startswith(message)
    assert 0 <= exc.value.offset < len(text)


def test_nesting_the_parser_follows_still_parses():
    assert const_value(parse("(" * 100 + "1" + ")" * 100)) == 1.0
    e = parse("sqrt(" * 100 + "t" + ")" * 100)
    assert evaluate(e, 1.0) == 1.0


@pytest.mark.parametrize("text", ["mod(t)", "sin(t, 1)"])
def test_wrong_argument_counts_raise(text):
    with pytest.raises(ArityError):
        parse(text)


def test_variable_exponent_rejected():
    with pytest.raises(NonConstantExponent):
        parse("2 ^ t")
    with pytest.raises(NonConstantExponent):
        parse("mod(t, t)")


def test_neg1pow_integer_only():
    e = parse("neg1pow(t)")
    assert evaluate(e, 4.0) == 1.0
    assert evaluate(e, 5.0) == -1.0
    with pytest.raises(NonIntegerNeg1Pow):
        evaluate(e, 0.5)


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("1 / t"), 0.0)
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(t)"), -1.0)


def test_const_value():
    assert const_value(parse("2*pi")) == pytest.approx(2 * math.pi)
    assert is_constant(parse("sin(3)/4"))
    assert not is_constant(parse("t + 1"))
    with pytest.raises(ValueError):
        const_value(parse("t + 1"))


def test_a_long_constant_sum_is_its_left_fold():
    # is_constant recursed two frames a term, so a few hundred terms
    # raised RecursionError, and an exponent of them read as nested too
    # deeply
    rng = random.Random(1)
    terms = [rng.uniform(-1.0, 1.0) for _ in range(5000)]
    e = parse(" + ".join(map(repr, terms)))
    assert is_constant(e)
    assert const_value(e).hex() == functools.reduce(operator.add, terms).hex()
    assert not is_constant(ex.Add(e, ex.Var()))
    power = parse("1 + t^(" + " + ".join(["0.001"] * 500) + ")")
    assert power.right.exponent == functools.reduce(operator.add,
                                                    [0.001] * 500)


def test_differentiate_smooth():
    cases = [
        ("t^2 + 3*t", lambda t: 2 * t + 3),
        ("sin(2*t)/2", lambda t: math.cos(2 * t)),
        ("exp(t) * cos(t)", lambda t: math.exp(t) * (math.cos(t) - math.sin(t))),
        ("sqrt(t)", lambda t: 0.5 / math.sqrt(t)),
        ("1 / (1 + t)", lambda t: -1 / (1 + t) ** 2),
        ("abs(t)", lambda t: 1.0 if t > 0 else -1.0),
    ]
    for text, want in cases:
        d = differentiate(parse(text))
        for t in (0.3, 1.1, 2.5):
            assert evaluate(d, t) == pytest.approx(want(t), rel=1e-12)


def test_differentiate_edge_nodes():
    # t^0 is the constant 1; the placeholder for mod's derivative is its
    # own derivative; anything that is not a node is a TypeError, as it is
    # for evaluate_array and serialize
    assert differentiate(parse("t^0")) == ex.Const(0.0)
    d = differentiate(parse("mod(t, 2)"))
    assert differentiate(d) is d
    for call in (differentiate, serialize,
                 lambda e: ex.evaluate_array(e, [0.0])):
        with pytest.raises(TypeError):
            call(object())


def test_differentiate_if_both_branches():
    d = differentiate(parse("if(lt(t, 1), t^2, 2*t)"))
    assert evaluate(d, 0.5) == pytest.approx(1.0)
    assert evaluate(d, 2.0) == pytest.approx(2.0)


def test_nondifferentiable_raises_only_on_evaluation():
    d = differentiate(parse("neg1pow(t) + t"))  # building is fine
    with pytest.raises(NonDifferentiableNode):
        evaluate(d, 1.0)
    d = differentiate(parse("mod(t, 2)"))
    with pytest.raises(NonDifferentiableNode):
        evaluate(d, 0.5)


_leaf = st.one_of(
    st.just("t"),
    st.floats(min_value=-4, max_value=4, allow_nan=False).map(
        lambda v: f"{v!r}"),
)


def _combine(children):
    a, b = children
    return st.sampled_from([
        f"({a} + {b})", f"({a} - {b})", f"({a} * {b})", f"(-{a})",
        f"sin({a})", f"cos({a})", f"(({a}) ^ 2)", f"abs({a})",
    ])


_expr_text = st.recursive(
    _leaf, lambda inner: st.tuples(inner, inner).flatmap(_combine),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(_expr_text, st.floats(min_value=-3, max_value=3, allow_nan=False))
# non-finite and negative zero constants, exponents, moduli and references
@example("1e400", 0.5)
@example("t ^ 1e400", 0.5)
@example("mod(t, 1e400)", -0.5)
@example("if(lt(t, 1e400), 1, 2)", 0.5)
@example("t ^ (1e400 - 1e400)", 0.5)
@example("if(ge(t, -0), t ^ (-0), mod(t, -0.0))", 0.5)
def test_serialize_roundtrip(text, t):
    e = parse(text)
    again = parse(serialize(e))
    assert serialize(again) == serialize(e)
    # hex tells -0.0 from 0.0 and a NaN equals a NaN
    assert evaluate(again, t).hex() == evaluate(e, t).hex()


@settings(max_examples=150, deadline=None)
@given(_expr_text)
@example("(-t)")  # d(-t) is the constant -1, as the parser writes -1
def test_serialize_roundtrip_derivatives(text):
    # the derivative trees of expressions without mod or neg1pow, whose
    # placeholder cannot be written
    d = differentiate(parse(text))
    again = parse(serialize(d))
    assert again == d
    assert serialize(again) == serialize(d)


def test_a_run_of_minus_signs_round_trips():
    # a run of signs is written in one pair of parentheses: (-(-x)) cost
    # the parser a nesting level a sign, so from ~160 signs on the text of
    # a run that parse took was refused as nested too deeply
    assert serialize(ex.Neg(ex.Neg(ex.Var()))) == "(--t)"
    assert serialize(differentiate(parse("-cos(t)"))) == "(--(sin(t) * 1.0))"
    k = sys.getrecursionlimit()
    while True:
        try:
            parse("-" * k + "sin(t)")
            break
        except ExpressionSyntaxError:
            k -= 1
    # trees this deep are compared by their text: == recurses a few frames
    # a level
    for e in (parse("-" * (k - 20) + "sin(t)"),
              differentiate(parse("-" * (k - 20) + "cos(t)"))):
        text = serialize(e)
        assert serialize(parse(text)) == text
        assert evaluate(parse(text), 0.5) == evaluate(e, 0.5)


# -- array evaluator ---------------------------------------------------------

def _combine_array(children):
    """_combine plus the nodes that can raise or take one branch only."""
    a, b = children
    return st.one_of(_combine(children), st.sampled_from([
        f"({a} / {b})", f"sqrt({a})", f"exp({a})", f"(({a}) ^ 0.5)",
        f"(({a}) ^ (0 - 1))", f"mod({a}, 1.5)", f"mod({a}, 0)",
        f"neg1pow({a})", f"if(lt({a}, 0.5), {b}, sqrt({a}))",
        f"if(eq({a}, 1), {b}, {a})", f"if(le({a}, 0.5), {b}, {a})",
        f"if(gt({a}, 0.5), {b}, {a})", f"if(ge({a}, 0.5), {b}, {a})",
    ]))


_array_expr_text = st.recursive(
    _leaf, lambda inner: st.tuples(inner, inner).flatmap(_combine_array),
    max_leaves=8,
)
_nodes = st.lists(
    st.one_of(st.floats(min_value=-3, max_value=3, allow_nan=False),
              st.integers(min_value=-3, max_value=3).map(float)),
    min_size=1, max_size=8,
)

_EPS = 2.0 ** -50  # four ulps: how far one sin, cos, exp or power may differ


class _Ambiguous(Exception):
    """A branch or domain decision lies within the slack of its input."""


def _near(v, edge, s):
    if s > 0 and abs(v - edge) <= s:
        raise _Ambiguous


def _slack(e, t):
    """(walk(e, t), s) for the reference walk ``walk``, where s bounds
    |evaluate_array(e, [t])[0] - walk(e, t)| to first order: +, -, *, /,
    sqrt, abs and mod round alike in numpy and the math module, each sin,
    cos, exp and power may differ by _EPS relative, and a differing input
    rounds its result by up to _EPS.

    Raises what the walk raises at t, because the children are walked in
    its order before their parent is evaluated, and _Ambiguous where an
    input's slack could flip a branch or a domain check.
    """
    walk = expr_reference.evaluate

    def rounded(v, s):
        return s + _EPS * abs(v) if s else 0.0

    if isinstance(e, ex.If):
        c, sc = _slack(e.cond.arg, t)
        tol = 1e-12 * max(1.0, abs(t))
        _near(c, e.cond.ref - tol, sc)
        _near(c, e.cond.ref + tol, sc)
        return _slack(e.then if expr_reference._cmp(e.cond, t) else e.other, t)
    if isinstance(e, ex.Div):
        b, sb = _slack(e.right, t)
        _near(b, 0.0, sb)
        if b == 0.0:
            walk(e, t)  # raises before the numerator is walked
        a, sa = _slack(e.left, t)
        v = walk(e, t)
        return v, rounded(v, (sa + abs(v) * sb) / (abs(b) - sb))
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul)):
        a, sa = _slack(e.left, t)
        b, sb = _slack(e.right, t)
        v = walk(e, t)
        s = sa * abs(b) + sb * abs(a) + sa * sb if isinstance(e, ex.Mul) \
            else sa + sb
        return v, rounded(v, s)
    if isinstance(e, (ex.Const, ex.Var, ex._NonDiff)) or (
            isinstance(e, ex.Mod) and e.modulus == 0.0):
        return walk(e, t), 0.0
    a, sa = _slack(e.arg if not isinstance(e, ex.Pow) else e.base, t)

    def walked():
        # the node's error message prints its argument a: the error keeps
        # a and its slack
        try:
            return walk(e, t)
        except Exception as exc:
            exc.argument = a, sa
            raise

    if isinstance(e, ex.Sqrt):
        _near(a, 0.0, sa)
        v = walked()
        return v, rounded(v, math.sqrt(a + sa) - math.sqrt(a - sa) if sa
                          else 0.0)
    if isinstance(e, ex.Mod):
        v = walked()
        _near(v, 0.0, sa)
        _near(v, e.modulus, sa)
        return v, rounded(v, sa)
    if isinstance(e, ex.Neg1Pow):
        if sa and math.isfinite(a):
            _near(abs(a - round(a)), 1e-9, sa)
        return walked(), 0.0
    if isinstance(e, ex.Pow):
        _near(a, 0.0, sa)
    v = walked()
    if isinstance(e, (ex.Neg, ex.Abs)):
        return v, sa
    if isinstance(e, (ex.Sin, ex.Cos)):
        return v, sa + _EPS * abs(v)
    if isinstance(e, ex.Exp):
        return v, abs(v) * (math.expm1(sa) if sa < 700 else math.inf) \
            + _EPS * abs(v)
    assert isinstance(e, ex.Pow)
    # a relative slack sa / |a| becomes |p| sa / |a| in a^p
    s = abs(e.exponent) * abs(v) * sa / (abs(a) - sa) if sa else 0.0
    return v, s + _EPS * abs(v)


@settings(max_examples=300, deadline=None)
@given(_array_expr_text, _nodes)
def test_evaluate_array_matches_scalar(text, xs):
    e = parse(text)
    try:
        want = [_slack(e, t) for t in xs]
    except _Ambiguous:
        assume(False)
    except Exception as exc:
        with pytest.raises(Exception) as info:
            [expr_reference.evaluate(e, t) for t in xs]
        assert type(info.value) is type(exc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Exception) as array_info:
                evaluate_array(e, xs)
        assert type(array_info.value) is type(exc)
        assert str(array_info.value) == str(info.value)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = evaluate_array(e, xs)
    assert got.shape == (len(xs),)
    for g, (v, s) in zip(got, want):
        assert g == v or abs(g - v) <= s or (math.isnan(g) and math.isnan(v))


def test_evaluate_array_skips_untaken_branches():
    x = np.linspace(0.0, 1.0, 9)
    e = parse("if(lt(t, 10), t, sqrt(0 - 1))")
    assert np.array_equal(evaluate_array(e, x), x)
    # the mod branch's derivative is never taken on [0, 1]
    d = differentiate(parse("if(lt(t, 10), t^2, mod(t, 2))"))
    assert np.array_equal(evaluate_array(d, x), 2.0 * x)


def test_evaluate_array_names_the_first_offending_t():
    e = parse("1 / ((t - 0.5) * (t - 0.75))")
    with pytest.raises(DomainError, match=r"t=0\.5\b"):
        evaluate_array(e, [0.0, 0.25, 0.5, 0.75, 1.0])
    # an error met later in the walk at an earlier node wins, as in the
    # reference walk's loop, which stops at the first node
    e = parse("neg1pow(t) + 1 / t")
    for ev in (lambda: [expr_reference.evaluate(e, t) for t in (0.0, 1.5)],
               lambda: evaluate_array(e, [0.0, 1.5])):
        with pytest.raises(DomainError, match=r"t=0\.0\b"):
            ev()


def test_evaluate_array_comparison_tolerance():
    # 1e-12 relative to max(1, |t|), the tolerance of the reference walk
    walk = expr_reference.evaluate
    e = parse("if(eq(t, 1), 5, 0)")
    x = [1.0 + 1e-13, 1.0 + 1e-10, 1.0 - 1e-13, 1.0 - 1e-10]
    assert list(evaluate_array(e, x)) == [walk(e, t) for t in x] \
        == [5.0, 0.0, 5.0, 0.0]
    e = parse("if(lt(t, 1e6), 1, 2)")
    x = [1e6 - 1e-7, 1e6 - 1e-5]
    assert list(evaluate_array(e, x)) == [walk(e, t) for t in x] \
        == [2.0, 1.0]


def test_evaluate_array_error_classes():
    with pytest.raises(NonIntegerNeg1Pow):
        evaluate_array(parse("neg1pow(t)"), [1.0, 1.5, 2.0])
    assert list(evaluate_array(parse("neg1pow(t)"), [-3.0, 0.0, 5.0])) == \
        [-1.0, 1.0, -1.0]
    # exp overflow is an OverflowError, as in the scalar evaluator
    e = parse("exp(1000*t)")
    with pytest.raises(OverflowError):
        evaluate(e, 1.0)
    with pytest.raises(OverflowError):
        evaluate_array(e, [0.0, 1.0])
    # round() rejects inf with OverflowError and NaN with ValueError
    big = "t * 1e300 * 1e300"
    for text, error in ((f"neg1pow({big})", OverflowError),
                        (f"neg1pow({big} - {big})", ValueError)):
        with pytest.raises(error):
            evaluate(parse(text), 1.0)
        with pytest.raises(error):
            evaluate_array(parse(text), [1.0])
    # math.sin rejects an infinite argument with ValueError
    with pytest.raises(ValueError):
        evaluate_array(parse("sin(t * 1e300 * 1e300)"), [0.0, 1.0])
    with pytest.raises(NonDifferentiableNode, match="t=0.5"):
        evaluate_array(differentiate(parse("mod(t, 2)")), [0.5])
    with pytest.raises(DomainError):
        evaluate_array(parse("(t - 1) ^ (0 - 2)"), [0.0, 1.0])
    with pytest.raises(DomainError):
        evaluate_array(parse("t ^ 0.5"), [1.0, -1.0])


@pytest.mark.parametrize("e, error", [
    (parse("exp(1000*t)"), OverflowError),
    (parse("sin(t * 1e300 * 1e300)"), ValueError),
    (parse("cos(t * 1e300 * 1e300)"), ValueError),
    (parse("neg1pow(t * 1e300 * 1e300)"), OverflowError),
    (parse("neg1pow(t * 1e300 * 1e300 - t * 1e300 * 1e300)"), ValueError),
    (parse("mod(t, 0)"), DomainError),
    (differentiate(parse("mod(t, 2)")), NonDifferentiableNode),
])
def test_every_evaluation_error_names_t(e, error):
    with pytest.raises(error, match=r" at t=1\.0$") as walk:
        expr_reference.evaluate(e, 1.0)
    # the array walk raises the reference walk's exception
    with pytest.raises(error) as array:
        evaluate_array(e, [1.0, 2.0])
    assert str(array.value) == str(walk.value)


def test_evaluate_array_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text, x in (("sqrt(t)", [1.0, -1.0]), ("1 / t", [1.0, 0.0]),
                        ("t ^ 0.5", [-2.0]), ("exp(1000*t)", [1.0])):
            with pytest.raises((DomainError, OverflowError)):
                evaluate_array(parse(text), x)
        # float overflow that the scalar evaluator does not reject
        assert evaluate_array(parse("t * 1e300 * 1e300"), [1.0])[0] == \
            evaluate(parse("t * 1e300 * 1e300"), 1.0) == math.inf
        # Python's float semantics at zero and infinite bases
        e = parse("(t * 1e300 * 1e300 - 1e308) ^ 0.5")
        assert evaluate_array(e, [-1.0])[0] == evaluate(e, -1.0) == math.inf


# -- one walk over several roots ----------------------------------------------

def _roots_reference(roots, x):
    """Each root's values as hex, from the reference walk one node at a
    time in order, up to and including the first root that raises, whose
    outcome is the exception's type and message."""
    out = []
    for e in roots:
        try:
            out.append([expr_reference.evaluate(e, t).hex() for t in x])
        except Exception as exc:
            return out + [(type(exc), str(exc))]
    return out


def _roots_outcome(roots, x):
    out = []
    values = ex.Forest(roots).evaluate(x)
    try:
        for _ in roots:
            out.append([v.hex() for v in next(values).tolist()])
    except Exception as exc:
        out.append((type(exc), str(exc)))
    return out


def _shared_roots():
    """Root tuples whose nodes meet at several places: q, p and q' of an
    if/mod tree and of a quotient, whose derivatives reuse their parts, and
    a node shared by roots that read it under a partial if mask and outside
    every mask. No sin, cos or exp, whose numpy rounding may differ from
    the reference's in the last ulp."""
    q = parse("if(eq(mod(t, 1.0), 0.5), 2, if(eq(mod(t, 1.0), 0.25), 3, "
              "(1 + 0.1*mod(t, 1.0))^2))")
    yield q, parse("0.5 + 0.01*t"), differentiate(q)
    q = parse("(t - 0.3) / (t*t + 1) + abs(t - 0.6)")
    yield q, parse("t / 3"), differentiate(q)
    pole = parse("1 / (t - 0.5)")
    below, above = (ex.If(ex.Cmp(op, ex.Var(), 0.45), pole, ex.Const(0.0))
                    for op in ("lt", "gt"))
    yield below, pole, ex.Add(pole, below)  # fails outside the mask only
    yield pole, below  # the first root fails, the second is never walked
    yield below, above, pole  # fails under the mask of the second root
    yield below, ex.Neg(below), differentiate(ex.Mul(below, below))


@pytest.mark.parametrize("x", [
    np.linspace(0.0, 1.0, 41),  # takes both branches, and t = 0.5, 0.25
    np.linspace(0.01, 0.99, 40),  # misses the poles and the if points
    [0.25, 0.5, 0.6, 0.3],
])
def test_a_walk_over_several_roots_is_the_reference_walk(x):
    # values bit for bit, and the first failing root's error, where a node
    # shared by several roots is walked once outside every if mask
    for roots in _shared_roots():
        assert _roots_outcome(roots, x) == _roots_reference(roots, x)


def test_a_walk_evaluates_a_shared_node_once(monkeypatch):
    q = parse("if(eq(mod(t, 1.0), 0.5), 2, if(eq(mod(t, 1.0), 0.25), 3, "
              "(1 + 0.1*cos(2*pi*t))^2))")
    roots = (q, parse("0.3 + 0.01*sin(2*pi*t)"), differentiate(q))
    x = np.linspace(0.02, 0.97, 50)  # no node takes an if's first branch
    walked = []
    eval_node = ex._ArrayWalk.eval

    def counted(walk, e, x):  # the nodes evaluated, not read back
        if id(e) not in walk.values:
            walked.append(id(e))
        return eval_node(walk, e, x)

    monkeypatch.setattr(ex._ArrayWalk, "eval", counted)
    got = list(ex.Forest(roots).evaluate(x))
    monkeypatch.undo()
    # the first condition's mod(t, 1.0) and q's base 1 + 0.1 cos(2 pi t)
    # are evaluated once for q and q' together, and q' reads both
    # conditions' masks from q
    mod, base = q.cond.arg, q.other.other.base
    assert walked.count(id(mod)) == walked.count(id(base)) == 1
    assert walked.count(id(q.other.cond.arg)) == 1
    for g, e in zip(got, roots):
        assert g.tobytes() == evaluate_array(e, x).tobytes()


@settings(max_examples=400, deadline=None)
@given(_array_expr_text, _array_expr_text, _nodes)
def test_a_walk_over_random_roots_is_one_walk_per_root(q, p, x):
    # q' reuses q's subtrees, which the one walk evaluates once and keeps
    # to its end: each root's bytes, and the first root's error, are those
    # of a walk of that root alone
    q, p = parse(q), parse(p)
    _assert_one_walk_per_root((q, p, differentiate(q)), x)


def _assert_one_walk_per_root(roots, x):
    """A Forest's walk over roots gives each root's bytes, and the first
    failing root's error, of a walk of that root alone, with no warning."""
    want = []
    for e in roots:
        try:
            want.append(evaluate_array(e, x).tobytes())
        except Exception as exc:
            want.append((type(exc), str(exc)))
            break
    got = []
    values = ex.Forest(roots).evaluate(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            for _ in roots:
                got.append(next(values).tobytes())
        except Exception as exc:
            got.append((type(exc), str(exc)))
    assert got == want


def _kinds(cls):
    """The node kinds under cls: the classes without subclasses, which
    leaves out the record that kinds of one field shape share."""
    subclasses = cls.__subclasses__()
    return [kind for sub in subclasses for kind in _kinds(sub)] or [cls]


# every node type that can be parsed, that is all but the bare comparison,
# legal only as an if-condition, and the derivative placeholder, which
# raises wherever it is evaluated and has no text
_PARSED_NODES = sorted(set(_kinds(ex.Expression)) - {ex.Cmp, ex._NonDiff},
                       key=lambda node: node.__name__)


def test_every_parsed_node_kind_is_a_test_input():
    # Add, Sub, Mul and Div share one record, and so do Neg and the
    # one-argument functions; each kind is still a node type of its own
    assert [node.__name__ for node in _PARSED_NODES] == [
        "Abs", "Add", "Const", "Cos", "Div", "Exp", "If", "Mod", "Mul",
        "Neg", "Neg1Pow", "Pow", "Sin", "Sqrt", "Sub", "Var"]


@pytest.mark.parametrize("node", _PARSED_NODES, ids=lambda n: n.__name__)
def test_every_node_type_has_every_rule(node):
    # t for every child, 2 for every number and lt(t, 1.5) as a condition
    fields = {"Expression": ex.Var(), "float": 2.0,
              "Cmp": ex.Cmp("lt", ex.Var(), 1.5)}
    args = [fields[f.type] for f in dataclasses.fields(node)]
    e = node(*args)
    x = [1.0, 2.0]
    want = [expr_reference.evaluate(e, t) for t in x]
    assert [evaluate(e, t) for t in x] == pytest.approx(want, rel=1e-15)
    assert list(evaluate_array(e, x)) == pytest.approx(want, rel=1e-15)
    assert isinstance(differentiate(e), ex.Expression)
    assert parse(serialize(e)) == e
    # a dataclass of its own kind: fields, repr, replace, equality and
    # hashing by kind and fields, frozen on every name
    names = [f.name for f in dataclasses.fields(e)]
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, args))
    assert repr(e) == f"{node.__name__}({shown})"
    assert dataclasses.replace(e) == e == node(*args)
    assert type(dataclasses.replace(e)) is node
    assert hash(e) == hash(node(*args)) == hash(tuple(args))
    for other in _PARSED_NODES:
        if other is not node and [f.name for f in dataclasses.fields(
                other)] == names:
            assert e != other(*args) and not e == other(*args)
    for name in names + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, name, ex.Var())
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(e, name)
    assert vars(e) == dict(zip(names, args))


# -- evaluate against the recursive reference walk ----------------------------

def _outcome(evaluator, e, t):
    """The value's hex digits, or the exception's type and message."""
    try:
        return evaluator(e, t).hex()
    except Exception as exc:
        return type(exc), str(exc)


def _assert_walk_equal(e, ts):
    """evaluate raises the reference walk's exception at each t, class and
    message, and gives its value bit for bit, or within _slack's bound
    where numpy's sin, cos, exp or power differs in the last ulp; so may
    the argument an error's message prints (``_assert_same_error``)."""
    for t in ts:
        want = _outcome(expr_reference.evaluate, e, t)
        got = _outcome(evaluate, e, t)
        if got == want:
            continue
        if isinstance(want, tuple):
            _assert_same_error(e, t, got, want)
            continue
        assert isinstance(got, str), (t, got)
        v, s = _slack(e, t)
        assert abs(float.fromhex(got) - v) <= s, (t, got, want)


def _assert_same_error(e, t, got, want):
    """got has want's class and message text, but for the failing node's
    argument that the message prints, which may differ from the walk's
    within the argument's _slack: exp(3.1129758167182704) prints as
    22.487864692675586 from numpy's exp and 22.48786469267559 from the
    math module's."""
    assert isinstance(got, tuple) and got[0] is want[0], (t, got, want)
    with pytest.raises(want[0]) as info:
        _slack(e, t)
    a, s = getattr(info.value, "argument", (None, 0.0))
    head, printed, tail = want[1].partition(str(a))
    assert s and printed, (t, got, want)  # no slack, no difference
    assert got[1].startswith(head) and got[1].endswith(tail), (t, got, want)
    printed = got[1][len(head):len(got[1]) - len(tail)]
    assert abs(float(printed) - a) <= s, (t, got, want)


def _system_nodes(spec):
    """The nodes of the series grid's panels and of the bound's sample,
    with the dense ends nudged inward as the grids sample them, the
    scattered points and their successors."""
    from tsfloquet.floquet import _SeriesEngine, solve_phi

    ts = [x for t, mu in spec.ts.scattered_with_mu() for x in (t, t + mu)]
    engine = _SeriesEngine(solve_phi(spec))
    if engine.rows:
        x, _, _, _, real = engine.bound
        for panels, row, last, (a, b) in zip(
                engine.x, x, real, dense_intervals(spec.ts)):
            eps = (b - a) * 1e-9
            ts += panels.tolist() + row[last].tolist() + [a + eps, b - eps]
    return ts


def _assert_system_walk_equal(spec):
    ts = _system_nodes(spec)
    for e in (spec.p, spec.q, spec.qprime):
        _assert_walk_equal(e, ts)


_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs")
                  .rglob("*.cfg"))


@pytest.mark.parametrize("path", _CONFIGS, ids=lambda p: p.stem)
def test_closures_match_the_walk_on_committed_configs(path):
    _assert_system_walk_equal(build_system(load_config(path)))


@pytest.mark.parametrize("system", [
    ("hybrid", 1, 10, "gentle"), ("hybrid", 2, 10, "gentle"),
    ("hybrid", 1, 100, "gentle"), ("hybrid", 3, 100, "steep"),
    ("discrete", 1, 16), ("discrete", 2, 200)], ids=str)
def test_closures_match_the_walk_on_workload_systems(workloads, tmp_path,
                                                     system):
    kind, seed, size, *geometry = system
    rng = random.Random(seed)
    if kind == "hybrid":
        text = workloads.hybrid_system(rng, "h", size, seed % 2 == 1,
                                       *geometry).text
    else:
        text = workloads.discrete_system(rng, "d", size).text
    cfg = tmp_path / "system.cfg"
    cfg.write_text(text)
    _assert_system_walk_equal(build_system(load_config(cfg)))


@pytest.mark.parametrize("seed", range(8))
def test_closures_match_the_walk_on_random_systems(seed):
    _assert_system_walk_equal(random_discrete_system(seed))
    _assert_system_walk_equal(random_hybrid_system(seed))


_huge = "t * 1e300 * 1e300"


@pytest.mark.parametrize("e, t", [
    (parse("1 / (t - 1)"), 1.0),
    # the denominator is evaluated first, so its error wins
    (parse("sqrt(t - 2) / (t - 1)"), 1.0),
    (parse("sqrt(t - 5) / sqrt(t - 3)"), 1.0),
    (parse("sqrt(t - 2)"), 1.0),
    (parse("(t - 2) ^ 0.5"), 1.0),  # complex
    (parse("t ^ (0 - 1)"), 0.0),  # zero to a negative power
    (parse("(t * 1e200) ^ 2"), 1.0),  # overflow
    (parse(f"sin({_huge})"), 1.0),
    (parse(f"cos({_huge})"), 1.0),
    (parse("exp(1000 * t)"), 1.0),
    (parse("mod(t, 0)"), 1.0),
    (parse("neg1pow(t)"), 0.5),
    (parse(f"neg1pow({_huge})"), 1.0),
    (parse(f"neg1pow({_huge} - {_huge})"), 1.0),
    (differentiate(parse("mod(t, 2)")), 0.5),
    (differentiate(parse("neg1pow(t) + t")), 1.0),
    # unknown nodes: a bare comparison, a non-node child, a non-node, and
    # an unknown comparison, raised after its argument is evaluated
    (ex.Cmp("lt", ex.Var(), 1.0), 0.0),
    (ex.Add(ex.Var(), 2.0), 0.0),
    (3.0, 0.0),
    (ex.If(ex.Cmp("ne", ex.Var(), 1.0), ex.Const(1.0), ex.Const(2.0)), 0.0),
    (ex.If(ex.Cmp("ne", parse("1 / t"), 1.0), ex.Const(1.0), ex.Const(2.0)),
     0.0),
])
def test_closures_raise_what_the_walk_raises(e, t):
    # the array walk's recorded errors name what the reference walk raises
    want = _outcome(expr_reference.evaluate, e, t)
    assert isinstance(want, tuple)
    assert _outcome(evaluate, e, t) == want


@pytest.mark.parametrize("text", [
    "if(lt(t, 10), t, sqrt(0 - 1))",
    "if(gt(t, 10), 1 / (t - 1), t)",
    "if(eq(t, 2), mod(t, 0), t)",
    "if(ge(t, 1.5), exp(1000 * t), t)",
    "if(le(t, 0), neg1pow(t + 0.5), t)",
])
def test_an_untaken_branch_does_not_raise(text):
    assert evaluate(parse(text), 1.0) == 1.0


@pytest.mark.parametrize("op", ["eq", "lt", "le", "gt", "ge"])
def test_closures_compare_at_the_tolerance_edge(op):
    # |t - 0| equals the tolerance 1e-12 max(1, |t|) at t = +-1e-12
    e = parse(f"if({op}(t, 0), 1, 2)")
    edge = [s * 1e-12 * f for s in (1.0, -1.0)
            for f in (1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53)]
    _assert_walk_equal(e, edge + [0.0, math.nan, math.inf, -math.inf])


# the branch if(op(t, 0), 1, 2) takes at t = s 1e-12 f, for s = +1 then
# -1 and f = 1, 1 + 2^-52, 1 - 2^-53 (a product that rounds to 1e-12)
_EDGE_BRANCHES = {
    "eq": [1, 2, 1, 1, 2, 1],
    "lt": [2, 2, 2, 2, 1, 2],
    "le": [1, 2, 1, 1, 1, 1],
    "gt": [2, 1, 2, 2, 2, 2],
    "ge": [1, 1, 1, 1, 2, 1],
}


@pytest.mark.parametrize("op", sorted(_EDGE_BRANCHES))
def test_comparisons_take_the_stated_branch_at_the_edge(op):
    e = parse(f"if({op}(t, 0), 1, 2)")
    edge = [s * 1e-12 * f for s in (1.0, -1.0)
            for f in (1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53)]
    want = [float(b) for b in _EDGE_BRANCHES[op]]
    assert [evaluate(e, t) for t in edge] == want
    assert list(evaluate_array(e, np.array(edge))) == want


@settings(max_examples=300, deadline=None)
@given(_array_expr_text, st.floats(allow_nan=True, allow_infinity=True))
@example("if(lt(1, 2), 1, 2)", math.nan)
@example("(-if(lt(0.0, 0.5), t, sqrt(0.0)))", math.nan)
@example("neg1pow(exp(3.1129758167182704))", 0.0)  # numpy's exp is an ulp off
def test_closures_match_the_walk(text, t):
    _assert_walk_equal(parse(text), [t])


@settings(max_examples=300, deadline=None)
@given(_array_expr_text, st.floats(allow_nan=True, allow_infinity=True))
def test_evaluate_is_one_node_of_evaluate_array(text, t):
    e = parse(text)
    assert _outcome(evaluate, e, t) == _outcome(
        lambda e, t: evaluate_array(e, [t])[0], e, t)


@pytest.mark.parametrize("text, want", [
    ("if(lt(1, 2), 1, 2)", 1.0),
    ("(-if(lt(0.0, 0.5), t, sqrt(0.0)))", math.nan),
])
def test_a_nan_t_compares_within_the_tolerance_at_one(text, want):
    # the tolerance 1e-12 max(1, |t|) is 1e-12 at a NaN t, as Python's max
    # takes it, not NaN, which fails every comparison
    e = parse(text)
    assert expr_reference.evaluate(e, math.nan).hex() == want.hex()
    assert evaluate_array(e, [0.0, math.nan])[1].hex() == want.hex()


def test_equality_hash_and_pickle_see_the_fields_only():
    e = parse("if(eq(t, 1), 2, sin(t) * t)")
    twin = parse("if(eq(t, 1), 2, sin(t) * t)")
    evaluate(e, 1.0)  # evaluating leaves nothing on the nodes
    assert e == twin and hash(e) == hash(twin)
    again = pickle.loads(pickle.dumps(e))
    assert again == e and vars(again) == vars(e)
    assert evaluate(again, 0.5) == evaluate(e, 0.5)


def test_threads_building_one_tree_agree_with_the_walk():
    # every thread evaluates the same trees as the others at the same
    # time; each evaluation keeps its state in its own walk, so state
    # shared between threads shows as a value or error unlike the one a
    # single thread gets
    texts = ["if(eq(mod(t, 1.0), 0.8), 1.5, (1.02 + 0.07*cos(2*pi*t))^2)",
             "0.3 + 0.01*sin(2*pi*t/10.0) / sqrt(t)", "neg1pow(t) * exp(t)"]
    ts = [0.0, 0.8, 1.0, 2.5, 7.8, -3.0]
    trees = [[parse(text) for text in texts] for _ in range(20)]
    want = [[_outcome(evaluate, e, t) for t in ts] for e in trees[0]]
    mismatches = []

    def work():
        for row in trees:
            got = [[_outcome(evaluate, e, t) for t in ts] for e in row]
            if got != want:
                mismatches.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert mismatches == []


def test_building_recurses_no_deeper_than_evaluating():
    # the parser builds a flat sum in a loop, and every pass walks it in
    # one, so a sum far longer than the recursion limit is walked; what a
    # pass recurses through is the nesting the parser recursed through, one
    # frame a level for the deepest run of unary minus signs it takes
    n = 10 * sys.getrecursionlimit()
    e = parse(" + ".join(["t"] * n))
    assert evaluate(e, 0.5) == n / 2 and not is_constant(e)
    assert evaluate(differentiate(e), 0.5) == n
    assert serialize(e) == "(" + " + ".join(["t"] * n) + ")"
    k = sys.getrecursionlimit()
    while True:
        try:
            e = parse("-" * k + "sin(t)")
            break
        except ExpressionSyntaxError:
            k -= 10
    assert k > sys.getrecursionlimit() // 2
    sign = -1.0 if k % 2 else 1.0
    assert evaluate(e, 0.5) == sign * math.sin(0.5)
    assert evaluate(differentiate(e), 0.5) == sign * math.cos(0.5)
    assert list(ex.Forest((e, differentiate(e))).evaluate([0.5]))[0] == \
        evaluate(e, 0.5)
    assert serialize(e) == "(" + "-" * k + "sin(t)" + ")"


# -- long chains: the one shape of unbounded depth ---------------------------

# each operand's value on the nodes x but a number's, which is 0-d; 0
# reaches a division by zero, and sqrt(t - c) fails at t < c naming its
# argument, so two of them failing at one node show which the walk met
# first
_CHAIN_OPERANDS = {"t": lambda x: x, "sin(t)": np.sin,
                   "sqrt(t - 1)": lambda x: np.sqrt(x - 1.0),
                   "sqrt(t - 2)": lambda x: np.sqrt(x - 2.0),
                   "0": None, "1.5": None, "0.25": None}
_SQRT_SHIFTS = {"sqrt(t - 1)": 1.0, "sqrt(t - 2)": 2.0}


def _operand(v, x):
    f = _CHAIN_OPERANDS.get(v)
    return np.float64(float(v)) if f is None else f(x)
_CHAIN_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}


def _chain_fold(operands, ops, x):
    """The bytes of operands joined by ops on the nodes x, or the type and
    message of the error that the recursive walk raises first. The terms,
    each a left fold of its operands by * and /, are left-folded by + and
    -. In a term the walk tests each division's denominator, from the last
    division to the first, then the first operand and the other right
    operands from the left; it raises the first error at the lowest
    failing node."""
    with np.errstate(all="ignore"):
        values = [_operand(v, x) for v in operands]
    terms = [[0]]  # each term's operand positions
    for k, op in enumerate(ops, 1):
        if op in "+-":
            terms.append([k])
        else:
            terms[-1].append(k)
    errors = []
    for term in terms:
        divisions = [k for k in term[:0:-1] if ops[k - 1] == "/"]
        for k in divisions + [term[0]] + [
                k for k in term[1:] if ops[k - 1] != "/"]:
            arg = x - _SQRT_SHIFTS.get(operands[k], 0.0)
            if operands[k] in _SQRT_SHIFTS and (arg < 0).any():
                i = int(np.argmax(arg < 0))
                errors.append((i, f"sqrt of negative value {float(arg[i])} "
                                  f"at t={float(x[i])}"))
            zero = np.broadcast_to(values[k], x.shape) == 0.0
            if k in divisions and zero.any():
                t = float(x[np.argmax(zero)])
                errors.append((int(np.argmax(zero)),
                               f"division by zero at t={t}"))
    if errors:
        return DomainError, min(errors, key=operator.itemgetter(0))[1]
    acc = None
    with np.errstate(all="ignore"):
        for term in terms:
            v = values[term[0]]
            for k in term[1:]:
                v = _CHAIN_OPS[ops[k - 1]](v, values[k])
            acc = v if acc is None else _CHAIN_OPS[ops[term[0] - 1]](acc, v)
    return np.broadcast_to(acc, x.shape).astype(float).tobytes()


def _chain_text(operands, ops):
    return operands[0] + "".join(
        f" {op} {v}" for op, v in zip(ops, operands[1:]))


def _array_outcome(e, x):
    try:
        return evaluate_array(e, x).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1000, max_value=3000),
       st.sets(st.sampled_from(sorted(_CHAIN_OPERANDS)), min_size=1),
       st.sets(st.sampled_from("-*/"), max_size=3),
       st.randoms(use_true_random=False), _nodes)
# both square roots fail at the first node, so the first error shows the
# walk's order
@example(2000, set(_CHAIN_OPERANDS), {"-", "*", "/"}, random.Random(1),
         [0.5, 2.5])
@example(1000, {"sqrt(t - 1)", "sqrt(t - 2)", "t"}, {"/"}, random.Random(2),
         [0.0])
def test_long_chains_are_their_left_folds(n, operands, ops, rng, xs):
    # a chain of 1000 to 3000 operands, which the recursive walks met with
    # RecursionError; + among the operators keeps each run of * and /, a
    # chain of its own, short enough for the walk of q' alone
    operands = rng.choices(sorted(operands), k=n)
    ops = rng.choices(sorted(ops | {"+"}), k=n - 1)
    x = np.array(xs)
    q = parse(_chain_text(operands, ops))
    want = _chain_fold(operands, ops, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _array_outcome(q, x) == want
    p = parse(_chain_text(operands[::-1], ops))
    _assert_one_walk_per_root((q, p, differentiate(q)), x)
    # compared as text: the dataclasses' generated ==, hash and repr
    # recurse once a level
    text = serialize(q)
    assert serialize(parse(text)) == text


@pytest.mark.parametrize("op", ["*", "/"])
def test_long_product_and_quotient_chains(op):
    # 3000 factors and their derivative, a chain of its own that reads
    # each partial product: the walk of q and q' together is the forward
    # fold of the derivative rules, (uv)' = u'v + uv' and
    # (u/v)' = (u'v - uv') / (v v), with t' = 1 and c' = 0
    rng = random.Random(3)
    operands = rng.choices(["t", "1.0001", "0.9999"], k=3000)
    x = np.array([0.9995, 1.0, 1.0004])
    q = parse(_chain_text(operands, [op] * 2999))
    assert _array_outcome(q, x) == _chain_fold(operands, [op] * 2999, x)
    acc, d = _operand(operands[0], x), np.float64(operands[0] == "t")
    for v in operands[1:]:
        r, dr = _operand(v, x), np.float64(v == "t")
        if op == "*":
            d = d * r + acc * dr
        else:
            d = (d * r - acc * dr) / (r * r)
        acc = _CHAIN_OPS[op](acc, r)
    got = list(ex.Forest((q, differentiate(q))).evaluate(x))
    assert got[0].tobytes() == np.broadcast_to(acc, x.shape).tobytes()
    assert got[1].tobytes() == np.broadcast_to(d, x.shape).tobytes()
    text = serialize(q)
    assert serialize(parse(text)) == text

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tsfloquet import differentiate, evaluate, parse, serialize
from tsfloquet import expr as ex
from tsfloquet.errors import (
    DomainError,
    ExpressionSyntaxError,
    NonConstantExponent,
    NonDifferentiableNode,
    NonIntegerNeg1Pow,
)
from tsfloquet.expr import const_value, evaluate_array, is_constant


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
        f"({a} + {b})", f"({a} - {b})", f"({a} * {b})",
        f"sin({a})", f"cos({a})", f"(({a}) ^ 2)", f"abs({a})",
    ])


_expr_text = st.recursive(
    _leaf, lambda inner: st.tuples(inner, inner).flatmap(_combine),
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(_expr_text, st.floats(min_value=-3, max_value=3, allow_nan=False))
def test_serialize_roundtrip(text, t):
    e = parse(text)
    again = parse(serialize(e))
    assert serialize(again) == serialize(e)
    assert evaluate(again, t) == evaluate(e, t)


# -- array evaluator ---------------------------------------------------------

def _combine_array(children):
    """_combine plus the nodes that can raise or take one branch only."""
    a, b = children
    return st.one_of(_combine(children), st.sampled_from([
        f"({a} / {b})", f"sqrt({a})", f"exp({a})", f"(({a}) ^ 0.5)",
        f"(({a}) ^ (0 - 1))", f"mod({a}, 1.5)", f"neg1pow({a})",
        f"if(lt({a}, 0.5), {b}, sqrt({a}))",
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
    """(evaluate(e, t), s), where s bounds |evaluate_array(e, [t])[0] -
    evaluate(e, t)| to first order: +, -, *, /, sqrt, abs and mod round
    alike in both evaluators, each sin, cos, exp and power may differ by
    _EPS relative, and a differing input rounds its result by up to _EPS.

    Raises what ``evaluate`` raises at t, because the children are walked
    in the scalar order before their parent is evaluated, and _Ambiguous
    where an input's slack could flip a branch or a domain check.
    """
    def rounded(v, s):
        return s + _EPS * abs(v) if s else 0.0

    if isinstance(e, ex.If):
        c, sc = _slack(e.cond.arg, t)
        tol = 1e-12 * max(1.0, abs(t))
        _near(c, e.cond.ref - tol, sc)
        _near(c, e.cond.ref + tol, sc)
        return _slack(e.then if ex._cmp(e.cond, t) else e.other, t)
    if isinstance(e, ex.Div):
        b, sb = _slack(e.right, t)
        _near(b, 0.0, sb)
        if b == 0.0:
            evaluate(e, t)  # raises before the numerator is walked
        a, sa = _slack(e.left, t)
        v = evaluate(e, t)
        return v, rounded(v, (sa + abs(v) * sb) / (abs(b) - sb))
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul)):
        a, sa = _slack(e.left, t)
        b, sb = _slack(e.right, t)
        v = evaluate(e, t)
        s = sa * abs(b) + sb * abs(a) + sa * sb if isinstance(e, ex.Mul) \
            else sa + sb
        return v, rounded(v, s)
    if isinstance(e, (ex.Const, ex.Var, ex._NonDiff)) or (
            isinstance(e, ex.Mod) and e.modulus == 0.0):
        return evaluate(e, t), 0.0
    a, sa = _slack(e.arg if not isinstance(e, ex.Pow) else e.base, t)
    if isinstance(e, ex.Sqrt):
        _near(a, 0.0, sa)
        v = evaluate(e, t)
        return v, rounded(v, math.sqrt(a + sa) - math.sqrt(a - sa) if sa
                          else 0.0)
    if isinstance(e, ex.Mod):
        v = evaluate(e, t)
        _near(v, 0.0, sa)
        _near(v, e.modulus, sa)
        return v, rounded(v, sa)
    if isinstance(e, ex.Neg1Pow):
        if sa and math.isfinite(a):
            _near(abs(a - round(a)), 1e-9, sa)
        return evaluate(e, t), 0.0
    if isinstance(e, ex.Pow):
        _near(a, 0.0, sa)
    v = evaluate(e, t)
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
            [evaluate(e, t) for t in xs]
        assert type(info.value) is type(exc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Exception) as info:
                evaluate_array(e, xs)
        assert type(info.value) is type(exc)
        return
    values = np.array([v for v, _ in want])
    assert np.array_equal(values, [evaluate(e, t) for t in xs],
                          equal_nan=True)
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
    # scalar loop, which stops at the first node
    e = parse("neg1pow(t) + 1 / t")
    for ev in (lambda: [evaluate(e, t) for t in (0.0, 1.5)],
               lambda: evaluate_array(e, [0.0, 1.5])):
        with pytest.raises(DomainError, match=r"t=0\.0\b"):
            ev()


def test_evaluate_array_comparison_tolerance():
    # 1e-12 relative to max(1, |t|), the tolerance of the scalar walk
    e = parse("if(eq(t, 1), 5, 0)")
    x = [1.0 + 1e-13, 1.0 + 1e-10, 1.0 - 1e-13, 1.0 - 1e-10]
    assert list(evaluate_array(e, x)) == [evaluate(e, t) for t in x] \
        == [5.0, 0.0, 5.0, 0.0]
    e = parse("if(lt(t, 1e6), 1, 2)")
    x = [1e6 - 1e-7, 1e6 - 1e-5]
    assert list(evaluate_array(e, x)) == [evaluate(e, t) for t in x] \
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

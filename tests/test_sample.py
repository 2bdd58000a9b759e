"""The checked sample of p and q at the scattered points and dense starts.

``validate_system`` samples them with one ``evaluate_array`` call per
coefficient and set of points and checks them with array masks; these tests
hold it to the per-point loop it replaced (``reference_sample``), and check
that a valid analysis never calls the scalar ``expr.evaluate``.
"""
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tsfloquet import analyze, parse
from tsfloquet import expr as ex
from tsfloquet.cli import build_system, load_config
from tsfloquet.errors import DomainError
from tsfloquet.floquet import validate_system

from calculus_reference import dense_intervals, p_at, reference_sample
from conftest import random_discrete_system, random_hybrid_system
from report_digest import ROWS

ROOT = Path(__file__).resolve().parent.parent
NAN = "0*(1e200*1e200 - 1e200*1e200)"  # inf - inf, with no expression error
INF = "1e200*1e200"

# (coefficient, where, test, value): a failure injected at a scattered
# point or dense start tau, where t equals tau ("eq"), or at every t from
# tau on ("ge"); "regressive" is the q that makes 1 - mu p + mu^2 q vanish
# there, and "sqrt" adds 0 sqrt(tau - t), which fails at every t past tau
INJECTIONS = [
    ("p", "point", "eq", NAN), ("p", "point", "eq", INF),
    ("p", "point", "eq", f"-{INF}"), ("q", "point", "eq", NAN),
    ("q", "point", "eq", INF), ("q", "point", "eq", "regressive"),
    ("q", "point", "eq", "0"), ("q", "point", "eq", "1e-14"),
    ("q", "point", "eq", "-1e-300"), ("q", "start", "eq", "0"),
    ("q", "start", "eq", "-0.5"), ("q", "start", "eq", f"-{INF}"),
    ("q", "start", "eq", NAN), ("q", "start", "eq", INF),
    ("p", "point", "ge", NAN), ("q", "point", "ge", "0"),
    ("q", "start", "ge", "-0.5"), ("q", "start", "ge", NAN),
    ("p", "point", "eq", "sqrt"), ("q", "point", "eq", "sqrt"),
    ("q", "start", "eq", "sqrt"),
]


def _outcome(sample, spec):
    """The sample's p, q, step factors and sqrt(q) at the dense starts,
    floats by ``hex``, or the type and message of what it raises."""
    try:
        got = sample(spec)
    except Exception as exc:
        return type(exc), str(exc)
    if dataclasses.is_dataclass(got):  # its columns, not the system
        got = got.p, got.q, got.factor, got.starts
    return [[float(v).hex() for v in c] for c in got]


def _inject(spec, coefficient, test, value, tau, mu):
    """spec with ``value`` put into p or q where ``test``(t, tau) holds."""
    e = getattr(spec, coefficient)
    if value == "sqrt":
        e = ex.Add(e, parse(f"0*sqrt({tau!r} - t)"))
    else:
        if value == "regressive":  # 1 + mu (-p + mu q) = 0
            value = repr((mu * p_at(spec, tau) - 1.0) / (mu * mu))
        e = dataclasses.replace(
            parse(f"if({test}(t, {tau!r}), {value}, 0)"), other=e)
    return dataclasses.replace(spec, **{coefficient: e, "qprime": None})


@pytest.mark.parametrize("coefficient, where, test, value", INJECTIONS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 99), hybrid=st.booleans(), data=st.data())
def test_sample_matches_the_per_point_reference(coefficient, where, test,
                                                value, seed, hybrid, data):
    # the array sample equals the scalar loop's bit for bit, and a failure
    # of one kind raises the loop's class and message at its first t
    spec = (random_hybrid_system(seed) if hybrid
            else random_discrete_system(seed, max_points=40))
    assert _outcome(validate_system, spec) == _outcome(reference_sample, spec)
    places = (spec.ts.scattered_with_mu() if where == "point" else
              [(a, 0.0) for a, _ in dense_intervals(spec.ts)])
    if not places:  # a discrete scale has no dense start
        return
    tau, mu = data.draw(st.sampled_from(places))
    spec = _inject(spec, coefficient, test, value, tau, mu)
    want = _outcome(reference_sample, spec)
    assert _outcome(validate_system, spec) == want
    if value != "sqrt" and (test == "eq" or where == "point"):
        assert isinstance(want[0], type)  # the injection failed
        assert f"t={tau}" in want[1] or f"q({tau})" in want[1]


def test_p_errors_are_raised_before_q_errors(tmp_path):
    # q fails at t = 1 and p only at t = 2: the per-point loop evaluated p
    # and q at 1 before p at 2, and named q; p is now sampled at every
    # point before q at any
    config = tmp_path / "p_before_q.cfg"
    config.write_text(ROWS["p before q"])
    spec = build_system(load_config(config))
    with pytest.raises(DomainError) as loop:
        reference_sample(spec)
    assert str(loop.value) == "sqrt of negative value -0.5 at t=1.0"
    with pytest.raises(DomainError) as exc:
        analyze(spec)
    assert str(exc.value) == "sqrt of negative value -0.5 at t=2.0"


def test_a_nan_q_at_a_dense_start_is_named_when_sampled(tmp_path):
    # p is NaN on [0, 0.5), and q at the dense start 2 only: the per-point
    # loop named p's NaN at a node of B's quadrature, earlier in time, as
    # it named a NaN q at a dense start only where the series read it
    config = tmp_path / "nan_start.cfg"
    config.write_text(ROWS["nan dense start"])
    spec = build_system(load_config(config))
    with pytest.raises(DomainError) as exc:
        analyze(spec)
    assert str(exc.value) == "q = nan is not finite at t=2.0 on a dense part"


def _analyses(workloads, tmp_path):
    """(spec, n, use_shi): the 16 committed configs at their own n,
    at n = 8 and, where continuous, with --shi; random_hybrid_system and
    random_discrete_system seeds 0-31 at their default n; and every
    operation of the four benchmark workloads at seed 1."""
    config = tmp_path / "system.cfg"

    def build(text):
        config.write_text(text)
        loaded = load_config(config)
        return build_system(loaded), loaded.n

    for name in workloads.COMMITTED_CONFIGS:
        spec, n = build((ROOT / "configs" / f"{name}.cfg").read_text())
        yield spec, n, False
        yield spec, 8, False
        if spec.ts.is_continuous:
            yield spec, n, True
    for seed in range(32):
        yield random_hybrid_system(seed), None, False
        yield random_discrete_system(seed), None, False
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 1, ROOT)
        texts = {s.name: s.text for s in wl.systems}
        for op in wl.ops:
            spec, n = build(texts[op.system])
            yield spec, n if op.n is None else op.n, op.use_shi


def test_analyze_makes_no_scalar_evaluation(workloads, tmp_path, monkeypatch):
    # every coefficient value an analysis reads comes from evaluate_array
    analyses = list(_analyses(workloads, tmp_path))
    assert len(analyses) > 150

    def scalar(e, t):
        raise AssertionError(f"scalar evaluate at t={t}")

    monkeypatch.setattr(ex, "evaluate", scalar)
    for spec, n, use_shi in analyses:
        analyze(spec, n=n, use_shi=use_shi)


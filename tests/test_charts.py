import random

import pytest

from tsfloquet import SystemSpec, Verdict, analyze, parse
from tsfloquet.timescale import Interval, PeriodicTimeScale, validate

import charts


def test_mathieu_characteristic_values_at_q_one():
    # DLMF 28.2, Table 28.17.1 (McLachlan 1947) at q = 1
    a, b = charts.characteristic_values(1.0)
    assert a[:3] == pytest.approx([-0.45513860, 1.85910807, 4.37130098],
                                  abs=1e-8)
    assert b[1:3] == pytest.approx([-0.11024882, 3.91702477], abs=1e-8)


@pytest.mark.parametrize("n, decided_at_least", [(3, 331), (8, 436)])
def test_mathieu_chart(n, decided_at_least):
    # B = 1 exactly: a decided verdict is stable or unstable as the
    # characteristic values say, and never exponentially stable
    chart = charts.mathieu_chart()
    assert len(chart) == 498
    decided = contradicted = 0
    for (a, c), want in chart:
        got = analyze(charts.mathieu_system(a, c), n=n).verdict
        if got is not Verdict.UNDETERMINED:
            decided += 1
            contradicted += got is not want
    print(f"Mathieu chart at n = {n}: {decided} of {len(chart)} decided, "
          f"{contradicted} contradicted")
    assert contradicted == 0
    assert decided >= decided_at_least


def test_conservative_systems_are_never_exponentially_stable():
    # B = 1, which compute_B may round to either side of 1
    verdicts = [
        analyze(charts.conservative_system(random.Random(seed)), n=8).verdict
        for seed in range(300)]
    assert Verdict.EXPONENTIALLY_STABLE not in verdicts


@pytest.mark.xfail(strict=True, reason=(
    "compute_B's value lands 9-12 ulps above 1, outside _B_ROUNDING, so "
    "|B| > 1 reads unstable; ROADMAP item 5's B enclosure would contain 1"))
@pytest.mark.parametrize("seed", [248, 527, 1710])
def test_conservative_systems_outside_the_B_band_are_not_unstable(seed):
    # the integral of p is 0, so B = 1, and the oracle's traces (0.43, 2.00
    # and -1.13) leave the verdict open; none of them is unstable
    spec = charts.conservative_system(random.Random(seed))
    assert analyze(spec, n=8).verdict is not Verdict.UNSTABLE


@pytest.mark.xfail(strict=True, reason=(
    "B's quadrature error puts compute_B 11 and 28 ulps above 1, outside "
    "_B_ROUNDING, so |B| > 1 reads unstable; ROADMAP item 5's B enclosure "
    "would contain 1"))
@pytest.mark.parametrize("period, amp", [(100.0, 0.3), (1e4, 0.01)])
def test_long_conservative_periods_are_not_unstable(period, amp):
    # p = amp sin(2 pi t / T) and q = 1 on [0, T]: the integral of p is 0,
    # so B = 1, and the oracle's traces (0.9136 and -1.9388) are stable
    ts = validate(PeriodicTimeScale(0, period, [Interval(0, period)]))
    spec = SystemSpec(ts, parse(f"{amp}*sin(2*pi*t/{period})"), parse("1"))
    assert analyze(spec, n=8).verdict is not Verdict.UNSTABLE

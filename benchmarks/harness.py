"""One operation, its deadline, its failure cause and its certificate check.

An operation is one ``cli.run(config, n=..., use_shi=..., oracle=...,
as_json=True)`` call. It fails when it

* raises a ``TsfloquetError`` (``refused``),
* raises any other exception (``crash``),
* runs past the workload's deadline (``deadline``), enforced with
  ``signal.setitimer``; the expensive loops are pure Python, so the alarm
  interrupts them between bytecodes,
* returns an exit code that disagrees with its verdict, or a result the
  reference contradicts (``certificate``).

Only the ``cli.run`` call is timed; the check runs after the clock stops.

The speed of the shared machine this benchmark was built on drifts by a
third within seconds, and the drift is common to interpreted code: over
three minutes, the quartile distance of the 20-second medians of a Mathieu
operation was 0.20 of their median, and 0.03 once each time was divided by
that of a fixed pure-Python workload timed beside it (0.16 and 0.05 for an
exact k = 12 discrete operation; measured with a version of ``calibrate``
that walks 16 indices instead of 24). So the harness times that workload
(``calibrate``) just before and just after each operation, and every time
it reports is the measured time scaled by CAL_NOMINAL_S over the mean of
the two: milliseconds at the speed at which the workload takes
CAL_NOMINAL_S. Raw times are reported beside them.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
import signal
import statistics
import time
import warnings
from dataclasses import dataclass

CAUSES = ("deadline", "refused", "crash", "certificate")
DECIDED = ("stable", "exponentially stable", "unstable")
_EXIT = {"stable": 0, "exponentially stable": 0, "unstable": 1,
         "undetermined": 2}
CAL_ITERATIONS = 20_000
CAL_NOMINAL_S = 2.8e-3
_CAL_MATRIX = [[0.5 + (i * 24 + j) % 7 / 7.0 for j in range(24)]
               for i in range(24)]
# tolerances on top of the reported truncation bound, relative to
# max(1, |reference|)
A_RTOL = 1e-6
B_RTOL = 1e-6


class Deadline(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python workload: the machine's speed now.

    A float loop plus index triples walked through a nested list, the kind
    of work the evaluator and the tuple enumeration do.
    """
    start = time.perf_counter()
    x = 0.0
    for i in range(CAL_ITERATIONS):
        x += i * 0.5
    for combo in itertools.combinations(range(24), 3):
        v = 1.0
        for a, b in zip(combo, combo[1:]):
            v *= _CAL_MATRIX[a][b]
        x += v
    return time.perf_counter() - start


@dataclass
class Outcome:
    label: str
    seconds: float
    status: str  # "ok" or one of CAUSES
    decided: bool = False
    detail: str = ""
    phi_warnings: int = 0
    calib_s: float = CAL_NOMINAL_S  # mean calibrate() before and after

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * CAL_NOMINAL_S / self.calib_s

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def check(out: str, code: int, ref) -> tuple:
    """(passed, decided, reason) for one JSON report against (A_ref, B_ref)."""
    report = json.loads(out)
    a_ref, b_ref = ref
    verdict = report["verdict"]
    if _EXIT.get(verdict) != code:
        return False, False, f"exit code {code} for verdict {verdict!r}"
    a, b = report["A_partial"], report["B"]
    bound = report["err_bound"]["value"]
    if not (math.isfinite(a) and math.isfinite(b)) or math.isnan(bound):
        return False, False, f"non-finite result A={a} B={b} bound={bound}"
    tol_a = A_RTOL * max(1.0, abs(a_ref))
    tol_b = B_RTOL * max(1.0, abs(b_ref))
    if abs(a_ref - a) > bound + tol_a:
        return False, False, (f"|A_ref - A| = {abs(a_ref - a):.3e} > bound "
                              f"{bound:.3e} + tol {tol_a:.1e}")
    if abs(b_ref - b) > tol_b:
        return False, False, f"|B_ref - B| = {abs(b_ref - b):.3e} > {tol_b:.1e}"
    # the verdict must hold for the reference multipliers too
    root = cmath.sqrt(complex(a_ref * a_ref - 4.0 * b_ref))
    largest = max(abs((a_ref - root) / 2.0), abs((a_ref + root) / 2.0))
    wrong = (
        (verdict == "exponentially stable" and largest >= 1.0 + A_RTOL)
        or (verdict == "unstable" and largest <= 1.0 - A_RTOL)
        or (verdict == "stable"
            and (abs(b_ref - 1.0) > tol_b or abs(a_ref) >= 2.0 + tol_a))
    )
    if wrong:
        return False, False, (f"verdict {verdict!r} contradicts reference "
                              f"A={a_ref:.9g} B={b_ref:.9g}")
    return True, verdict in DECIDED, ""


class Runner:
    """Runs operations one at a time (closed loop, one in flight)."""

    def __init__(self, run, refused_error, warning_category, deadline_s):
        self.run = run  # cli.run
        self.refused_error = refused_error  # TsfloquetError
        self.warning_category = warning_category  # PhiDiscontinuityWarning
        self.deadline_s = deadline_s
        signal.signal(signal.SIGALRM, _on_alarm)

    def op(self, label, config, op, ref, tracer=None) -> Outcome:
        before = calibrate()
        if tracer is not None:
            tracer.begin_op(label)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", self.warning_category)
            start = time.perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
                    out, code = self.run(config, n=op.n, use_shi=op.use_shi,
                                         oracle=op.oracle, as_json=True)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Deadline:
                # also reached when the alarm fires while disarming: the
                # operation has then used its whole deadline either way
                result = ("deadline", f"exceeded {self.deadline_s} s")
            except self.refused_error as exc:
                result = ("refused", f"{type(exc).__name__}: {exc}")
            except Exception as exc:  # any other escape is a crash
                result = ("crash", f"{type(exc).__name__}: {exc}")
            else:
                result = None
            seconds = time.perf_counter() - start
        calib = 0.5 * (before + calibrate())
        if tracer is not None:
            tracer.end_op(start, start + seconds)
        warned = sum(issubclass(w.category, self.warning_category)
                     for w in caught)
        common = {"phi_warnings": warned, "calib_s": calib}
        if result is not None:
            return Outcome(label, seconds, result[0], detail=result[1][:200],
                           **common)
        try:
            passed, decided, reason = check(out, code, ref)
        except (ValueError, KeyError, TypeError) as exc:  # malformed report
            passed, decided, reason = False, False, f"unreadable report: {exc}"
        return Outcome(label, seconds, "ok" if passed else "certificate",
                       decided=decided, detail=reason, **common)


def summarize(outcomes) -> dict:
    """End-to-end figures over every attempted operation of a run."""
    n = len(outcomes)
    raw = sorted(o.seconds * 1e3 for o in outcomes)
    lat = sorted(o.scaled_seconds * 1e3 for o in outcomes)
    # highest percentile with at least ten samples above it
    tail_index = max(0, n - 11)
    causes = {c: sum(o.status == c for o in outcomes) for c in CAUSES}
    verified = sum(o.ok for o in outcomes)
    decided = sum(o.ok and o.decided for o in outcomes)
    return {
        "attempted": n,
        "failed": n - verified,
        "causes": causes,
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": lat[tail_index],
        "latency_tail_rank_pct": 100.0 * (tail_index + 1) / n,
        "latency_samples": n,
        # verified operations per second spent inside cli.run
        "systems_per_s": verified / (sum(lat) / 1e3),
        "decided_frac": decided / n,
        "raw_latency_p50_ms": statistics.median(raw),
        "raw_latency_tail_ms": raw[tail_index],
        "raw_systems_per_s": verified / (sum(raw) / 1e3),
        "speed_factor": statistics.median(CAL_NOMINAL_S / o.calib_s
                                          for o in outcomes),
    }

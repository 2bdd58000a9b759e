"""Outside-in tracing: wrap the module attributes the pipeline calls through.

Two kinds of wrapper:

* span wrappers around the pipeline stages record (name, start, end,
  parent, operation) in memory;
* leaf wrappers around hot helpers (``expr.evaluate``, ``tscalc._gk15``,
  ``cumulative_simpson``, ``ValidatedTimeScale.locate``) only add to
  running call, time and sample totals; each span stores how much those
  totals grew while it was open, so a pass keeps a few dozen span records,
  not one per coefficient evaluation.

A target that does not exist (a later refactor removed or renamed it) is
listed in ``absent`` and left alone, and the metrics it fed read 0.
"""
from __future__ import annotations

import importlib
import json
import math
import time
from dataclasses import dataclass, field

# (module, attribute, span name); cli and oracle hold their own references
# to the floquet functions, so each is wrapped where it is looked up
SPANS = (
    ("tsfloquet.cli", "build_system", "cli.build_system"),
    ("tsfloquet.cli", "analyze", "cli.analyze"),
    ("tsfloquet.cli", "cross_check", "cli.cross_check"),
    ("tsfloquet.floquet", "validate_system", "floquet.validate_system"),
    ("tsfloquet.floquet", "solve_phi", "floquet.solve_phi"),
    ("tsfloquet.floquet", "compute_B", "floquet.compute_B"),
    ("tsfloquet.floquet", "_series_terms", "floquet.series"),
    ("tsfloquet.floquet", "error_bound", "floquet.error_bound"),
    ("tsfloquet.floquet", "estimate_bounds", "floquet.estimate_bounds"),
    ("tsfloquet.floquet", "shi_continuous_a", "floquet.shi"),
    ("tsfloquet.oracle", "monodromy", "oracle.monodromy"),
    ("tsfloquet.oracle", "solve_ivp", "oracle.solve_ivp"),
    ("tsfloquet.oracle", "solve_phi", "oracle.solve_phi"),
    ("tsfloquet.oracle", "a_partial", "oracle.a_partial"),
    ("tsfloquet.oracle", "compute_B", "oracle.compute_B"),
    ("tsfloquet.oracle", "error_bound", "oracle.error_bound"),
)
# (module, attribute, leaf name); "Class.method" wraps a class attribute
LEAVES = (
    ("tsfloquet.expr", "evaluate", "expr.evaluate"),
    ("tsfloquet.tscalc", "_gk15", "tscalc.gk15"),
    ("tsfloquet.floquet", "cumulative_simpson", "floquet.cumint"),
    ("tsfloquet.timescale", "ValidatedTimeScale.locate", "timescale.locate"),
)
# leaves whose time is not measured, only counted
_COUNT_ONLY = {"timescale.locate"}
# spans nested in cross_check that repeat the analysis
_REPEATS = ("oracle.solve_phi", "oracle.a_partial", "oracle.compute_B",
            "oracle.error_bound")

# per-layer metrics derived from the spans; the worker adds the rest
SPAN_METRICS = (
    "cli.build_system.ms", "cli.run.self_ms",
    "expr.evaluate.calls", "expr.evaluate.ms",
    "tscalc.gk15.panels", "tscalc.quad.ms", "timescale.locate.calls",
    "floquet.validate_system.ms", "floquet.solve_phi.ms",
    "floquet.compute_B.ms", "floquet.series.ms", "floquet.series.expr_ms",
    "floquet.series.tuples", "floquet.cumint.calls", "floquet.cumint.samples",
    "floquet.shi.ms", "floquet.estimate_bounds.ms",
    "floquet.error_bound.overflows", "floquet.analyze.self_ms",
    "oracle.monodromy.ms", "oracle.rhs.calls", "oracle.cross_check.repeat_ms",
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: str
    start: float
    end: float = math.nan
    error: str = ""
    tuples: int = 0  # floquet.series on a discrete scale
    nfev: int = 0  # oracle.solve_ivp
    # leaf name -> [calls, seconds, samples] inside this span, children
    # included; covered: time inside outermost timed leaves, likewise
    leaves: dict = field(default_factory=dict)
    covered: float = 0.0
    mark: tuple = ()  # leaf totals when the span opened


def _series_tuples(spec, n) -> int:
    """sum_{j <= n} C(k, j): tuples a discrete scale's enumeration visits."""
    if not spec.ts.is_discrete:
        return 0
    k = len(spec.ts.scattered_with_mu())
    return sum(math.comb(k, j) for j in range(min(n, k) + 1))


class Tracer:
    """Leaf wrappers only bump running totals; a span stores the change of
    those totals between its opening and its closing."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.absent = []
        self._patches = []  # (owner, attribute, original)
        self._next_id = 0
        self.totals = {name: [0, 0.0, 0] for _, _, name in LEAVES}
        self._covered = [0.0]
        self._depth = [0]  # timed leaves currently open
        self._in_evaluate = [False]

    # -- spans -------------------------------------------------------------

    def begin_op(self, label: str):
        # a deadline can interrupt a wrapper before it restores its state
        self._depth[0] = 0
        self._in_evaluate[0] = False
        self.stack = [self._open("cli.run", label)]

    def end_op(self, start: float, end: float):
        root, *open_spans = self.stack
        for s in reversed(open_spans):  # left open by an interrupted operation
            s.error = s.error or "interrupted"
            self._close(s, end)
        self._close(root, end)
        root.start = start
        self.spans.append(root)
        self.spans += open_spans
        self.stack = []

    def _open(self, name, op=None) -> Span:
        self._next_id += 1
        parent = self.stack[-1] if self.stack else None
        mark = ({k: tuple(v) for k, v in self.totals.items()}, self._covered[0])
        return Span(self._next_id, parent and parent.id, name,
                    op if op is not None else parent.op,
                    time.perf_counter(), mark=mark)

    def _close(self, span, end):
        span.end = end
        before, covered = span.mark
        span.leaves = {k: [now - was for now, was in zip(v, before[k])]
                       for k, v in self.totals.items()}
        span.covered = self._covered[0] - covered
        span.mark = ()

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.stack:  # outside an operation (set-up)
                return fn(*args, **kwargs)
            span = self._open(name)
            if name == "floquet.series":
                span.tuples = _series_tuples(args[0], args[2])
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                if self.stack and self.stack[-1] is span:
                    self._close(span, time.perf_counter())
                    self.stack.pop()
                    self.spans.append(span)
            if name == "oracle.solve_ivp":
                span.nfev = int(getattr(result, "nfev", 0))
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        total = self.totals[name]
        if name in _COUNT_ONLY:
            def counted(*args, **kwargs):
                total[0] += 1
                return fn(*args, **kwargs)
            return counted

        covered, depth = self._covered, self._depth
        # expr.evaluate recurses through its own module global, which is this
        # wrapper: only the outermost call is counted and timed
        busy = self._in_evaluate if name == "expr.evaluate" else None
        cumint = name == "floquet.cumint"

        def timed(*args, **kwargs):
            if busy is not None:
                if busy[0]:
                    return fn(*args, **kwargs)
                busy[0] = True
            depth[0] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                depth[0] -= 1
                if busy is not None:
                    busy[0] = False
                total[0] += 1
                total[1] += seconds
                if cumint:
                    total[2] += _samples(args, kwargs)
                if depth[0] == 0:
                    covered[0] += seconds

        return timed

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        for module, attr, name in SPANS:
            self._patch(module, attr, name, self._span_wrapper)
        for module, attr, name in LEAVES:
            self._patch(module, attr, name, self._leaf_wrapper)

    def _patch(self, module, attr, name, make):
        try:
            owner = importlib.import_module(module)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{attr}")
            return
        self._patches.append((owner, last, original))
        setattr(owner, last, make(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def dump(self, path):
        """Write every recorded span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({k: v for k, v in s.__dict__.items()
                                     if k != "mark"}) + "\n")


def layer_metrics(spans, passes: int) -> dict:
    """Per-pass totals of the span-derived per-layer metrics.

    ``floquet.*`` figures cover spans under ``cli.analyze`` only; the
    repeat of the same stages inside ``cli.cross_check`` is reported as
    ``oracle.cross_check.repeat_ms``. ``expr``, ``tscalc`` and
    ``timescale`` figures are totals over whole operations. A span's self
    time is its duration less its child spans and the outermost leaf calls
    made directly in it.
    """
    by_id = {s.id: s for s in spans}
    side = {}

    def side_of(s):
        if s.id not in side:
            if s.name == "cli.analyze":
                side[s.id] = "analysis"
            elif s.name == "cli.cross_check":
                side[s.id] = "oracle"
            elif s.parent in by_id:
                side[s.id] = side_of(by_id[s.parent])
            else:
                side[s.id] = "other"
        return side[s.id]

    child = {}  # id -> [child span time, child covered time]
    for s in spans:
        if s.parent is not None:
            acc = child.setdefault(s.parent, [0.0, 0.0])
            acc[0] += s.end - s.start
            acc[1] += s.covered

    def self_ms(s):
        spans_t, covered_t = child.get(s.id, (0.0, 0.0))
        return 1e3 * (s.end - s.start - spans_t - (s.covered - covered_t))

    def leaf(s, name, i):
        return s.leaves.get(name, (0, 0.0, 0))[i]

    m = dict.fromkeys(SPAN_METRICS, 0.0)
    for s in spans:
        dur_ms = 1e3 * (s.end - s.start)
        analysis = side_of(s) == "analysis"
        if s.name == "cli.run":
            m["cli.run.self_ms"] += self_ms(s)
            m["expr.evaluate.calls"] += leaf(s, "expr.evaluate", 0)
            m["expr.evaluate.ms"] += 1e3 * leaf(s, "expr.evaluate", 1)
            m["tscalc.gk15.panels"] += leaf(s, "tscalc.gk15", 0)
            m["tscalc.quad.ms"] += 1e3 * leaf(s, "tscalc.gk15", 1)
            m["timescale.locate.calls"] += leaf(s, "timescale.locate", 0)
        elif s.name == "cli.build_system":
            m["cli.build_system.ms"] += dur_ms
        elif s.name == "cli.analyze":
            m["floquet.analyze.self_ms"] += self_ms(s)
            m["floquet.cumint.calls"] += leaf(s, "floquet.cumint", 0)
            m["floquet.cumint.samples"] += leaf(s, "floquet.cumint", 2)
        elif s.name == "oracle.monodromy":
            m["oracle.monodromy.ms"] += dur_ms
        elif s.name == "oracle.solve_ivp":
            m["oracle.rhs.calls"] += s.nfev
        elif s.name in _REPEATS:
            m["oracle.cross_check.repeat_ms"] += dur_ms
        elif analysis and s.name == "floquet.series":
            m["floquet.series.ms"] += self_ms(s)
            m["floquet.series.expr_ms"] += 1e3 * leaf(s, "expr.evaluate", 1)
            m["floquet.series.tuples"] += s.tuples
        elif analysis and s.name == "floquet.error_bound":
            m["floquet.error_bound.overflows"] += s.error == "OverflowError"
        elif analysis and f"{s.name}.ms" in m:
            m[f"{s.name}.ms"] += dur_ms
    return {k: v / passes for k, v in m.items()}


def _samples(args, kwargs) -> int:
    y = args[0] if args else kwargs.get("y")
    return int(getattr(y, "size", 0))

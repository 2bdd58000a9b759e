"""Seeded workload definitions: config text and the operation list of one pass.

Nothing here imports tsfloquet. A workload is a list of systems (config
text plus a name), the operations of one measured pass over them, and
probes; the same seed gives byte-identical config text and the same
operation order.

Measured operations all succeed at the commit that defined the benchmark.
Probes are operations that fail there for a known defect (the tail bound's
``OverflowError``, tuple enumeration that cannot finish); they run once per
run, outside the measured window, and are reported by failure cause, so a
fix shows as a probe that starts to pass.

Coefficient ranges are chosen so that the outcome class of every operation
(verified, refused, overflow, deadline; decided or undetermined) does not
depend on the seed: a seed moves values, never the verdict's kind.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("configs", "discrete", "hybrid", "certify")

# Per-operation deadline in seconds, enforced in-process by the harness.
DEADLINE_S = {"configs": 2.0, "discrete": 4.0, "hybrid": 6.0, "certify": 6.0}
# Nominal time of one measured pass (Python 3.11, 2 vCPU x86-64). The pass
# count of a run is fixed from --seconds and this, never from the clock, so
# every run measures the same multiset of operations.
PASS_S = {"configs": 2.2, "discrete": 3.0, "hybrid": 3.5, "certify": 2.5}

# Discrete scales: k points with graininess 0.5, so period 0.5 k.
_DISCRETE_MU = 0.5
# Hybrid cells of length one: the dense part [i, i + dense], then one
# isolated point at i + point. "steep" has twice the graininess, which makes
# the tail bound's exponent exceed 709 at 100 cells; "gentle" keeps it
# below 400 on every seed.
_GEOMETRY = {"gentle": (0.8, 0.9), "steep": (0.5, 0.75)}


@dataclass(frozen=True)
class System:
    name: str
    text: str


@dataclass(frozen=True)
class Op:
    """One ``cli.run`` call: system name plus the keyword arguments."""

    system: str
    n: int | None = None
    use_shi: bool = False
    oracle: bool = False

    @property
    def label(self) -> str:
        parts = [self.system, "n=own" if self.n is None else f"n={self.n}"]
        if self.use_shi:
            parts.append("shi")
        if self.oracle:
            parts.append("oracle")
        return " ".join(parts)


@dataclass
class Workload:
    name: str
    systems: list = field(default_factory=list)  # [System]
    ops: list = field(default_factory=list)  # [Op], in pass order
    probes: list = field(default_factory=list)  # [Op], known to fail


# the committed example and Mathieu configs, by path under configs/; named
# so that a config added later does not change the workload
COMMITTED_CONFIGS = (
    ("example_continuous", "example_discrete_2z", "example_discrete_z",
     "example_hybrid")
    + tuple(f"mathieu/h{i}_{j}" for i in (1, 2, 3) for j in (1, 2, 3, 4))
)


def _committed_configs(root: Path) -> list:
    systems = []
    for name in COMMITTED_CONFIGS:
        path = root / "configs" / f"{name}.cfg"
        if not path.is_file():
            raise FileNotFoundError(f"missing committed config {path}")
        systems.append(System(path.stem, path.read_text()))
    return systems


def _keys(text: str) -> set:
    return {line.split("=", 1)[0].strip() for line in text.splitlines()
            if "=" in line.split("#", 1)[0]}


def discrete_system(rng: random.Random, name: str, k: int) -> System:
    """k equally spaced points; p = a + b sin, q = c + d cos over the period.

    p >= 0.45 > mu q (q <= 0.75), so every one-step factor
    1 - mu p + mu^2 q lies in (0, 1): B < 1 and the scale is regressive.
    """
    mu = _DISCRETE_MU
    period = k * mu
    a, b = rng.uniform(0.6, 0.8), rng.uniform(0.05, 0.15)
    c, d = rng.uniform(0.4, 0.6), rng.uniform(0.05, 0.15)
    w = f"2*pi*t/{period!r}"
    points = ", ".join(repr(i * mu) for i in range(k + 1))
    text = (
        f"# discrete scale, k = {k}\n"
        f"t0 = 0\n"
        f"period = {period!r}\n"
        f"points = [{points}]\n"
        f"p = {a!r} + {b!r}*sin({w})\n"
        f"q = {c!r} + {d!r}*cos({w})\n"
    )
    return System(name, text)


def hybrid_system(rng: random.Random, name: str, cells: int,
                  damped: bool, geometry: str = "gentle") -> System:
    """``cells`` dense cells of equal length, one isolated point per gap.

    On the dense parts q = phi^2 with phi = al + be cos(2 pi t), which has
    period one cell. q is pinned at the scattered points by two nested
    ``if(eq(mod(t, 1), ...))`` so the AST depth does not grow with the cell
    count: at a cell's right end q keeps the dense limit phi(dense)^2, and
    at the isolated point q = phi(dense) phi(0), which makes the phase chain
    continuous. p = a + b sin(2 pi t / T) varies over the whole period.

    damped: a >= 0.3 makes B < 1 (the verdict needs a tight bound);
    otherwise a < 0 makes B > 1 (unstable whatever the bound).
    """
    dense, point = _GEOMETRY[geometry]
    period = float(cells)
    al = rng.uniform(0.95, 1.05)
    be = rng.uniform(0.05, 0.1) if geometry == "gentle" else rng.uniform(0.05, 0.15)
    a = rng.uniform(0.3, 0.35) if damped else -rng.uniform(0.01, 0.03)
    b = rng.uniform(0.005, 0.01)

    def phi(t):
        return al + be * math.cos(2 * math.pi * t)

    intervals = ", ".join(f"[{float(i)!r}, {i + dense!r}]" for i in range(cells))
    points = ", ".join([repr(i + point) for i in range(cells)] + [repr(period)])
    m = "mod(t, 1.0)"
    q = (f"if(eq({m}, {dense!r}), {phi(dense) ** 2!r}, "
         f"if(eq({m}, {point!r}), {phi(dense) * phi(0.0)!r}, "
         f"({al!r} + {be!r}*cos(2*pi*t))^2))")
    text = (
        f"# hybrid scale, {cells} {geometry} cells, "
        f"{'damped' if damped else 'growing'}\n"
        f"t0 = 0\n"
        f"period = {period!r}\n"
        f"intervals = [{intervals}]\n"
        f"points = [{points}]\n"
        f"p = {a!r} + {b!r}*sin(2*pi*t/{period!r})\n"
        f"q = {q}\n"
    )
    return System(name, text)


def _hybrids(rng: random.Random, cell_counts) -> list:
    return [hybrid_system(rng, f"hybrid{cells}_{kind}", cells, kind == "damped")
            for cells in cell_counts for kind in ("damped", "growing")]


def passes(name: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[name]))


def build(name: str, seed: int, root: Path) -> Workload:
    """The workload ``name`` for ``seed``; ``root`` is the repository root."""
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(name)

    def add(system, *ops, probe=False):
        wl.systems.append(system)
        (wl.probes if probe else wl.ops).extend(
            Op(system.name, **kw) for kw in ops)

    if name == "configs":
        # every committed config without points is continuous with B = 1,
        # which the phase-form series (--shi) requires
        for s in _committed_configs(root):
            keys = _keys(s.text)
            ops = [{}]
            if "intervals" in keys:
                ops.append({"n": 8})
            if "points" not in keys:
                ops.append({"use_shi": True})
            add(s, *ops)
    elif name == "discrete":
        # exact order n = k, and truncated n = 3 where the bound is finite.
        # Copies per size put the median inside the k = 12 group and the
        # tail percentile inside the k = 16 group at five passes.
        for k, n, copies in ((8, None, 2), (12, None, 5), (16, None, 3),
                             (18, None, 1), (16, 3, 2)):
            for j in range(copies):
                tag = "" if n is None else f"_n{n}"
                add(discrete_system(rng, f"disc{k}{tag}_{j}", k),
                    {} if n is None else {"n": n})
        # probes: n = 3 overflows the tail bound from k = 48 on, and exact
        # k = 40 and n = 3 at k = 1000 enumerate too many tuples to finish
        for k in (48, 96, 200, 1000):
            add(discrete_system(rng, f"disc{k}_n3", k), {"n": 3}, probe=True)
        add(discrete_system(rng, "disc40", 40), {}, probe=True)
    elif name == "hybrid":
        # three 10-cell systems to two 100-cell ones: at four passes the
        # median falls among the 10-cell n = 8 operations and the tail
        # percentile among the 100-cell n = 3 ones, each inside its group
        systems = _hybrids(rng, (10,))
        systems.append(hybrid_system(rng, "hybrid10_damped2", 10, True))
        systems += _hybrids(rng, (100,))
        for s in systems:
            add(s, {"n": 3}, {"n": 8})
        # probe: the steep geometry overflows the tail bound at 100 cells
        add(hybrid_system(rng, "hybrid100_steep", 100, False, "steep"),
            {"n": 3}, {"n": 8}, probe=True)
    elif name == "certify":
        for s in _committed_configs(root):
            add(s, {"oracle": True})
        for s in _hybrids(rng, (10,)):
            add(s, {"n": 3, "oracle": True}, {"n": 8, "oracle": True})
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng.shuffle(wl.ops)
    return wl

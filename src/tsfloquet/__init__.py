"""Floquet multipliers and certified stability verdicts for second-order
periodic linear dynamic equations on time scales."""

from .errors import TsfloquetError
from .expr import differentiate, evaluate, parse, serialize
from .floquet import (
    Enclosure,
    ErrorBound,
    FloquetReport,
    PhaseTable,
    SystemSpec,
    Verdict,
    a_partial,
    a_term,
    analyze,
    compute_B,
    error_bound,
    estimate_bounds,
    multipliers,
    shi_continuous_a,
    solve_phi,
    verdict,
)
from .timescale import Interval, PeriodicTimeScale, Point, validate

__version__ = "0.1.0"

__all__ = [
    "TsfloquetError",
    "parse", "evaluate", "differentiate", "serialize",
    "Point", "Interval", "PeriodicTimeScale", "validate",
    "SystemSpec", "PhaseTable", "solve_phi", "compute_B", "a_term",
    "a_partial", "estimate_bounds", "ErrorBound", "error_bound", "Enclosure",
    "shi_continuous_a", "multipliers", "Verdict", "verdict", "analyze",
    "FloquetReport",
    "__version__",
]

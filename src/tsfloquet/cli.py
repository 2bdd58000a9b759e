"""File-driven command line front end.

``tsfloquet analyze CONFIG`` reads a line-oriented ``key = value`` system
description, runs the series analysis and prints either a text report
(six-decimal formatting, suitable for golden-file comparison) or a
full-precision JSON report. Exit codes: 0 stable or exponentially stable,
1 unstable, 2 undetermined, 3 config or usage errors, 4 computation errors.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

import click

from . import expr as ex
from .errors import (
    ConfigError,
    ConfigParseError,
    ExpressionError,
    TimeScaleError,
    TsfloquetError,
    ValidationError,
)
from .floquet import FloquetReport, SystemSpec, analyze
from .oracle import CheckResult, cross_check
from .timescale import Interval, PeriodicTimeScale, Point, validate


@dataclasses.dataclass
class ConfigFile:
    t0: float
    period: float
    points: list
    intervals: list
    p: str
    q: str
    qprime: Optional[str] = None
    n: Optional[int] = None
    tol: Optional[float] = None


def _const(text: str, line: int) -> float:
    try:
        return ex.const_value(ex.parse(text))
    except (TsfloquetError, ValueError) as exc:
        raise ConfigParseError(f"not a constant expression: {text!r} ({exc})",
                               line) from exc


def _split_top(text: str, line: int) -> list:
    """Split a comma-separated list at bracket depth zero."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ConfigParseError("unbalanced ']'", line)
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ConfigParseError("unbalanced '['", line)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_list(text: str, line: int) -> list:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ConfigParseError(f"expected a [...] list, got {text!r}", line)
    return _split_top(text[1:-1], line)


def _unquote(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


def load_config(path) -> ConfigFile:
    """Parse a ``key = value`` config file into a ConfigFile."""
    raw = {}
    lines = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {line!r}",
                                   lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if key in raw:
            raise ConfigParseError(f"duplicate key {key!r}", lineno)
        raw[key] = value.strip()
        lines[key] = lineno

    known = {"t0", "period", "points", "intervals", "p", "q", "qprime",
             "n", "tol"}
    for key in raw:
        if key not in known:
            raise ConfigParseError(f"unknown key {key!r}", lines[key])
    if "q" not in raw:
        raise ValidationError("q required")
    if "period" not in raw:
        raise ValidationError("period required")

    points = []
    if "points" in raw:
        ln = lines["points"]
        points = [_const(s, ln) for s in _parse_list(raw["points"], ln)]
    intervals = []
    if "intervals" in raw:
        ln = lines["intervals"]
        for item in _parse_list(raw["intervals"], ln):
            pair = [_const(s, ln) for s in _parse_list(item, ln)]
            if len(pair) != 2:
                raise ConfigParseError(
                    f"interval needs exactly two endpoints, got {item!r}", ln)
            intervals.append(tuple(pair))
    if not points and not intervals:
        raise ValidationError("at least one point or interval required")

    n = None
    if "n" in raw:
        value = _const(raw["n"], lines["n"])
        if value != int(value) or value < 0:
            raise ValidationError(f"n must be a non-negative integer, got "
                                  f"{raw['n']!r}")
        n = int(value)
    return ConfigFile(
        t0=_const(raw["t0"], lines["t0"]) if "t0" in raw else 0.0,
        period=_const(raw["period"], lines["period"]),
        points=points,
        intervals=intervals,
        p=_unquote(raw.get("p", "0")),
        q=_unquote(raw["q"]),
        qprime=_unquote(raw["qprime"]) if "qprime" in raw else None,
        n=n,
        tol=_const(raw["tol"], lines["tol"]) if "tol" in raw else None,
    )


def _expression(key: str, text: str) -> ex.Expression:
    try:
        return ex.parse(text)
    except ExpressionError as exc:
        raise ValidationError(f"{key}: {exc}") from exc


def build_system(config: ConfigFile) -> SystemSpec:
    """SystemSpec of a config; its content errors raise ValidationError."""
    if config.tol is not None and not 0 < config.tol < math.inf:
        raise ValidationError(f"tol must be finite and > 0, got {config.tol}")
    segments = [Point(x) for x in config.points]
    segments += [Interval(a, b) for a, b in config.intervals]
    try:
        ts = validate(PeriodicTimeScale(config.t0, config.period, segments))
    except TimeScaleError as exc:
        # t0 and period place the window that points and intervals must fill
        raise ValidationError(f"t0/period/points/intervals: {exc}") from exc
    return SystemSpec(
        ts=ts,
        p=_expression("p", config.p),
        q=_expression("q", config.q),
        qprime=_expression("qprime", config.qprime) if config.qprime else None,
        quad_tol=config.tol if config.tol is not None else 1e-9,
    )


def _text_report(report: FloquetReport, check: Optional[CheckResult]) -> str:
    m1, m2 = report.point_moduli
    lines = []
    if report.is_discrete:
        lines.append(f"The value of A is {report.A_partial:.6f}")
        lines.append(f"The value of B is {report.B:.6f}")
        lines.append(f"The modulus of multipliers are {m1:.6f} {m2:.6f}.")
    else:
        lines.append(f"The value of A({report.n}) is {report.A_partial:.6f}")
        lines.append(f"The value of B is {report.B:.6f}")
        lines.append(f"The {report.n}th approximate modulus are "
                     f"{m1:.6f} {m2:.6f}.")
    lines.append(f"A({report.n}) = {report.A_partial:.6f}")
    lines.append(f"B = {report.B:.6f}")
    lines.append(f"|rho| = {m1:.6f}, {m2:.6f}")
    if report.err_bound.exact:
        lines.append("error bound = exact")
    else:
        lines.append(f"error bound = {report.err_bound.value:.6f}")
    lines.append(f"verdict = {report.verdict.value}")
    if check is not None:
        lines.append(f"oracle A delta = {check.a_delta:.3e} "
                     f"(allowed {check.allowed:.3e})")
        lines.append(f"oracle B delta = {check.b_delta:.3e}")
    return "\n".join(lines) + "\n"


def _json_report(report: FloquetReport, check: Optional[CheckResult],
                 elapsed: float) -> str:
    payload = {
        "n": report.n,
        "A_partial": report.A_partial,
        "A_terms": report.A_terms,
        "B": report.B,
        "err_bound": {
            "value": report.err_bound.value,
            "exact": report.err_bound.exact,
        },
        "moduli": {
            "point": list(report.point_moduli),
            "smaller_interval": list(report.rho_moduli[0]),
            "larger_interval": list(report.rho_moduli[1]),
        },
        "verdict": report.verdict.value,
        "justification": report.justification,
        "method": report.method,
        "timing_seconds": elapsed,
        "oracle": None if check is None else {
            "a_oracle": check.a_oracle,
            "b_oracle": check.b_oracle,
            "a_delta": check.a_delta,
            "b_delta": check.b_delta,
            "allowed": check.allowed,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_EXIT = {
    "stable": 0,
    "exponentially stable": 0,
    "unstable": 1,
    "undetermined": 2,
}


def run(config: ConfigFile, n: Optional[int] = None,
        tol: Optional[float] = None, oracle: bool = False,
        use_shi: bool = False, as_json: bool = False):
    """Analyze one config; returns (output text, exit code)."""
    if n is None:
        n = config.n
    elif n < 0:
        raise ValidationError(f"n must be a non-negative integer, got {n}")
    if tol is not None:
        config = dataclasses.replace(config, tol=tol)
    start = time.perf_counter()
    spec = build_system(config)
    report = analyze(spec, n=n, use_shi=use_shi)
    check = cross_check(spec, report, rk_tol=1e-10) if oracle else None
    elapsed = time.perf_counter() - start
    if as_json:
        return _json_report(report, check, elapsed), _EXIT[report.verdict.value]
    return _text_report(report, check), _EXIT[report.verdict.value]


class _Main(click.Group):
    """The command group. A usage error keeps click's message but exits 3
    like any input error: click's own code 2 would read as undetermined."""

    def make_context(self, *args, **kwargs):
        return _usage_exit_3(super().make_context, *args, **kwargs)

    def invoke(self, ctx):
        return _usage_exit_3(super().invoke, ctx)


def _usage_exit_3(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except click.UsageError as exc:
        exc.exit_code = 3
        raise


@click.group(cls=_Main)
def main():
    """Floquet multipliers and certified stability on periodic time scales."""


@main.command("analyze")
@click.argument("config", required=False,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "n", type=int, default=None,
              help="Series truncation order (default: config, else k or 3).")
@click.option("--tol", type=float, default=None,
              help="Quadrature tolerance (default 1e-9).")
@click.option("--oracle", is_flag=True,
              help="Cross-check A and B against an independent monodromy "
                   "(Gauss-Legendre panels on dense parts).")
@click.option("--shi", "use_shi", is_flag=True,
              help="Use the cosine-phase series (continuous scales, B = 1).")
@click.option("--json", "as_json", is_flag=True,
              help="Full-precision JSON instead of text.")
@click.option("--batch", type=click.Path(exists=True, file_okay=False),
              default=None, help="Process every *.cfg file in a directory.")
def analyze_cmd(config, n, tol, oracle, use_shi, as_json, batch):
    """Analyze the system described by CONFIG (or --batch DIR)."""
    if (config is None) == (batch is None):
        click.echo("error: give exactly one of CONFIG or --batch DIR",
                   err=True)
        sys.exit(3)
    if batch is not None:
        worst = 0
        for path in sorted(Path(batch).glob("*.cfg")):
            click.echo(f"== {path.name} ==")
            code = _run_one(path, n, tol, oracle, use_shi, as_json)
            if code > 2:
                worst = max(worst, code)
        sys.exit(worst)
    sys.exit(_run_one(Path(config), n, tol, oracle, use_shi, as_json))


def _run_one(path: Path, n, tol, oracle, use_shi, as_json) -> int:
    try:
        cfg = load_config(path)
        out, code = run(cfg, n=n, tol=tol, oracle=oracle,
                        use_shi=use_shi, as_json=as_json)
    except (ConfigError, TimeScaleError) as exc:
        # a time scale the analysis cannot grid is a config error too
        click.echo(f"config error: {exc}", err=True)
        return 3
    except TsfloquetError as exc:
        click.echo(f"error: {exc}", err=True)
        return 4
    except Exception as exc:
        # exit 1 means "unstable", so an unexpected failure must not reach
        # the interpreter's default handler; batch mode goes on to the next
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        return 4
    click.echo(out, nl=False)
    return code


if __name__ == "__main__":
    main()

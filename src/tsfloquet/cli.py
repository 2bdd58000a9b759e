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
import re
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional

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
from .timescale import Interval, PeriodicTimeScale, Point, validate

if TYPE_CHECKING:
    from .oracle import CheckResult


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


def _const(text: str, line: int) -> float:
    # a number literal of the expression grammar, negated or not, is the
    # parser's value bit for bit: float(text)
    if ex._NUMBER.fullmatch(text, text.startswith("-")):
        return float(text)
    try:
        return ex.const_value(ex.parse(text))
    except (TsfloquetError, ValueError) as exc:
        raise ConfigParseError(f"not a constant expression: {text!r} ({exc})",
                               line) from exc


# the characters that open, close or split a list entry
_LIST_MARKS = re.compile(r"[][(),]")


def _entries(text: str, line: int) -> list:
    """The stripped entries of the stripped ``[...]`` list text, split at
    the commas outside all brackets and parentheses."""
    if not (text.startswith("[") and text.endswith("]")):
        raise ConfigParseError(f"expected a [...] list, got {text!r}", line)
    parts, opened, start = [], [], 1
    for mark in _LIST_MARKS.finditer(text, 1, len(text) - 1):
        ch = mark.group()
        if ch in "[(":
            opened.append(ch)
        elif ch != ",":
            if not opened or opened.pop() + ch not in ("[]", "()"):
                raise ConfigParseError(f"unbalanced {ch!r}", line)
        elif not opened:
            parts.append(text[start:mark.start()].strip())
            start = mark.end()
    if opened:
        raise ConfigParseError(f"unbalanced {opened[-1]!r}", line)
    tail = text[start:-1].strip()
    if tail:
        parts.append(tail)
    return parts


def _points(text: str, line: int) -> list:
    return [_const(s, line) for s in _entries(text, line)]


def _intervals(text: str, line: int) -> list:
    intervals = []
    for item in _entries(text, line):
        pair = _points(item, line)
        if len(pair) != 2:
            raise ConfigParseError(
                f"interval needs exactly two endpoints, got {item!r}", line)
        intervals.append(tuple(pair))
    return intervals


def _order(text: str, line: int) -> int:
    value = _const(text, line)
    if not (value >= 0 and float(value).is_integer()):
        raise ValidationError(f"n must be a non-negative integer, got "
                              f"{text!r}")
    return int(value)


def _unquote(text: str, line: int) -> str:
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return text


# each key's reader, from its value's text and line, in the order the keys
# are read: a missing scale is reported before n, t0 and period are read
_READERS = {"points": _points, "intervals": _intervals, "n": _order,
            "t0": _const, "period": _const,
            "p": _unquote, "q": _unquote, "qprime": _unquote}


def load_config(path) -> ConfigFile:
    """Parse a ``key = value`` config file into a ConfigFile; a file that
    cannot be read as UTF-8 text raises ConfigError naming its path. A
    leading byte-order mark is skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:  # its message repeats the path
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    given = {}  # each key's value text and line
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {line!r}",
                                   lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if key in given:
            raise ConfigParseError(f"duplicate key {key!r}", lineno)
        given[key] = value.strip(), lineno

    for key, (_, lineno) in given.items():
        if key not in _READERS:
            raise ConfigParseError(f"unknown key {key!r}", lineno)
    for key in ("q", "period"):
        if key not in given:
            raise ValidationError(f"{key} required")
    # the values of the keys a file may leave out; qprime and n default to
    # ConfigFile's None
    fields = {"t0": 0.0, "points": [], "intervals": [], "p": "0"}
    for key, read in _READERS.items():
        if key == "n" and not (fields["points"] or fields["intervals"]):
            raise ValidationError("at least one point or interval required")
        if key in given:
            fields[key] = read(*given[key])
    return ConfigFile(**fields)


def _expression(key: str, text: str) -> ex.Expression:
    try:
        return ex.parse(text)
    except ExpressionError as exc:
        raise ValidationError(f"{key}: {exc}") from exc


def build_system(config: ConfigFile) -> SystemSpec:
    """SystemSpec of a config; its content errors raise ValidationError."""
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
    )


def cross_check(spec: SystemSpec, report: FloquetReport) -> CheckResult:
    """``oracle.cross_check``; the oracle is imported on the first call,
    so that only an ``--oracle`` analysis loads it."""
    from . import oracle
    return oracle.cross_check(spec, report)


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
        lines.append(f"oracle B delta = {check.b_delta:.3e} "
                     f"(allowed {check.b_allowed:.3e})")
    return "\n".join(lines) + "\n"


# the JSON report as json.dumps(payload, indent=2, sort_keys=True) writes
# it: the keys sorted, each level two spaces further in
_JSON_REPORT = """{{
  "A_partial": {A_partial},
  "A_terms": {A_terms},
  "B": {B},
  "err_bound": {{
    "exact": {exact},
    "value": {bound}
  }},
  "justification": {justification},
  "method": {method},
  "moduli": {{
    "larger_interval": [
      {large[0]},
      {large[1]}
    ],
    "point": [
      {point[0]},
      {point[1]}
    ],
    "smaller_interval": [
      {small[0]},
      {small[1]}
    ]
  }},
  "n": {n},
  "oracle": {oracle},
  "timing_seconds": {elapsed},
  "verdict": {verdict}
}}
"""
_JSON_ORACLE = """{{
    "a_delta": {},
    "a_oracle": {},
    "allowed": {},
    "b_allowed": {},
    "b_delta": {},
    "b_oracle": {}
  }}"""
# json's words for the floats that float.__repr__ writes nan, inf and -inf
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return _JSON_WORDS.get(text, text)


def _json_report(report: FloquetReport, check: Optional[CheckResult],
                 elapsed: float) -> str:
    """The report in JSON, as ``json.dumps`` writes its payload with
    indent=2 and sorted keys, byte for byte: floats by ``float.__repr__``,
    strings by json's ASCII encoder."""
    number, text = _json_float, json.encoder.encode_basestring_ascii
    terms = "[]"
    if report.A_terms:
        terms = "[\n    {}\n  ]".format(
            ",\n    ".join(map(number, report.A_terms)))
    oracle = "null" if check is None else _JSON_ORACLE.format(*map(number, (
        check.a_delta, check.a_oracle, check.allowed, check.b_allowed,
        check.b_delta, check.b_oracle)))
    small, large = ([number(x) for x in pair] for pair in report.rho_moduli)
    return _JSON_REPORT.format(
        A_partial=number(report.A_partial), A_terms=terms,
        B=number(report.B),
        exact="true" if report.err_bound.exact else "false",
        bound=number(report.err_bound.value),
        justification=text(report.justification), method=text(report.method),
        large=large, point=[number(x) for x in report.point_moduli],
        small=small, n=report.n, oracle=oracle, elapsed=number(elapsed),
        verdict=text(report.verdict.value))


_EXIT = {
    "stable": 0,
    "exponentially stable": 0,
    "unstable": 1,
    "undetermined": 2,
}


def run(config: ConfigFile, n: Optional[int] = None, oracle: bool = False,
        use_shi: bool = False, as_json: bool = False):
    """Analyze one config; returns (output text, exit code)."""
    if n is None:
        n = config.n
    elif n < 0:
        raise ValidationError(f"n must be a non-negative integer, got {n}")
    start = time.perf_counter()
    spec = build_system(config)
    report = analyze(spec, n=n, use_shi=use_shi)
    check = cross_check(spec, report) if oracle else None
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
@click.option("--oracle", is_flag=True,
              help="Cross-check A and B against an independent monodromy "
                   "(Gauss-Legendre panels on dense parts).")
@click.option("--shi", "use_shi", is_flag=True,
              help="Use the cosine-phase series (continuous scales, B = 1).")
@click.option("--json", "as_json", is_flag=True,
              help="Full-precision JSON instead of text.")
@click.option("--batch", type=click.Path(exists=True, file_okay=False),
              default=None, help="Process every *.cfg file in a directory.")
def analyze_cmd(config, n, oracle, use_shi, as_json, batch):
    """Analyze the system described by CONFIG (or --batch DIR)."""
    if (config is None) == (batch is None):
        click.echo("error: give exactly one of CONFIG or --batch DIR",
                   err=True)
        sys.exit(3)
    if batch is not None:
        worst = 0
        for path in sorted(Path(batch).glob("*.cfg")):
            click.echo(f"== {path.name} ==")
            code = _run_one(path, n, oracle, use_shi, as_json)
            if code > 2:
                worst = max(worst, code)
        sys.exit(worst)
    sys.exit(_run_one(Path(config), n, oracle, use_shi, as_json))


def _run_one(path: Path, n, oracle, use_shi, as_json) -> int:
    try:
        cfg = load_config(path)
        out, code = run(cfg, n=n, oracle=oracle, use_shi=use_shi,
                        as_json=as_json)
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

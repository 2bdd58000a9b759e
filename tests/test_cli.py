import builtins
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, strategies as st

from tsfloquet import cli
from tsfloquet import expr as ex
from tsfloquet.cli import build_system, load_config, main, run
from tsfloquet.errors import (
    ConfigParseError,
    InvalidSegment,
    TsfloquetError,
    ValidationError,
)
from tsfloquet.floquet import analyze

import config_fuzz
from calculus_reference import dense_intervals, q_at

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def invoke(*args):
    return CliRunner().invoke(main, ["analyze", *args])


# -- config parsing ----------------------------------------------------------

def test_load_integer_example_config():
    cfg = load_config(CONFIGS / "example_discrete_z.cfg")
    assert cfg.t0 == 0 and cfg.period == 2
    assert cfg.points == [0, 1, 2]
    assert cfg.n == 2
    spec = build_system(cfg)
    assert spec.ts.is_discrete
    assert q_at(spec, 0) == pytest.approx(-7 / 8)


def test_load_hybrid_example_config():
    cfg = load_config(CONFIGS / "example_hybrid.cfg")
    assert cfg.points == [pytest.approx(2 * math.pi)]
    assert cfg.intervals == [(0, pytest.approx(math.pi))]
    spec = build_system(cfg)
    assert dense_intervals(spec.ts) == [(0.0, pytest.approx(math.pi))]


def test_missing_q(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("period = 2\npoints = [0, 1, 2]\np = 0\n")
    with pytest.raises(ValidationError, match="q required"):
        load_config(f)


def test_parse_error_line_numbers(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("period = 2\njunk line\n")
    with pytest.raises(ConfigParseError) as exc:
        load_config(f)
    assert exc.value.line == 2
    f.write_text("period = 2\nq = 1\nn = 1.5\npoints = [0, 2]\n")
    with pytest.raises(ValidationError, match="non-negative integer"):
        load_config(f)
    f.write_text("period = 2\nq = 1\npoints = [0, 2\n")
    with pytest.raises(ConfigParseError):
        load_config(f)


def test_comments_and_constant_expressions(tmp_path):
    f = tmp_path / "ok.cfg"
    f.write_text(
        "# a comment\n"
        "t0 = 0  # trailing comment\n"
        "period = 2*pi\n"
        "intervals = [[0, pi], [3*pi/2, 2*pi]]\n"
        "q = 1\n"
    )
    cfg = load_config(f)
    assert cfg.period == pytest.approx(2 * math.pi)
    assert cfg.intervals[1] == (pytest.approx(1.5 * math.pi),
                                pytest.approx(2 * math.pi))
    assert cfg.p == "0"  # default


@given(st.from_regex(rf"-?(?:{ex._NUMBER.pattern})", fullmatch=True))
@example("0")
@example("-0")
@example("1.")
@example(".5")
@example("-1.5e3")
@example("1e-400")
@example("1e400")
@example("-1e400")
def test_a_number_literal_is_the_parsers_float(text):
    # a config number, negated or not, is read as float(text): the
    # parser's value bit for bit, the sign of a zero and infinities
    # included
    assert cli._const(text, 1).hex() == ex.const_value(ex.parse(text)).hex()


@pytest.mark.parametrize("text, want", [
    ("pi", math.pi), ("2*pi", 2 * math.pi), ("--1", 1.0), ("- 1", -1.0),
    ("+1", None), ("1_000", None), ("inf", None), ("nan", None),
    ("1e", None), ("-", None)])
def test_other_constants_are_parsed(text, want):
    # texts outside the number grammar, some of which float() would
    # accept, keep the parser's value or its error
    if want is None:
        with pytest.raises(ConfigParseError, match="not a constant"):
            cli._const(text, 1)
    else:
        assert cli._const(text, 1).hex() == want.hex()


def test_list_entries_keep_their_parentheses(tmp_path):
    # a comma inside a call's parentheses does not split a list entry
    f = tmp_path / "ok.cfg"
    f.write_text("period = 2\npoints = [0, mod(7, 6), 2]\nq = 1\n")
    assert load_config(f).points == [0.0, 1.0, 2.0]
    assert invoke(str(f)).exit_code in (0, 1)
    for points, closer in (("[0, 1), 2]", ")"), ("[0, (1], 2]", "]"),
                           ("[0, mod(1, 2]", "(")):
        f.write_text(f"period = 2\npoints = {points}\nq = 1\n")
        with pytest.raises(ConfigParseError,
                           match=re.escape(f"unbalanced {closer!r}")) as exc:
            load_config(f)
        assert exc.value.line == 2
        result = invoke(str(f))
        assert result.exit_code == 3 and "config error" in result.stderr


_SCALE = "period = 2\nq = 1\npoints = [0, 2]\n"


# each row: a config's text, and the type, message and line (None for a
# ValidationError, which names none) of the error that load_config raises
@pytest.mark.parametrize("text, kind, message, line", [
    ("period = 2\njunk line\n", ConfigParseError,
     "expected 'key = value', got 'junk line'", 2),
    ("period = 2\nq = 1\nperiod = 3\n", ConfigParseError,
     "duplicate key 'period'", 3),
    ("period = 2\nfoo = 1\nq = 1\npoints = [0, 2]\n", ConfigParseError,
     "unknown key 'foo'", 2),
    ("period = 2\npoints = [0, 2]\n", ValidationError, "q required", None),
    ("q = 1\npoints = [0, 2]\n", ValidationError, "period required", None),
    ("points = [0, 2]\n", ValidationError, "q required", None),
    ("period = 2\nq = 1\npoints = 0, 2\n", ConfigParseError,
     "expected a [...] list, got '0, 2'", 3),
    ("period = 2\nq = 1\npoints = [0, 2\n", ConfigParseError,
     "expected a [...] list, got '[0, 2'", 3),
    ("period = 2\nq = 1\nintervals = [0, 2]\n", ConfigParseError,
     "expected a [...] list, got '0'", 3),
    ("period = 2\nq = 1\npoints = [0, mod(1, 2]\n", ConfigParseError,
     "unbalanced '('", 3),
    ("period = 2\nq = 1\npoints = [0, 1), 2]\n", ConfigParseError,
     "unbalanced ')'", 3),
    ("period = 2\nq = 1\nintervals = [[0, 1], [1, 2]\n", ConfigParseError,
     "unbalanced '['", 3),
    ("period = 2\nq = 1\npoints = [0, (1], 2]\n", ConfigParseError,
     "unbalanced ']'", 3),
    ("period = 2\nq = 1\npoints = [0, t]\n", ConfigParseError,
     "not a constant expression: 't' (expression is not constant)", 3),
    ("period = 2\nq = 1\npoints = [0, , 2]\n", ConfigParseError,
     "not a constant expression: '' (expected an atom (offset 0))", 3),
    ("period = 2\nq = 1\nintervals = [[0, 1, 2]]\n", ConfigParseError,
     "interval needs exactly two endpoints, got '[0, 1, 2]'", 3),
    ("period = 2\nq = 1\n", ValidationError,
     "at least one point or interval required", None),
    (_SCALE + "n = 1.5\n", ValidationError,
     "n must be a non-negative integer, got '1.5'", None),
    (_SCALE + "n = -1\n", ValidationError,
     "n must be a non-negative integer, got '-1'", None),
    (_SCALE + "t0 = x\n", ConfigParseError,
     "not a constant expression: 'x' (unknown name 'x' (offset 0))", 4),
    # two errors each: the order of the checks sets which one is raised,
    # the line loop's first, then unknown keys, q and period required,
    # points, intervals, a missing scale, n, t0 and period
    ("period = 2\nfoo = 1\nq = 1\nperiod = 3\n", ConfigParseError,
     "duplicate key 'period'", 4),
    ("period = 2\nfoo = 1\npoints = [0, 2]\n", ConfigParseError,
     "unknown key 'foo'", 2),
    ("period = 2\nq = 1\nn = 1.5\npoints = [0, t]\n", ConfigParseError,
     "not a constant expression: 't' (expression is not constant)", 4),
    ("period = 2\nq = 1\nn = 1.5\npoints = []\n", ValidationError,
     "at least one point or interval required", None),
    ("t0 = x\n" + _SCALE + "n = 1.5\n", ValidationError,
     "n must be a non-negative integer, got '1.5'", None),
    ("period = t\nq = 1\npoints = [0, 2]\nt0 = x\n", ConfigParseError,
     "not a constant expression: 'x' (unknown name 'x' (offset 0))", 4),
])
def test_config_errors_and_their_order(tmp_path, text, kind, message, line):
    f = tmp_path / "bad.cfg"
    f.write_text(text)
    with pytest.raises(kind) as exc:
        load_config(f)
    assert type(exc.value) is kind
    if line is None:
        assert str(exc.value) == message
    else:
        assert str(exc.value) == f"line {line}: {message}"
        assert exc.value.line == line


def test_a_byte_order_mark_is_skipped(tmp_path):
    # a Windows editor may begin the file with one; its first key read as
    # '\ufeffperiod', an unknown key (exit 3)
    text = "period = 2\nintervals = [[0, 2]]\nq = 1\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_config(marked) == load_config(plain)
    result, want = invoke(str(marked)), invoke(str(plain))
    assert result.exit_code == want.exit_code == 0
    assert result.output == want.output


# -- golden transcripts ------------------------------------------------------

GOLDEN_Z = """\
The value of A is 4.250000
The value of B is 1.000000
The modulus of multipliers are 0.250000 4.000000.
"""

GOLDEN_2Z = """\
The value of A is -0.752000
The value of B is 1.000000
The modulus of multipliers are 1.000000 1.000000.
"""

GOLDEN_HYBRID = """\
The value of A(1) is -1.214602
The value of B is 10.084206
The 1th approximate modulus are 3.175564 3.175564.
"""

GOLDEN_CONTINUOUS = """\
The value of A(3) is -0.065450
The value of B is 1.000000
The 3th approximate modulus are 1.000000 1.000000.
"""


@pytest.mark.parametrize("name,golden,code", [
    ("example_discrete_z.cfg", GOLDEN_Z, 1),
    ("example_discrete_2z.cfg", GOLDEN_2Z, 0),
    ("example_hybrid.cfg", GOLDEN_HYBRID, 1),
    ("example_continuous.cfg", GOLDEN_CONTINUOUS, 0),
])
def test_golden_transcripts(name, golden, code):
    result = invoke(str(CONFIGS / name))
    head = "".join(result.output.splitlines(keepends=True)[:3])
    assert head == golden
    assert result.exit_code == code


def test_text_summary_lines():
    result = invoke(str(CONFIGS / "example_discrete_z.cfg"))
    lines = result.output.splitlines()
    assert "A(2) = 4.250000" in lines
    assert "B = 1.000000" in lines
    assert "|rho| = 0.250000, 4.000000" in lines
    assert "error bound = exact" in lines
    assert "verdict = unstable" in lines


# -- flags and exit codes ----------------------------------------------------

def test_json_roundtrip():
    result = invoke(str(CONFIGS / "example_continuous.cfg"), "--json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    cfg = load_config(CONFIGS / "example_continuous.cfg")
    out, _ = run(cfg, as_json=True)
    again = json.loads(out)
    for key in ("n", "A_partial", "A_terms", "B", "err_bound", "moduli",
                "verdict", "method"):
        assert payload[key] == again[key]
    assert payload["A_partial"] == pytest.approx(-0.065450, abs=1e-5)
    assert payload["err_bound"]["value"] == pytest.approx(
        0.360016406528039, abs=1e-9)
    assert payload["verdict"] == "stable"


def reference_payload(report, check, elapsed):
    """The JSON report's payload, for json.dumps(payload, indent=2,
    sort_keys=True), which ``cli._json_report`` must write byte for
    byte."""
    return {
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
            "b_allowed": check.b_allowed,
        },
    }


def _assert_json_is_dumps(report, check=None):
    for elapsed in (0.0123, 1e-05, 3.0):
        want = json.dumps(reference_payload(report, check, elapsed),
                          indent=2, sort_keys=True) + "\n"
        assert cli._json_report(report, check, elapsed) == want


@pytest.mark.parametrize(
    "path",
    sorted(CONFIGS.glob("*.cfg")) + sorted(CONFIGS.glob("mathieu/*.cfg")),
    ids=lambda p: p.relative_to(CONFIGS).as_posix(),
)
def test_json_report_is_json_dumps(path):
    # at the config's own n, at n = 8, with --shi where the scale is
    # continuous (empty A_terms) and with --oracle
    config = load_config(path)
    spec = build_system(config)
    report = analyze(spec, n=config.n)
    _assert_json_is_dumps(report)
    _assert_json_is_dumps(report, cli.cross_check(spec, report))
    _assert_json_is_dumps(analyze(spec, n=8))
    if spec.ts.is_continuous:
        shi = analyze(spec, use_shi=True)
        assert shi.A_terms == []
        _assert_json_is_dumps(shi)
        _assert_json_is_dumps(shi, cli.cross_check(spec, shi))


@pytest.mark.parametrize("k, raised", [(3000, ValueError),
                                      (2900, OverflowError)])
def test_terms_that_fsum_refuses_are_undetermined(tmp_path, workloads, k,
                                                  raised):
    # the discrete generator at the exact order n = k, whose terms lost
    # every digit: at 3000 points they hold +inf, -inf and NaN, where fsum
    # raises "-inf + inf in fsum", and at 2900 a partial sum passes the
    # float range, "intermediate overflow in fsum" (each exited 4). A(n) is
    # NaN, so the bound is infinite and B decides nothing: undetermined
    f = tmp_path / "long.cfg"
    f.write_text(workloads.discrete_system(random.Random(0), "long", k).text)
    config = load_config(f)
    report = analyze(build_system(config))
    assert report.n == k
    with pytest.raises(raised):
        math.fsum(report.A_terms)
    if k == 3000:
        terms = report.A_terms
        assert math.inf in terms and -math.inf in terms
        assert any(math.isnan(a) for a in terms)
    assert math.isnan(report.A_partial)
    assert report.err_bound.value == math.inf
    assert report.verdict.value == "undetermined"
    _assert_json_is_dumps(report)
    out, code = run(config)
    assert f"A({k}) = nan" in out.splitlines()
    assert code == 2


@pytest.mark.parametrize(
    "path",
    sorted(CONFIGS.glob("*.cfg")) + sorted(CONFIGS.glob("mathieu/*.cfg")),
    ids=lambda p: p.relative_to(CONFIGS).as_posix(),
)
def test_oracle_agrees_on_committed_configs(path):
    # run raises CheckFailed if the RK monodromy disagrees with the report;
    # the phase form is checked too where it applies (dense scales)
    config = load_config(path)
    run(config, oracle=True)
    if build_system(config).ts.is_continuous:
        run(config, oracle=True, use_shi=True)


def test_oracle_flag():
    result = invoke(str(CONFIGS / "example_discrete_z.cfg"), "--oracle")
    assert "oracle A delta" in result.output
    assert result.exit_code == 1


def test_shi_flag():
    result = invoke(str(CONFIGS / "example_continuous.cfg"), "--shi",
                    "--json")
    payload = json.loads(result.output)
    assert payload["method"] == "phase-form"
    assert payload["A_partial"] == pytest.approx(-0.065450, abs=1e-5)


def test_shi_flag_on_hybrid_is_an_error():
    result = invoke(str(CONFIGS / "example_hybrid.cfg"), "--shi")
    assert result.exit_code == 4


def test_n_override():
    result = invoke(str(CONFIGS / "example_hybrid.cfg"), "--n", "2")
    assert result.output.startswith("The value of A(2) is")


def test_config_error_exit_code(tmp_path):
    f = tmp_path / "bad.cfg"
    f.write_text("period = 2\npoints = [0, 2]\n")
    result = invoke(str(f))
    assert result.exit_code == 3
    assert "config error" in result.stderr


def test_unreadable_config_exits_3(tmp_path):
    # a Latin-1 byte in a comment printed "error: UnicodeDecodeError: ..."
    # and exited 4
    f = tmp_path / "latin1.cfg"
    f.write_bytes(b"period = 2 # caf\xe9\nintervals = [[0, 2]]\nq = 1\n")
    result = invoke(str(f))
    assert result.exit_code == 3
    assert result.stderr.startswith(f"config error: cannot read {f}: ")
    assert "can't decode byte 0xe9" in result.stderr


def test_batch_reports_an_unreadable_config_and_goes_on(tmp_path):
    # a directory named x.cfg printed "error: IsADirectoryError: ..."
    (tmp_path / "x.cfg").mkdir()
    (tmp_path / "y.cfg").write_text(
        (CONFIGS / "example_continuous.cfg").read_text())
    result = CliRunner().invoke(main, ["analyze", "--batch", str(tmp_path)])
    assert result.exit_code == 3
    assert result.stderr == (f"config error: cannot read {tmp_path / 'x.cfg'}"
                             ": Is a directory\n")
    assert "== y.cfg ==\nThe value of A(3) is -0.065450" in result.output


def test_batch_reports_an_overflowing_constant_and_goes_on(tmp_path):
    # exp(1000) raised OverflowError out of the config reader, which
    # printed "error: OverflowError: ..." and raised the batch's exit to 4
    (tmp_path / "x.cfg").write_text(
        "period = exp(1000)\nintervals = [[0, 2]]\nq = 1\n")
    (tmp_path / "y.cfg").write_text(
        (CONFIGS / "example_continuous.cfg").read_text())
    result = CliRunner().invoke(main, ["analyze", "--batch", str(tmp_path)])
    assert result.exit_code == 3
    assert result.stderr == ("config error: line 1: not a constant "
                             "expression: 'exp(1000)' (exp(1000.0) at "
                             "t=0.0)\n")
    assert "== y.cfg ==\nThe value of A(3) is -0.065450" in result.output


_VALID = "period = 2\nintervals = [[0, 2]]\nq = 1\n"
_DISCRETE = "period = 2\npoints = [0, 1, 2]\nq = 1\n"


@pytest.mark.parametrize("text, args, n", [
    pytest.param(_DISCRETE, ("--n", "9223372036854775808"), 2 ** 63,
                 id="n-flag"),
    pytest.param(_DISCRETE + "n = 1e300\n", (), int(1e300), id="n-1e300"),
    # the config's number is a float, and sys.maxsize reads 2^63
    pytest.param(_DISCRETE + "n = 9223372036854775807\n", (), 2 ** 63,
                 id="n-maxsize-as-float"),
])
def test_an_order_past_sys_maxsize_is_analyzed(tmp_path, text, args, n):
    # such an n exited 3, as the terms were taken through an islice whose
    # stop may not pass sys.maxsize; the series of k = 2 points ends at
    # level 2, so the report is A(2)'s, under its own n
    f = tmp_path / "huge.cfg"
    f.write_text(text)
    result = invoke(str(f), "--json", *args)
    exact = invoke(str(f), "--json", "--n", "2")
    got, want = json.loads(result.stdout), json.loads(exact.stdout)
    assert (got.pop("n"), want.pop("n")) == (n, 2)
    assert (result.exit_code, result.stderr) == (exact.exit_code, "")
    for report in (got, want):
        del report["timing_seconds"]
    assert got == want
    assert len(got["A_terms"]) == 3


def _overflow_system(p, q):
    return f"period = 2\nintervals = [[0, 2]]\np = {p}\nq = {q}\n"


def _example(name, order=""):
    """A committed example config's text, its own n line replaced by
    ``order``."""
    text = (CONFIGS / f"{name}.cfg").read_text()
    return re.sub(r"(?m)^n = .*\n", "", text) + order


_HUGE_N = "100000000000000000000"
_BUILTIN_ERRORS = [name for name in dir(builtins) if name.endswith("Error")
                   or name == "Exception"]


def _hybrid(cells, p=None):
    """The text of the benchmark's seeded damped hybrid of ``cells`` dense
    cells, from ``workloads``, with its p replaced by ``p`` if given."""
    def text(workloads):
        text = workloads.hybrid_system(random.Random(1), "row", cells,
                                       True).text
        return text if p is None else re.sub(r"(?m)^p = .*$", f"p = {p}",
                                             text)
    return text


def _phi_jump(at, chain, limit):
    return (f"PhiDiscontinuityWarning: phi is discontinuous at t={at}: "
            f"chain value {chain} vs dense limit {limit}")


# p with a kink at multiples of 1.3, inside several cells of the hybrids, so
# that B's dense integrals refine each cell to its own depth
_KINKED_P = "0.3 + 0.1*abs(sin(pi*t/1.3))"


@pytest.mark.parametrize("system, args, code, out, err, warned", [
    # an order far past k on a discrete scale walks k levels: A(n) = A(k)
    pytest.param(_example("example_discrete_z"), ("--n", _HUGE_N), 1,
                 f"A({_HUGE_N}) = 4.250000", "", [], id="discrete-n-flag"),
    pytest.param(_example("example_discrete_z", "n = 1e300\n"), (), 1,
                 f"A({int(1e300)}) = 4.250000", "", [],
                 id="discrete-n-1e300"),
    pytest.param(_example("example_continuous"), ("--n", _HUGE_N), 4, "",
                 f"error: n={_HUGE_N} exceeds the depth budget 8 on a "
                 "non-discrete scale\n", [], id="continuous-n-flag"),
    pytest.param(_example("example_continuous", "n = 1e300\n"), (), 4, "",
                 f"error: n={int(1e300)} exceeds the depth budget 8 on a "
                 "non-discrete scale\n", [], id="continuous-n-1e300"),
    # the 1e-12 tolerance snaps the one point to both t0 and t0 + T, which
    # left no scattered point and raised IndexError in solve_phi
    pytest.param("period = 1e-13\npoints = [0]\np = 0.1\nq = 0.5\n", (), 3,
                 "", "config error: t0/period/points/intervals: the only "
                 "segment Point(x=0.0) is both t0=0.0 and t0+T=1e-13: the "
                 "period 1e-13 is within the tolerance 1e-12 max(1, |t|)\n",
                 [], id="tiny-period"),
    # each printed its builtin class, "error: OverflowError: ..." or
    # "error: ValueError: ..."
    pytest.param(_overflow_system("0", "exp(t*400)"), (), 4, "",
                 "error: exp(710.9375) at t=1.77734375\n", [],
                 id="exp-overflow"),
    pytest.param(_overflow_system("sin(t * 1e300 * 1e300)", "1"), (), 4, "",
                 "error: sin of inf at t=1.0\n", [], id="sin-of-inf"),
    pytest.param(_overflow_system("neg1pow(t * 1e300 * 1e300)", "1"), (), 4,
                 "", "error: neg1pow argument inf at t=1.0\n", [],
                 id="neg1pow-of-inf"),
    pytest.param(_overflow_system("neg1pow(t * 1e300 * 1e300 - 1e300 * 1e300"
                                  " * t)", "1"), (), 4, "",
                 "error: neg1pow argument nan at t=1.0\n", [],
                 id="neg1pow-of-nan"),
    # the benchmark's 100-cell hybrid, 200 scattered points and a nested
    # if/mod q, and its 1000-cell one, 2000 points and ~33,000 panel nodes
    # through the grid's one walk over q, p and q'; the oracle over the 100
    # dense cells at once
    pytest.param(_hybrid(100), ("--n", "3"), 2,
                 "verdict = undetermined", "", [], id="hybrid-100-cells-n3"),
    pytest.param(_hybrid(100), ("--n", "8"), 2,
                 "verdict = undetermined", "", [], id="hybrid-100-cells-n8"),
    pytest.param(_hybrid(100), ("--n", "3", "--oracle"),
                 2, "oracle B delta = ", "", [],
                 id="hybrid-100-cells-oracle"),
    pytest.param(_hybrid(1000), ("--n", "3"), 2,
                 "verdict = undetermined", "", [], id="hybrid-1000-cells-n3"),
    # the 10- and 100-cell hybrids with a kinked p, whose B the oracle
    # checks against the determinant of the monodromy (B = 0.0318 and
    # ~1.2e-15), relative to it
    pytest.param(_hybrid(10, _KINKED_P), ("--n", "3"),
                 2, "B = 0.031799", "", [], id="kinked-10-cells"),
    pytest.param(_hybrid(10, _KINKED_P),
                 ("--n", "3", "--oracle"), 2, "oracle B delta = ", "", [],
                 id="kinked-10-cells-oracle"),
    pytest.param(_hybrid(100, _KINKED_P), ("--n", "3"),
                 2, "verdict = undetermined", "", [], id="kinked-100-cells"),
    pytest.param(_hybrid(100, _KINKED_P),
                 ("--n", "3", "--oracle"), 2, "oracle B delta = ", "", [],
                 id="kinked-100-cells-oracle"),
    # 1000 unit steps with |1 + i mu phi| > 2: E overflows, so the array
    # walk of the series carries inf and NaN, and 400 unit dense cells and
    # one point with q = 400, where E overflows past a dense row as a numpy
    # scalar: A(3) = nan and B = inf read unstable, with no RuntimeWarning
    pytest.param("t0 = 0\nperiod = 1000\npoints = [" + ", ".join(
        map(str, range(1001))) + "]\np = 0.1\nq = 4 + 0.5*cos(2*pi*t/1000)\n",
                 ("--n", "3"), 1, "A(3) = nan", "", [],
                 id="unit-steps-1000-overflow"),
    pytest.param("t0 = 0\nperiod = 800\npoints = [800]\nintervals = [" +
                 ", ".join(f"[{2 * i}, {2 * i + 1}]" for i in range(400)) +
                 "]\np = 0.1\nq = 400\n", ("--n", "3"), 1, "A(3) = nan", "",
                 [], id="hybrid-400-cells-overflow"),
    # the junction row of ROADMAP item 1: phi jumps where [0, pi] meets its
    # scattered right end, and B = 7.71 > 1 reads unstable
    pytest.param("t0 = 0\nperiod = 2*pi\npoints = [2*pi]\n"
                 "intervals = [[0, pi]]\np = 0.1\nq = 2 + cos(t)\nn = 8\n",
                 (), 1, "B = 7.709726", "",
                 [_phi_jump(math.pi, 0.5773502691896258, 1.0)],
                 id="junction-phi-jump"),
    # q redefined at the dense start 2: the chain reads phi = 2 there
    # against the dense limit 1 just inside, and B = 3 > 1 reads unstable
    pytest.param("period = 3\nintervals = [[0, 1], [2, 3]]\np = 0\n"
                 "q = if(eq(t, 2), 4, if(eq(t, 1), 2, 1))\nn = 8\n", (), 1,
                 "B = 3.000000", "", [_phi_jump(2.0, 2.0, 1.0)],
                 id="dense-start-phi-jump"),
    # s = 1e6 of the s-family: the phase winds ~6000 radians, and the
    # series meets the oracle's A within the n = 8 bound, which a grid of
    # T/4096 missed by 2.84e-5 (exit 4)
    pytest.param("period = 2*pi\nintervals = [[0, 2*pi]]\np = 0.01*sin(t)\n"
                 "q = 1e6*(1 + 0.3*cos(t))\n", ("--n", "8", "--oracle"), 0,
                 "verdict = stable", "", [], id="s-family-1e6-oracle"),
    # q = 1 on [1e15, 1e15 + 520], where t's float spacing is 0.125: the
    # oracle cuts its panels as offsets within the interval, so it meets
    # A(3) = 2 cos(520) within 1e-8; absolute panel ends halved onto
    # themselves and missed it by 3.9e-8 (exit 4)
    pytest.param("t0 = 1e15\nperiod = 520\nintervals = [[1e15, 1e15+520]]\n"
                 "p = 0\nq = 1\n", ("--oracle",), 0,
                 f"A(3) = {2 * math.cos(520):.6f}", "", [],
                 id="far-t0-oracle"),
])
def test_input_hardening_rows(tmp_path, workloads, system, args, code, out,
                              err, warned):
    # each row exits with its verdict's code or a named error's 3 or 4,
    # with only the warnings named, and none reaches _run_one's catch-all,
    # which names a builtin class
    f = tmp_path / "row.cfg"
    f.write_text(system if isinstance(system, str) else system(workloads))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = invoke(str(f), *args)
    assert (result.exit_code, result.stderr) == (code, err)
    assert out in result.stdout
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == warned
    assert not any(f"{name}:" in result.stderr for name in _BUILTIN_ERRORS)


# the seeds of the fuzzed configs whose analysis reaches _run_one's
# catch-all, each with its FOUND line in CHANGES.md
_FUZZ_CATCH_ALL = set()


def test_fuzzed_configs_reach_no_catch_all(tmp_path):
    # the first 300 configs of ROADMAP item 20's seeded stream: each exits
    # 0-4 and names no builtin class, and only the known seeds raise an
    # error that is no TsfloquetError
    caught, codes = set(), set()
    for seed, code, stderr, error in config_fuzz.outcomes(
            config_fuzz.configs(300), tmp_path):
        assert 0 <= code <= 4, seed
        assert not any(f"{name}:" in stderr for name in _BUILTIN_ERRORS), \
            (seed, stderr)
        if error is not None and not isinstance(error, TsfloquetError):
            caught.add(seed)
        codes.add(code)
    assert caught == _FUZZ_CATCH_ALL
    assert {0, 1, 2, 4} <= codes


def test_a_subnormal_b_passes_the_oracle(tmp_path, workloads):
    # 3000 points of the discrete generator: B = 1e-323 and det(Y) = 0.0,
    # whose delta, two subnormal spacings, was allowed 0.0 and exited 4
    f = tmp_path / "long.cfg"
    f.write_text(workloads.discrete_system(random.Random(0), "long", 3000).text)
    result = invoke(str(f), "--n", "3", "--oracle", "--json")
    assert (result.exit_code, result.stderr) == (2, "")
    report = json.loads(result.stdout)
    oracle = report["oracle"]
    assert report["B"] == 1e-323 and oracle["b_oracle"] == 0.0
    assert oracle["b_delta"] == 1e-323
    assert oracle["b_allowed"] == (4 * 3000 - 2) * 2.0 ** -1074



@pytest.mark.parametrize("text, args", [
    pytest.param(_VALID + "p = sin(\n", (), id="p-syntax"),
    pytest.param("period = 2\nintervals = [[0, 2]]\nq = sin(\n", (),
                 id="q-syntax"),
    pytest.param(_VALID + "qprime = sin(\n", (), id="qprime-syntax"),
    pytest.param("period = -2\nintervals = [[0, 2]]\nq = 1\n", (),
                 id="period-negative"),
    pytest.param("period = 2\nintervals = [[0, 1], [0.5, 2]]\nq = 1\n", (),
                 id="intervals-overlap"),
    pytest.param("period = 2\npoints = [0, 1]\nq = 1\n", (),
                 id="endpoint-not-covered"),
    pytest.param(_VALID, ("--n", "-1"), id="n-flag-negative"),
    pytest.param(_VALID + "tol = -1\n", (), id="tol-negative"),
    pytest.param(_VALID + "tol = 1e300*1e300 - 1e300*1e300\n", (),
                 id="tol-nan"),
    pytest.param(_VALID + "n = 1e400\n", (), id="n-inf"),
    pytest.param(_VALID + "n = 1e400 - 1e400\n", (), id="n-nan"),
    pytest.param("period = 1e400\nintervals = [[0, 1e400]]\nq = 1\n", (),
                 id="period-inf"),
    pytest.param("t0 = -1e308\nperiod = 1.9e308\n"
                 "intervals = [[-1e308, 0.9e308]]\nq = 1\n", (),
                 id="period-parses-to-inf"),
    pytest.param(_VALID + "q = 2\n", (), id="duplicate-key"),
    pytest.param("intervals = [[0, 2]]\nq = 1\n", (), id="no-period"),
    pytest.param("period = 2\nintervals = [[0, 1, 2]]\nq = 1\n", (),
                 id="interval-three-endpoints"),
    pytest.param("period = 2\nq = 1\n", (), id="no-segments"),
    pytest.param("period = 2\npoints = [0, t]\nq = 1\n", (),
                 id="point-not-constant"),
    # a constant whose evaluation overflows, as exp and neg1pow raise it
    pytest.param("period = exp(1000)\nintervals = [[0, 2]]\nq = 1\n", (),
                 id="period-exp-overflows"),
    pytest.param(_VALID + "t0 = exp(710)\n", (), id="t0-exp-overflows"),
    pytest.param("period = 2\npoints = [0, exp(800)]\nq = 1\n", (),
                 id="point-exp-overflows"),
    pytest.param("period = neg1pow(1e999)\nintervals = [[0, 2]]\nq = 1\n",
                 (), id="period-neg1pow-of-inf"),
    pytest.param(_VALID + "n = exp(1000)\n", (), id="n-exp-overflows"),
])
def test_config_content_errors_exit_3(tmp_path, text, args):
    f = tmp_path / "bad.cfg"
    f.write_text(text)
    result = invoke(str(f), *args)
    assert result.exit_code == 3
    assert "config error" in result.stderr


@pytest.mark.parametrize("key, text, message", [
    ("q", "1 + é", "unexpected character 'é' (offset 4)"),
    ("p", "ß*t", "unexpected character 'ß' (offset 0)"),
    ("qprime", "tµ", "unexpected character 'µ' (offset 1)"),
    ("q", "(" * 200 + "1" + ")" * 200, "expression nested too deeply"),
    ("q", "sqrt(" * 150 + "t" + ")" * 150, "expression nested too deeply"),
    # a digit outside ASCII, which read as a number
    ("q", "１", "unexpected character '１' (offset 0)"),
], ids=["q-non-ascii", "p-non-ascii", "qprime-non-ascii", "q-parentheses",
        "q-sqrt", "q-non-ascii-digit"])
def test_malformed_expressions_exit_3(tmp_path, key, text, message):
    # each printed "error: AttributeError: ..." or "error: RecursionError:
    # ..." and exited 4
    f = tmp_path / "bad.cfg"
    lines = {"q": "1", key: text}
    f.write_text("period = 2\nintervals = [[0, 2]]\n" + "".join(
        f"{k} = {v}\n" for k, v in lines.items()), encoding="utf-8")
    result = invoke(str(f))
    assert result.exit_code == 3
    assert result.stderr.startswith(f"config error: {key}: {message}")


@pytest.mark.parametrize("text, line", [
    ("period = ٢\nintervals = [[0, 2]]\nq = 1\n", 1),
    ("period = 2\nintervals = [[0, ٢]]\nq = 1\n", 2),
], ids=["period", "interval-end"])
def test_non_ascii_digits_exit_3(tmp_path, text, line):
    # each read as 2 and analyzed, exit 0
    f = tmp_path / "bad.cfg"
    f.write_text(text, encoding="utf-8")
    result = invoke(str(f))
    assert result.exit_code == 3
    assert result.stderr.startswith(f"config error: line {line}: ")
    assert "unexpected character '٢' (offset 0)" in result.stderr


_SUM500 = " + ".join(["0.001"] * 500)
_SUM900 = " + ".join(["0.001"] * 900)
_TSUM1000 = " + ".join(["t"] * 1000)
_TSUM10000 = " + ".join(["t"] * 10000)


@pytest.mark.parametrize("text, args, code", [
    # a constant sum as a scalar key exited 4 with RecursionError, and as
    # an exponent 3, read as nested too deeply
    (f"period = {_SUM500}\nintervals = [[0, {_SUM500}]]\np = 0.1\nq = 2\n",
     (), 0),
    (f"period = {_SUM900}\nintervals = [[0, {_SUM900}]]\np = 0.1\nq = 2\n",
     (), 0),
    (f"period = 1\nintervals = [[0, 1]]\np = 0.1\nq = 1 + t^({_SUM500})\n",
     (), 2),
    # 1000-term sums of t in q and in p exited 4 with RecursionError; the
    # oracle's monodromy agrees with each analysis
    (f"period = 1\nintervals = [[0, 1]]\np = 0\nq = 1 + 0.001*({_TSUM1000})\n",
     (), 2),
    (f"period = 1\nintervals = [[0, 1]]\np = 0\nq = 1 + 0.001*({_TSUM1000})\n",
     ("--oracle",), 2),
    (f"period = 1\nintervals = [[0, 1]]\np = 0.1 + 0.0001*({_TSUM1000})\n"
     "q = 2\n", (), 0),
    (f"period = 1\nintervals = [[0, 1]]\np = 0.1 + 0.0001*({_TSUM1000})\n"
     "q = 2\n", ("--oracle",), 0),
    # 10^4-term sums of t in q, which keeps phi continuous, and in p
    (f"period = 1\nintervals = [[0, 1]]\np = 0.1\n"
     f"q = 2 + sin(2*pi*0.0001*({_TSUM10000}))\n", (), 2),
    (f"period = 1\nintervals = [[0, 1]]\np = 0.1 + 0.0001*({_TSUM10000})\n"
     "q = 2\n", (), 0),
], ids=["period-500-terms", "period-900-terms", "exponent-500-terms",
        "q-1000-terms", "q-1000-terms-oracle", "p-1000-terms",
        "p-1000-terms-oracle", "q-10000-terms", "p-10000-terms"])
def test_long_sums_analyze(tmp_path, text, args, code):
    f = tmp_path / "long.cfg"
    f.write_text(text)
    result = invoke(str(f), *args)
    assert result.exit_code == code, result.output + result.stderr


def test_quoted_expressions_are_accepted(tmp_path):
    quoted, bare = tmp_path / "quoted.cfg", tmp_path / "bare.cfg"
    quoted.write_text("period = 2\nintervals = [[0, 2]]\nq = \"1\"\n")
    bare.write_text(_VALID)
    result = invoke(str(quoted))
    assert result.exit_code == 0
    assert result.output == invoke(str(bare)).output


def test_tol_is_an_unknown_config_key(tmp_path):
    # even the value every analysis uses: B's quadrature target is fixed
    f = tmp_path / "tol.cfg"
    f.write_text(_VALID + "tol = 1e-9\n")
    result = invoke(str(f))
    assert result.exit_code == 3
    assert result.stderr.startswith("config error: ")
    assert result.stderr.endswith("unknown key 'tol'\n")


@pytest.mark.parametrize("text, named", [
    pytest.param("period = 3\npoints = [3]\n"
                 "intervals = [[0, 1], [2, 2.000000000000001]]\n",
                 "[2.0, 2.000000000000001]", id="sub-ulp-second-cell"),
    pytest.param("t0 = 1e15\nperiod = 1\nintervals = [[1e15, 1e15+1]]\n",
                 "[1000000000000000.0, 1000000000000001.0]",
                 id="steps-below-the-spacing"),
    # a dense part under 4096 float spacings: its panel's nodes would
    # round far off the Chebyshev points, or repeat
    pytest.param("t0 = 0\nperiod = 1e-320\nintervals = [[0, 1e-320]]\n",
                 "[0.0, 1e-320] is too short for its 32 grid steps",
                 id="spacing-underflows"),
    # the bound's spacing T / 512 underflows to 0 as well: refused before
    # any grid is sampled, not an IndexError (exit 4)
    pytest.param("t0 = 0\nperiod = 1e-322\nintervals = [[0, 1e-322]]\n",
                 "[0.0, 1e-322] is too short for its 32 grid steps",
                 id="bound-spacing-underflows"),
])
def test_interval_too_short_for_its_grid_exits_3(tmp_path, text, named):
    # the grid's nodes of the named interval collapse at the float spacing
    f = tmp_path / "short.cfg"
    f.write_text(text + "p = 0\nq = 1\n")
    result = invoke(str(f))
    assert result.exit_code == 3
    assert result.stderr.startswith("config error: interval " + named)
    with pytest.raises(InvalidSegment, match=re.escape(named)):
        analyze(build_system(load_config(f)))


@pytest.mark.parametrize("segments, named", [
    pytest.param("intervals = [[-5e-13, -2e-13], [0.5, 1]]\npoints = [0.25]",
                 "[-5e-13, -2e-13] would end at or before its start",
                 id="left-end"),
    pytest.param("intervals = [[0, 0.5], [1.0000000000002, 1.0000000000005]]"
                 "\npoints = [0.75]",
                 "[1.0000000000002, 1.0000000000005] would start at or after "
                 "its end", id="right-end"),
])
def test_interval_turned_around_by_snapping_exits_3(tmp_path, segments,
                                                     named):
    # the extremity snapped to t0 or t0 + T inverted the interval, which
    # was then refused as "[0.0, -2e-13] is too short", an interval the
    # config does not hold; it is named as written, before any sampling
    f = tmp_path / "inverted.cfg"
    f.write_text(f"t0 = 0\nperiod = 1\n{segments}\np = 0\nq = 1\n")
    result = invoke(str(f))
    assert result.exit_code == 3
    assert result.stderr.startswith(
        "config error: t0/period/points/intervals: interval " + named)


def test_interval_just_above_the_float_floor_analyzes(tmp_path):
    # 520 > 4096 spacings of 0.125 at 1e15: the panels' and the bound
    # sample's nodes stay distinct, and A = 2 cos(520) as for q = 1 anywhere
    f = tmp_path / "floor.cfg"
    f.write_text("t0 = 1e15\nperiod = 520\nintervals = [[1e15, 1e15+520]]\n"
                 "p = 0\nq = 1\n")
    result = invoke(str(f))
    assert result.exit_code == 0
    assert f"A(3) = {2 * math.cos(520):.6f}" in result.output.splitlines()


@pytest.mark.parametrize("points, named", [
    ("[0, 1e400 - 1e400, 1, 2]", "Point(x=nan)"),
    ("[0, 1, 1e400, 2]", "Point(x=inf)"),
])
def test_non_finite_point_exits_3(tmp_path, points, named):
    # the CLI names the segment, not a later membership failure of t0
    f = tmp_path / "nan.cfg"
    f.write_text(f"period = 2\npoints = {points}\np = 0\nq = 1\n")
    result = invoke(str(f))
    assert result.exit_code == 3
    assert result.stderr.startswith("config error: ")
    assert result.stderr.endswith(f": segment {named} is not finite\n")


@pytest.mark.parametrize("k", [48, 96])
def test_long_discrete_period_is_undetermined(tmp_path, k):
    # mu = 0.5 and B < 1; at n = 3 the tail bound is huge (k = 48) or
    # beyond the float range (k = 96), so no verdict can be certified
    T = 0.5 * k
    points = ", ".join(repr(0.5 * i) for i in range(k + 1))
    f = tmp_path / "long.cfg"
    f.write_text(
        f"period = {T!r}\n"
        f"points = [{points}]\n"
        f"p = 0.7 + 0.1*sin(2*pi*t/{T!r})\n"
        f"q = 0.5 + 0.1*cos(2*pi*t/{T!r})\n"
    )
    result = invoke(str(f), "--n", "3")
    assert "verdict = undetermined" in result.output.splitlines()
    assert result.exit_code == 2


def test_conservative_system_is_not_unstable(tmp_path):
    # the integral of p over the period is 0, so B = 1, which Liouville's
    # quadrature returns one ulp above; that ulp must not read as a
    # modulus above 1
    f = tmp_path / "conservative.cfg"
    f.write_text("t0 = 0.1\nperiod = 3.7\nintervals = [[0.1, 3.8]]\n"
                 "q = 30\np = 3*sin(2*pi*(t - 1.9127)/3.7)\n")
    result = invoke(str(f))
    assert "|rho| = 1.000000, 1.000000" in result.output.splitlines()
    assert "verdict = undetermined" in result.output.splitlines()
    assert result.exit_code == 2
    # the reported modulus intervals are the ones the verdict reads: B may
    # be exactly 1, so neither lies above 1
    result = invoke(str(f), "--json")
    payload = json.loads(result.output)
    assert payload["B"] == 1.0 + 2 * 2.0 ** -52
    assert payload["verdict"] == "undetermined"
    assert payload["moduli"]["smaller_interval"][0] <= 1.0
    assert payload["moduli"]["larger_interval"][0] <= 1.0
    assert result.exit_code == 2


def _overflow_config(tmp_path, k):
    """k unit steps with 1 - mu p + mu^2 q > 4: B = prod(1 - mu p + mu^2 q)
    overflows to inf, and so does the monodromy."""
    points = ", ".join(str(i) for i in range(k + 1))
    f = tmp_path / "overflow.cfg"
    f.write_text(
        f"period = {k}\n"
        f"points = [{points}]\n"
        "p = 0.1\n"
        f"q = 4 + 0.5*cos(2*pi*t/{k})\n"
    )
    return str(f)


def test_overflowing_B_is_unstable(tmp_path):
    # the moduli come out NaN, but |B| > 1 still proves a multiplier
    # outside the unit circle
    result = invoke(_overflow_config(tmp_path, 500))
    assert "B = inf" in result.output.splitlines()
    assert "verdict = unstable" in result.output.splitlines()
    assert result.exit_code == 1


def _long_unstable_config(tmp_path):
    """p = -1 on one dense interval 800 long: B = e^800 lies past the
    float range, where math.exp raises OverflowError."""
    f = tmp_path / "long_unstable.cfg"
    f.write_text("t0 = 0\nperiod = 800\nintervals = [[0, 800]]\n"
                 "p = -1\nq = 1\n")
    return str(f)


def test_B_past_the_float_range_is_unstable(tmp_path):
    # the run decides the system, with no numpy warning, instead of
    # exiting 4 on the overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = invoke(_long_unstable_config(tmp_path))
    lines = result.output.splitlines()
    assert "B = inf" in lines
    assert "verdict = unstable" in lines
    assert result.exit_code == 1
    assert caught == []


def test_oracle_fails_on_B_past_the_float_range(tmp_path):
    # the oracle's B is no finite number either, which is no agreement
    result = invoke(_long_unstable_config(tmp_path), "--oracle")
    assert result.exit_code == 4
    assert "oracle disagreement" in result.stderr


def test_oracle_scales_its_tolerances_with_large_A_and_B(tmp_path):
    # p = -1 on [0, 20]: B = e^20 ~ 4.85e8, and the oracle's determinant
    # differs from it by ~2e-2, 4.5e-11 relative; an unstable system
    # (exit 1), not an oracle disagreement (exit 4)
    f = tmp_path / "e20.cfg"
    f.write_text("t0 = 0\nperiod = 20\nintervals = [[0, 20]]\n"
                 "p = -1\nq = 1\n")
    result = invoke(str(f), "--oracle", "--json")
    assert result.exit_code == 1, result.stderr
    oracle = json.loads(result.output)["oracle"]
    assert oracle["b_allowed"] == 1e-8 * abs(oracle["b_oracle"])
    assert 0.0 < oracle["b_delta"] <= oracle["b_allowed"]
    result = invoke(str(f), "--oracle")
    assert result.exit_code == 1
    assert re.search(r"^oracle B delta = \S+ \(allowed 4\.85\de\+00\)$",
                     result.output, re.M), result.output


def test_oracle_allows_for_det_cancellation(tmp_path):
    # det(Y) = 1.01 subtracts two products of ~3.9e8: the oracle's
    # determinant is ~3e-8 off B from rounding alone, which the check
    # allows for; an unstable system (exit 1), not a disagreement (exit 4)
    f = tmp_path / "det_cancel.cfg"
    f.write_text("t0 = 0\nperiod = 12\npoints = [" + ", ".join(
        map(str, range(13))) + "]\np = 0\nq = -2 + 0.1*cos(t)\n")
    result = invoke(str(f), "--oracle")
    assert result.exit_code == 1, result.stderr


@pytest.mark.parametrize("k", [500, 1000])
def test_oracle_fails_on_nan_deltas(tmp_path, k):
    # the B delta (k = 500) or both deltas (k = 1000) are NaN, which is
    # no agreement
    result = invoke(_overflow_config(tmp_path, k), "--n", "3", "--oracle")
    assert result.exit_code == 4
    assert "oracle disagreement" in result.stderr


def test_nan_bound_constants_give_an_infinite_bound(tmp_path):
    # at 1000 points the bound constants come out NaN; a NaN must never
    # read as the bound 0, which would claim A(3) is exact
    spec = build_system(load_config(_overflow_config(tmp_path, 1000)))
    report = analyze(spec, n=3)
    assert report.err_bound.value == math.inf
    assert not report.err_bound.exact


def test_non_finite_A_is_never_exact(tmp_path):
    # 240 unit steps with q ~ 400 at the exact order: the phase factor
    # overflows, so A(240) is lost; its bound is infinite, never exact, and
    # B = inf still proves a multiplier outside the unit circle
    points = ", ".join(str(i) for i in range(241))
    f = tmp_path / "lost_A.cfg"
    f.write_text(f"period = 240\npoints = [{points}]\np = 0.1\n"
                 "q = 400 + 50*cos(2*pi*t/240)\n")
    result = invoke(str(f))
    lines = result.output.splitlines()
    assert "A(240) = nan" in lines
    assert "error bound = inf" in lines
    assert "verdict = unstable" in lines
    assert result.exit_code == 1
    result = invoke(str(f), "--json")
    payload = json.loads(result.output)
    assert math.isnan(payload["A_partial"])
    assert payload["err_bound"] == {"value": math.inf, "exact": False}
    assert payload["verdict"] == "unstable"
    assert result.exit_code == 1


def test_a_phi_jump_gives_an_infinite_bound(tmp_path):
    # Meissner's q, 1.5 on [0, pi) and 0.5 on [pi, 2 pi): the chain's phi
    # at t0 + T is sqrt(q(0)), against the dense limit sqrt(0.5) there, so
    # phi jumps and the series does not hold across the jump. A(3) =
    # 1.954338 read "stable" with the bound 0, where the closed form gives
    # A = 2.114075 and a multiplier of modulus 1.40. The bound is now
    # infinite and B = 1 decides nothing: undetermined (exit 2). The oracle
    # then meets A within that bound, where it found a disagreement (exit 4)
    f = tmp_path / "meissner.cfg"
    f.write_text("period = 2*pi\nintervals = [[0, 2*pi]]\np = 0\n"
                 "q = if(lt(t, pi), 1.5, 0.5)\n")
    for args in ((), ("--oracle",)):
        result = invoke(str(f), *args)
        lines = result.stdout.splitlines()
        assert "error bound = inf" in lines
        assert "verdict = undetermined" in lines
        assert result.exit_code == 2


def test_tail_bound_past_the_float_range_is_undetermined(tmp_path):
    # on a period of 1e80 the bound's z = 5.0e79 overflows e^z: the bound is
    # infinite and no verdict is certified
    f = tmp_path / "huge.cfg"
    f.write_text("period = 1e80\nintervals = [[0, 1e80]]\np = 0\n"
                 "q = 2 + cos(t)\n")
    result = invoke(str(f))
    lines = result.output.splitlines()
    assert "error bound = inf" in lines
    assert "verdict = undetermined" in lines
    assert result.exit_code == 2


@pytest.mark.parametrize("text, args, message", [
    # the chain from the default seed phi(0) = sqrt(q(0)) = 1e5 reads
    # phi(2) = q(1) / phi(1) = 1e-10 / 1e5, under 1e-14 (ROADMAP item 26
    # counts such a regressive scale as wrongly refused)
    pytest.param("period = 3\npoints = [0, 1, 2, 3]\np = 0\n"
                 "q = if(eq(t, 0), 1e10, 1e-10)\n", (),
                 "phi vanishes at t=2.0", id="phi-vanishes-on-the-chain"),
    # a q within 1e-14 of 0 at a scattered point is named with its value,
    # where the message read "q(t)=0" for any such q
    pytest.param("period = 2\npoints = [0, 1, 2]\nq = 1e-300\n", (),
                 "q = 1e-300 is within 1e-14 of 0 at t=0.0 at a scattered "
                 "point", id="q-near-zero-at-a-point"),
    pytest.param((CONFIGS / "example_continuous.cfg").read_text(),
                 ("--shi", "--n", "17"), "n=17 exceeds the depth budget",
                 id="phase-form-depth-budget"),
    # q' = (t - 0.5) / |t - 0.5| divides by zero at the middle node of the
    # one panel: q and p succeed on the grid's shared walk, and q' raises
    pytest.param("period = 1\nintervals = [[0, 1]]\np = 0\n"
                 "q = 2 + abs(t - 0.5)\n", (), "division by zero at t=0.5",
                 id="qprime-division-by-zero"),
])
def test_refused_analyses_exit_4(tmp_path, text, args, message):
    f = tmp_path / "refused.cfg"
    f.write_text(text)
    result = invoke(str(f), *args)
    assert result.exit_code == 4
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("args", [(), ("--oracle",)])
def test_non_finite_coefficient_exits_4(tmp_path, args):
    # q is 1 + 0 * (inf - inf) = NaN on the dense part: it is named at the
    # dense start 0, where the sample of q at the dense starts meets it
    # before any grid reads q, and before any NaN reaches A or a numpy
    # warning, with or without the oracle
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("period = 1\nintervals = [[0, 1]]\n"
                   "q = 1 + 0*(1e200*1e200 - 1e200*1e200)\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = invoke(str(cfg), *args)
    assert result.exit_code == 4
    assert result.stderr == ("error: q = nan is not finite at t=0.0 on a "
                             "dense part\n")
    assert result.output == result.stderr
    assert caught == []


@pytest.mark.parametrize("args", [(), ("--shi",)])
def test_non_finite_p_on_a_dense_part_exits_4_at_once(tmp_path, args):
    # B's quadrature met a NaN error estimate on every panel and halved
    # them for 1.4 s, until "tolerance 1e-09 unreachable within 1000000
    # evaluations"; the first NaN p its scalar loop meets is named instead
    cfg = tmp_path / "nan_p.cfg"
    cfg.write_text("t0 = 0\nperiod = 2*pi\nintervals = [[0, 2*pi]]\n"
                   "p = 0*(1e200*1e200 - 1e200*1e200)\nq = 1/4\n")
    start = time.perf_counter()
    result = invoke(str(cfg), *args)
    assert time.perf_counter() - start < 0.2
    assert result.exit_code == 4
    assert result.stderr == ("error: p = nan is not finite at "
                             "t=3.141592653589793 on a dense part\n")


_NAN = "1 + 0*(1e200*1e200 - 1e200*1e200)"


@pytest.mark.parametrize("args", [(), ("--oracle",)])
@pytest.mark.parametrize("text, message", [
    # a NaN q at every point printed A = nan, B = nan and exited 2
    pytest.param("period = 4\npoints = [0, 1, 2, 3, 4]\np = 0.5\n"
                 f"q = {_NAN}\n",
                 "q = nan is not finite at t=0.0 at a scattered point",
                 id="q-nan-discrete"),
    # a NaN q at the point 2 leaked a RuntimeWarning from the jump weights
    pytest.param("period = 3\nintervals = [[0, 1]]\npoints = [2, 3]\n"
                 f"p = 0.5\nq = if(eq(t, 2), {_NAN}, 1)\n",
                 "q = nan is not finite at t=2.0 at a scattered point",
                 id="q-nan-hybrid-point"),
    # an infinite p at 2 printed B = -inf and exited 1, "unstable"
    pytest.param("period = 4\npoints = [0, 1, 2, 3, 4]\n"
                 "p = if(eq(t, 2), 1e308*10, 0.5)\nq = 1\n",
                 "p = inf is not finite at t=2.0 at a scattered point",
                 id="p-inf-discrete"),
    # a NaN q at the dense left endpoint 1 gave A(3) = nan and a warning
    pytest.param("period = 2\npoints = [0, 0.5]\nintervals = [[1, 2]]\n"
                 f"p = 0.5\nq = if(eq(t, 1), {_NAN}, 1)\n",
                 "q = nan is not finite at t=1.0 on a dense part",
                 id="q-nan-dense-endpoint"),
])
def test_non_finite_coefficient_at_a_point_exits_4(tmp_path, text, message,
                                                   args):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = invoke(str(cfg), *args)
    assert result.exit_code == 4
    assert result.stderr == f"error: {message}\n"
    assert result.output == result.stderr
    assert caught == []


def test_unexpected_exception_exit_code(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("tsfloquet.cli.analyze", boom)
    result = invoke(str(CONFIGS / "example_discrete_z.cfg"))
    assert result.exit_code == 4
    assert result.stderr.startswith("error:")
    assert "boom" in result.stderr


def test_missing_file_exit_code():
    result = invoke("/nonexistent.cfg")
    assert result.exit_code != 0


@pytest.mark.parametrize("args, named", [
    pytest.param(["analyze", str(CONFIGS / "example_hybrid.cfg"), "--n", "1.5"],
                 "1.5", id="n-not-an-integer"),
    pytest.param(["analyze", str(CONFIGS / "example_hybrid.cfg"), "--bogus"],
                 "--bogus", id="unknown-option"),
    pytest.param(["analyze", "/nonexistent.cfg"], "/nonexistent.cfg",
                 id="missing-config"),
    pytest.param(["bogus"], "bogus", id="unknown-subcommand"),
    # B's quadrature target is fixed, not an option
    pytest.param(["analyze", str(CONFIGS / "example_hybrid.cfg"),
                  "--tol", "-1"], "--tol", id="tol-flag-negative"),
    pytest.param(["analyze", str(CONFIGS / "example_hybrid.cfg"),
                  "--tol", "nan"], "--tol", id="tol-flag-nan"),
    pytest.param(["analyze", str(CONFIGS / "example_continuous.cfg"),
                  "--tol", "1e-9"], "--tol", id="tol-flag"),
])
def test_usage_errors_exit_3(args, named):
    # click's own usage exit code 2 would read as "undetermined"; its
    # message, which names the offending input, is kept
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 3
    assert "Usage:" in result.stderr
    assert named in result.stderr.split("Error:", 1)[1]


def test_batch_mode(tmp_path):
    for name in ("example_discrete_z.cfg", "example_continuous.cfg"):
        (tmp_path / name).write_text((CONFIGS / name).read_text())
    result = CliRunner().invoke(main, ["analyze", "--batch", str(tmp_path)])
    assert result.exit_code == 0
    assert "== example_continuous.cfg ==" in result.output
    assert "== example_discrete_z.cfg ==" in result.output
    assert "The value of A is 4.250000" in result.output


def test_batch_and_config_are_exclusive(tmp_path):
    result = CliRunner().invoke(
        main, ["analyze", str(CONFIGS / "example_discrete_z.cfg"),
               "--batch", str(tmp_path)])
    assert result.exit_code == 3


def test_the_runtime_loads_no_scipy():
    # SciPy serves the tests and the benchmark; importing the CLI and
    # analyzing a hybrid config with the oracle loads none of it. The
    # oracle itself is loaded by the first --oracle analysis, and
    # cli.cross_check, which the benchmark's tracer wraps, stays a
    # module attribute
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys, tsfloquet.cli as cli\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print('tsfloquet.oracle' in sys.modules)\n"
        f"cfg = cli.load_config({str(CONFIGS / 'example_hybrid.cfg')!r})\n"
        "cli.run(cfg)\n"
        "print('tsfloquet.oracle' in sys.modules)\n"
        "cli.run(cfg, oracle=True)\n"
        "print('tsfloquet.oracle' in sys.modules)\n"
        "print(callable(vars(cli)['cross_check']))\n"
        "loaded += [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(loaded)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\nFalse\nTrue\nTrue\n[]\n"
    # the oracle module still resolves solve_ivp, imported on first access
    from scipy.integrate import solve_ivp

    from tsfloquet import oracle
    assert oracle.solve_ivp is solve_ivp
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        oracle.nothing

"""Smoke tests of ``tests/report_digest.py`` on the four example configs."""
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT
from report_digest import ROWS, case_line, differing
from tsfloquet import analyze
from tsfloquet.cli import build_system, load_config
from tsfloquet.floquet import PhiDiscontinuityWarning

DIGEST = ROOT / "tests" / "report_digest.py"


def _digest(parent, change):
    return subprocess.run(
        [sys.executable, str(DIGEST), str(parent), str(change), "--examples"],
        capture_output=True, text=True, timeout=300)


def test_report_digest_of_a_tree_against_itself_differs_nowhere():
    # 3 orders on each example, and the phase form on the continuous one
    run = _digest(ROOT, ROOT)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["15 cases, 0 differing lines"]


def test_report_digest_names_the_cases_a_change_moves(tmp_path):
    # a finer dense grid moves every report on the continuous example,
    # whose own n is 3 (h = 0 on the hybrid example's dense part)
    shutil.copytree(ROOT / "src", tmp_path / "src")
    floquet = tmp_path / "src" / "tsfloquet" / "floquet.py"
    text = floquet.read_text()
    assert "_GRID_DIVISIONS = 4096\n" in text
    floquet.write_text(text.replace("_GRID_DIVISIONS = 4096\n",
                                    "_GRID_DIVISIONS = 8192\n"))
    run = _digest(tmp_path, ROOT)
    assert run.returncode == 1, run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "15 cases, 12 differing lines"
    moved = [line.split(":")[0] for line in lines[:-1]]
    assert moved == [f"{sign} config example_continuous n={n}{shi}"
                     for n in (3, 3, 8) for shi in ("", " shi")
                     for sign in "-+"]


def test_differing_pairs_the_lines_of_each_case():
    assert differing(["a: 1", "b: 2"], ["a: 1", "b: 2"]) == []
    assert differing(["a: 1", "b: 2"], ["a: 1", "b: 3", "c: 4"]) == [
        ("-", "b: 2"), ("+", "b: 3"), ("+", "c: 4")]


def test_a_case_line_ends_with_the_warnings_of_its_analysis(tmp_path):
    # phi jumps where [0, 1] meets the scattered point 1 and at t0 + T = 4
    config = tmp_path / "two.cfg"
    config.write_text(ROWS["two intervals"])
    spec = build_system(load_config(config))
    with pytest.warns(PhiDiscontinuityWarning) as caught:
        analyze(spec)
    messages = [str(w.message) for w in caught
                if issubclass(w.category, PhiDiscontinuityWarning)]
    assert [m.split(":")[0] for m in messages] == [
        "phi is discontinuous at t=1.0", "phi is discontinuous at t=4.0"]
    line = case_line("two", lambda: spec, None, False)
    assert line.startswith("two: {n=3, ")
    assert line.endswith(f"}} warns {messages!r}")
    config.write_text("period = 4\nintervals = [[0, 4]]\nq = 1\n")
    spec = build_system(load_config(config))
    assert " warns " not in case_line("flat", lambda: spec, None, False)

"""Compare every ``FloquetReport`` field of two source trees, bit for bit.

    python tests/report_digest.py PARENT_TREE CHANGE_TREE [--examples]

Each tree's ``tsfloquet`` is imported in its own subprocess, which runs the
same cases and prints one line per case: every report field, floats by
``float.hex``, or the type and message of what the analysis raised. The
cases are built by CHANGE_TREE's generators (its ``configs/``,
``tests/conftest.py`` and ``benchmarks/workloads.py``) on the tree's own
package:

* the committed configs at their own n, n = 3 and n = 8, and the phase
  form (``use_shi``) at the same orders on the continuous ones;
* ``random_hybrid_system`` 0-59 at n = 2 and 8;
* ``random_discrete_system`` 0-59 at the default n and at n = 3;
* the unit-step overflow scales of 500 and 1000 points at n = 3 and 8;
* every operation and probe of the four benchmark workloads at seeds 1-3
  that does not run the oracle;
* the ``ROWS`` configs, each at its own n: scales whose phi jumps where a
  dense part ends or starts, so the analysis warns, p whose dense
  integral refines past the first round of B's quadrature, and two
  analyses that fail at two places, where the order of the checks decides
  which is named;
* the s-family (``s_family``) at n = 3 and 8: phi = sqrt(q) winds ~sqrt(s)
  times over the period, so it shows what the dense grid resolves.

A case's line ends with the ``PhiDiscontinuityWarning`` messages the
analysis gave, in order.

``--examples`` keeps only the four example configs. The two outputs are
diffed; the script prints the differing lines and the counts, and exits 1
on any difference, 2 if a subprocess fails.
"""
from __future__ import annotations

import dataclasses
import enum
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

EXAMPLES = ("example_continuous", "example_discrete_2z",
            "example_discrete_z", "example_hybrid")
SEEDS = (1, 2, 3)
# the table rows of ROADMAP item 1, a two-interval scale of q = 1 + t/2,
# one whose q is redefined at the dense start 2, and four whose B's
# quadrature refines past its first round: p with kinks, a step, an exp of
# a kink (numpy's exp and libm's differ in the last ulp), and a dense part
# 1e6 long that spends the evaluation budget; then two failures each: q
# fails at t = 1 and p at t = 2, and p is NaN on [0, 0.5) and q at the
# dense start 2
_NAN = "0*(1e200*1e200 - 1e200*1e200)"
ROWS = {
    "meissner": "period = 2*pi\nintervals = [[0, 2*pi]]\np = 0\n"
                "q = if(lt(t, pi), 1.5, 0.5)\n",
    "tiny period": "t0 = 0.1\nperiod = 1e-6\nintervals = [[0.1, 0.100001]]\n"
                   "p = 0\nq = cos(t)\nn = 3\n",
    "50 points": "period = 125\npoints = ["
                 + ", ".join(repr(2.5 * i) for i in range(51))
                 + "]\np = 0.54\nq = 0.001\n",
    "junction": "period = 2*pi\npoints = [2*pi]\nintervals = [[0, pi]]\n"
                "p = 0.1\nq = 2 + cos(t)\nn = 8\n",
    "two intervals": "period = 4\nintervals = [[0, 1], [2, 4]]\np = 0\n"
                     "q = 1 + t/2\n",
    "dense start": "period = 3\nintervals = [[0, 1], [2, 3]]\np = 0\n"
                   "q = if(eq(t, 2), 4, if(eq(t, 1), 2, 1))\nn = 8\n",
    "kinked": "period = 3\nintervals = [[0, 1], [2, 3]]\n"
              "p = 0.3 + 0.1*abs(sin(pi*t/1.3))\nq = 1\n",
    "step p": "period = 2*pi\nintervals = [[0, 2*pi]]\n"
              "p = if(lt(t, 1), 0.2, -0.1)\nq = 1\n",
    "exp kink": "period = 2*pi\nintervals = [[0, 2*pi]]\n"
                "p = exp(abs(sin(3*t)))/10\nq = 1\n",
    "long dense": "period = 1e6\nintervals = [[0, 1e6]]\np = -1\nq = 1\n",
    "p before q": "period = 3\npoints = [0, 1, 2, 3]\n"
                  "p = 0.5 + 0*sqrt(1.5 - t)\nq = 1 + 0*sqrt(0.5 - t)\n",
    "nan dense start": "period = 3\nintervals = [[0, 1], [2, 3]]\n"
                       f"p = if(lt(t, 0.5), {_NAN}, 0.1)\n"
                       f"q = if(eq(t, 2), 1 + {_NAN}, 1)\n",
}
# the scales s of the s-family
S_FAMILY = (1e2, 1e4, 1e6)


def s_family(s: float) -> str:
    """p = 0.01 sin t and q = s (1 + 0.3 cos t) on [0, 2 pi]: the oracle
    and the series agree only where the dense grid resolves the ~sqrt(s)
    turns of the phase."""
    return ("period = 2*pi\nintervals = [[0, 2*pi]]\np = 0.01*sin(t)\n"
            f"q = {s!r}*(1 + 0.3*cos(t))\n")


def _digest(value) -> str:
    """A field as text: floats by ``hex``, containers and dataclasses
    field by field, enums by value."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, enum.Enum):
        return repr(value.value)
    if dataclasses.is_dataclass(value):
        return "{" + ", ".join(
            f"{f.name}={_digest(getattr(value, f.name))}"
            for f in dataclasses.fields(value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_digest, value)) + "]"
    return repr(value)


def _cases(change: Path, examples: bool, config_path: Path):
    """(label, build, n, use_shi) for every case; ``build()`` returns the
    SystemSpec on the package imported in this process. Config text is
    read through ``config_path``."""
    from tsfloquet import cli

    def from_text(text):
        config_path.write_text(text)
        config = cli.load_config(config_path)
        return lambda: cli.build_system(config), config

    names = EXAMPLES
    if not examples:
        sys.path.insert(0, str(change / "benchmarks"))
        import workloads

        names = workloads.COMMITTED_CONFIGS
    for name in names:
        text = (change / "configs" / f"{name}.cfg").read_text()
        build, config = from_text(text)
        for n in (config.n, 3, 8):
            yield f"config {name} n={n}", build, n, False
            if not config.points:
                yield f"config {name} n={n} shi", build, n, True
    if examples:
        return

    sys.path.insert(0, str(change / "tests"))
    import conftest

    for seed in range(60):
        for n in (2, 8):
            yield (f"hybrid seed={seed} n={n}",
                   lambda s=seed: conftest.random_hybrid_system(s), n, False)
        for n in (None, 3):
            yield (f"discrete seed={seed} n={n}",
                   lambda s=seed: conftest.random_discrete_system(s), n,
                   False)
    for k in (500, 1000):
        for n in (3, 8):
            yield (f"overflow k={k} n={n}",
                   lambda k=k: conftest.unit_step_overflow_system(k), n,
                   False)
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            wl = workloads.build(name, seed, change)
            texts = {s.name: s.text for s in wl.systems}
            for op in wl.ops + wl.probes:
                if op.oracle:
                    continue
                build, config = from_text(texts[op.system])
                n = config.n if op.n is None else op.n
                yield (f"{name}:{seed} {op.label}", build, n, op.use_shi)
    for name, text in ROWS.items():
        build, config = from_text(text)
        yield f"row {name} n={config.n}", build, config.n, False
    for s in S_FAMILY:
        build, _ = from_text(s_family(s))
        for n in (3, 8):
            yield f"s-family s={s:g} n={n}", build, n, False


def digest_lines(change: Path, examples: bool) -> list:
    """One line per case, on the ``tsfloquet`` this process imports."""
    with tempfile.TemporaryDirectory() as tmp:
        return [case_line(*case) for case in
                _cases(change, examples, Path(tmp) / "system.cfg")]


def case_line(label: str, build, n, use_shi: bool) -> str:
    """The line of one case: its report, or the type and message of what
    the analysis raised, then the ``PhiDiscontinuityWarning`` messages it
    gave, if any."""
    from tsfloquet import analyze
    from tsfloquet.floquet import PhiDiscontinuityWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = analyze(build(), n=n, use_shi=use_shi)
            line = f"{label}: {_digest(report)}"
        except Exception as exc:  # its type and message are the digest
            line = f"{label}: raised {type(exc).__name__}: {exc}"
    messages = [str(w.message) for w in caught
                if issubclass(w.category, PhiDiscontinuityWarning)]
    return line + (f" warns {_digest(messages)}" if messages else "")


def differing(parent: list, change: list) -> list:
    """The lines that differ, as ("-", line) from the parent and ("+", line)
    from the change, case by case in order."""
    out = []
    for i in range(max(len(parent), len(change))):
        a = parent[i] if i < len(parent) else None
        b = change[i] if i < len(change) else None
        if a != b:
            out += [("-", a)] if a is not None else []
            out += [("+", b)] if b is not None else []
    return out


def _run_tree(tree: Path, change: Path, examples: bool):
    """The digest of ``tree``'s package, from a fresh interpreter."""
    args = [sys.executable, __file__, "--digest", str(tree), str(change)]
    return subprocess.Popen(args + (["--examples"] if examples else []),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def main(argv: list) -> int:
    examples = "--examples" in argv
    argv = [a for a in argv if a != "--examples"]
    if argv[:1] == ["--digest"]:  # the subprocess: one tree's digest
        tree, change = (Path(a).resolve() for a in argv[1:3])
        sys.path.insert(0, str(tree / "src"))
        print("\n".join(digest_lines(change, examples)))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv)
    runs = [_run_tree(tree, change, examples) for tree in (parent, change)]
    outputs = []
    for tree, proc in zip((parent, change), runs):
        out, err = proc.communicate()
        if proc.returncode:
            print(f"digest of {tree} failed:\n{err}", file=sys.stderr)
            return 2
        outputs.append(out.splitlines())
    diff = differing(*outputs)
    for sign, line in diff:
        print(sign, line)
    print(f"{len(outputs[1])} cases, {len(diff)} differing lines")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

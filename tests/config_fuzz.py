"""A seeded stream of config files, ROADMAP item 20's recipe, and their
outcomes through ``tsfloquet analyze``.

``configs(count)`` yields the first ``count`` configs of the stream of
``random.Random(7)``, each as (seed, text): seed i is the stream's i-th
config. Each has:

* a scale: one dense interval of length T in {1, 6.28318, 1e-3, 100,
  1e-6, 5}; or k in {1, 2, 3, 7, 50, 200} scattered points mu apart, mu
  in {1, 0.1, 1e-8, 2.5}; or 1 to 30 dense cells, each of length {1, 0.5,
  1e-7, 3} and followed by a gap of {0.5, 1, 1e-9}, the period closed by
  a point. It starts at t0 in {0, 1, -2.5, 0.1};
* p and q: random expressions of depth at most 3 over t and constants,
  with +, *, /, sin, cos, exp, abs and ^2; p = 0 in a fifth of them;
* n in {0, 1, 3, 8} in half of them, and the default order in the rest.

``outcomes(configs, directory)`` analyzes each config in process, as the
installed script does, and yields (seed, exit code, stderr, error): error
is the exception that reading the config or analyzing it raised, or None.
One that is no ``TsfloquetError`` reached ``cli._run_one``'s catch-all.

    python tests/config_fuzz.py --count 3000

prints, for the first 3000 configs, the counts by exit code and by error
class, and the seeds that reached the catch-all.
"""
import argparse
import collections
import random
import sys
import tempfile
import warnings
from contextlib import contextmanager
from pathlib import Path

_T0S = (0, 1, -2.5, 0.1)
_PERIODS = (1, 6.28318, 1e-3, 100, 1e-6, 5)
_POINT_COUNTS = (1, 2, 3, 7, 50, 200)
_STEPS = (1, 0.1, 1e-8, 2.5)
_CELL_LENGTHS = (1, 0.5, 1e-7, 3)
_GAPS = (0.5, 1, 1e-9)
_ORDERS = (0, 1, 3, 8)
_FUNCTIONS = ("sin", "cos", "exp", "abs")
_OPERATORS = ("+", "*", "/")


def configs(count: int, seed: int = 7):
    """(seed, text) for the first ``count`` configs of the stream."""
    rng = random.Random(seed)
    for i in range(count):
        yield i, _config(rng)


def _config(rng: random.Random) -> str:
    t0 = rng.choice(_T0S)
    lines = [f"t0 = {t0!r}"] + _scale(rng, t0)
    p = "0" if rng.random() < 0.2 else _expression(rng, 3)
    lines += [f"p = {p}", f"q = {_expression(rng, 3)}"]
    if rng.random() < 0.5:
        lines.append(f"n = {rng.choice(_ORDERS)}")
    return "\n".join(lines) + "\n"


def _scale(rng: random.Random, t0) -> list:
    """The period and segment lines of one of the three kinds of scale."""
    kind = rng.randrange(3)
    if kind == 0:
        period = rng.choice(_PERIODS)
        return [f"period = {period!r}",
                f"intervals = [[{t0!r}, {t0 + period!r}]]"]
    if kind == 1:
        k, mu = rng.choice(_POINT_COUNTS), rng.choice(_STEPS)
        points = ", ".join(repr(t0 + i * mu) for i in range(k + 1))
        return [f"period = {k * mu!r}", f"points = [{points}]"]
    cells, a = [], t0
    for _ in range(rng.randint(1, 30)):
        b = a + rng.choice(_CELL_LENGTHS)
        cells.append(f"[{a!r}, {b!r}]")
        a = b + rng.choice(_GAPS)
    return [f"period = {a - t0!r}", f"intervals = [{', '.join(cells)}]",
            f"points = [{a!r}]"]


def _expression(rng: random.Random, depth: int) -> str:
    """An expression over t and constants, nested at most ``depth``
    deep."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return "t"
        c = round(rng.uniform(-3.0, 3.0), 3)
        return f"({c!r})" if c < 0 else repr(c)
    kind = rng.randrange(3)
    if kind == 0:
        return (f"({_expression(rng, depth - 1)} {rng.choice(_OPERATORS)} "
                f"{_expression(rng, depth - 1)})")
    if kind == 1:
        return f"{rng.choice(_FUNCTIONS)}({_expression(rng, depth - 1)})"
    return f"({_expression(rng, depth - 1)})^2"


@contextmanager
def _recording(cli, raised: list):
    """``cli.load_config`` and ``cli.run`` append what they raise to
    ``raised``, until the block ends."""
    saved = cli.load_config, cli.run

    def record(call):
        def wrapper(*args, **kwargs):
            try:
                return call(*args, **kwargs)
            except Exception as exc:
                raised.append(exc)
                raise
        return wrapper

    cli.load_config, cli.run = map(record, saved)
    try:
        yield
    finally:
        cli.load_config, cli.run = saved


def outcomes(stream, directory: Path):
    """(seed, exit code, stderr, error) for each (seed, text) of
    ``stream``, each config written to ``directory`` and analyzed by
    ``tsfloquet analyze`` in process."""
    from click.testing import CliRunner

    from tsfloquet import cli

    path = Path(directory) / "fuzz.cfg"
    raised = []
    with _recording(cli, raised):
        for seed, text in stream:
            path.write_text(text)
            del raised[:]
            result = CliRunner().invoke(cli.main, ["analyze", str(path)])
            if not isinstance(result.exception, (SystemExit, type(None))):
                raise result.exception
            yield (seed, result.exit_code, result.stderr,
                   raised[-1] if raised else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=3000)
    args = parser.parse_args(argv)
    from tsfloquet.errors import TsfloquetError
    from tsfloquet.floquet import PhiDiscontinuityWarning

    # as tier-1 runs them: a numpy warning is an error, which reaches the
    # catch-all, and the phi warnings are not printed
    warnings.simplefilter("error", RuntimeWarning)
    warnings.simplefilter("ignore", PhiDiscontinuityWarning)
    codes, classes, caught = (collections.Counter(), collections.Counter(),
                              [])
    with tempfile.TemporaryDirectory() as directory:
        for seed, code, _, error in outcomes(configs(args.count), directory):
            codes[code] += 1
            if error is not None:
                classes[type(error).__name__] += 1
                if not isinstance(error, TsfloquetError):
                    caught.append(seed)
    print("by exit code:", dict(sorted(codes.items())))
    print("by error class:", dict(classes.most_common()))
    print("reached the catch-all:", caught)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())

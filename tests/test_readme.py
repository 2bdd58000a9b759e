"""README's Library example, run as written.

The ```python block under the ``## Library`` heading of README.md is
executed, and the values its comments state are checked: A(1), B, the
error bound's kind and the verdict. Run as a script,

    python tests/test_readme.py

it runs the same block on whichever ``tsfloquet`` the interpreter imports,
so that from outside the source tree it checks the installed package.
"""
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The source of the first ```python block under ``## Library``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run_library_example():
    """Execute the block and check the values its comments state."""
    from tsfloquet import Verdict

    names = {}
    exec(compile(library_example(), f"{README} (Library)", "exec"), names)
    report = names["report"]
    assert round(report.A_partial, 6) == -1.214602, report.A_partial
    B = math.pi ** 2 - math.pi / 4 + 1
    assert abs(report.B - B) <= 4 * math.ulp(B), (report.B, B)
    assert report.err_bound.exact is False, report.err_bound
    assert report.verdict is Verdict.UNSTABLE, report.verdict


def test_library_example_states_its_values():
    run_library_example()


if __name__ == "__main__":
    run_library_example()
    print("README Library example: ok")

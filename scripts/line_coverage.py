"""List the executable lines of src/ that the test suite never runs.

Runs pytest on tests/ in this process under the stdlib `trace` module (the
`coverage` package is not a dependency), then prints `path:line: source` for
every executable line of `src/cycleflow` that no test ran, except the
allowlisted lines below, and exits 1 if any such line is left.  Under the
tracer the suite runs several times slower: about 6 minutes on a 2-core box.
Arguments, if any, go to pytest in place of tests/.

Usage: PYTHONPATH=src python scripts/line_coverage.py [pytest args...]
"""

import sys
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cycleflow"

# (module, stripped source line): guards that no input is known to reach
ALLOWED = {
    # each step closes at most one cycle
    ("cycles.py", 'raise RuntimeError(f"loop erasure counted {closed} cycle steps in {T} states")'),
    # each pass of the peel zeroes at least one residual entry
    ("cycles.py", 'raise RuntimeError("cycle peeling did not terminate")'),
    # committors solve a system whose solution obeys the maximum principle
    ("clustering.py", 'raise RuntimeError("committor solution violates the maximum principle")'),
    # the tests call cli.main; the module run as a script adds only this line
    ("cli.py", "sys.exit(main())"),
}


class _OnlySrc:
    """The tracer's filter: line events for the frames of src/cycleflow alone.

    That keeps the run fast.  `trace`'s own filter (`ignoredirs`) caches its
    answer by module basename, so ignoring the installed packages would hide
    the package's `__init__.py` behind theirs.
    """

    def __init__(self):
        self._seen = {}

    def names(self, filename, modulename):
        """True to ignore the module at `filename`, as `trace` asks of its filter."""
        if filename not in self._seen:
            self._seen[filename] = Path(filename).resolve().parent != SRC
        return self._seen[filename]


def _code_lines(code):
    """Line numbers of the instructions of `code` and of every code object nested in it.

    Line 0, where a module's first instruction sits, is no source line; `trace`'s
    own line finder lists it in place of the docstring's line 1.
    """
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def main(argv):
    try:  # the tracer slows every example: no test may fail on time alone
        from hypothesis import settings
        settings.register_profile("line-coverage", deadline=None)
        settings.load_profile("line-coverage")
    except ImportError:
        pass
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = _OnlySrc()
    tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    ran = {(Path(f).resolve(), line) for f, line in tracer.results().counts}

    missed = allowed = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = _code_lines(compile("\n".join(source), str(path), "exec"))
        for line in sorted(lines):
            if (path, line) in ran:
                continue
            text = source[line - 1].strip()
            if (path.name, text) in ALLOWED:
                allowed += 1
            else:
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{missed} executable lines of src/ never ran ({allowed} allowlisted)")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

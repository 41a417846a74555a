"""Where the twistkit package runs: the lines that never run, or the
functions that only the tests reach.  Stdlib only, but it runs the tier-1
tests in-process, so it needs pytest and hypothesis (and sympy for the
Groebner cross-check script, which is skipped without it).

    python scripts/line_coverage.py [--mode lines|callers]

Both modes run the same three things, in this order: one run of each
benchmark workload's non-reach jobs at seed 2010 (the modules under
perfbench/ are imported, never written: no bytecode is cached), the scripts
on small arguments, their output discarded, and the tier-1 tests.  The
tests come last, so that a memo they fill hides no call from the others.
Code that runs only in a subprocess (a test that starts the CLI, say) is
not seen.

`lines` (the default) traces with `sys.settrace` and prints, per module, the
lines of the compiled code objects that never ran.  `callers` profiles with
`sys.setprofile`: each call of a package function is credited to the nearest
calling frame outside the package, or to the import when a package module
body is on the way, and the functions that only test frames reach are
printed (comprehensions and generator expressions belong to their function
and are left out).  The output is printed, not gated, and the exit status
is 0 whatever the tests do: tier-1 under tracing takes minutes, not seconds,
so a test with a wall-clock bound may fail there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import runpy
import sys
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twistkit"
SEED = 2010
# each script with arguments small enough for a traced run
SCRIPTS = (
    ("theta_walkthrough.py",),
    ("tree_census.py", "--max", "12", "--verify", "10"),
    ("groebner_crosscheck.py", "--ideals", "20"),
    ("code_lines.py",),
)


def in_package(code) -> bool:
    return code.co_filename.startswith(str(PACKAGE))


def run_everything() -> None:
    """The benchmark jobs, the scripts and tier-1."""
    import pytest

    sys.path.insert(0, str(ROOT / "perfbench"))
    import jobs
    import workloads
    from twistkit.errors import TwistKitError

    for workload in workloads.WORKLOADS:
        for spec in workloads.specs(workload, SEED):
            if not spec["reach"]:
                with contextlib.suppress(TwistKitError):
                    jobs.build(spec)[0]()
    for name, *args in SCRIPTS:
        sys.argv = [name, *args]
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")
        except SystemExit as exc:
            if exc.code:
                print(f"{name} exited with {exc.code}")
        except ModuleNotFoundError as exc:
            print(f"{name} skipped: {exc}")
    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from `path`."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(numbers) -> str:
    """Sorted line numbers as "3, 7-9" runs."""
    runs = []
    for n in sorted(numbers):
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def lines_mode() -> None:
    hits = defaultdict(set)

    def local(frame, event, arg):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local(frame, event, arg) if in_package(frame.f_code) else None

    sys.settrace(trace)
    try:
        run_everything()
    finally:
        sys.settrace(None)
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = lines - hits[str(path)]
        total, missed = total + len(lines), missed + len(never)
        if never:
            print(f"{path.name}: {ranges(never)}")
    print(f"{total - missed} of {total} executable package lines ran")


def area(frame) -> str:
    """Who called into the package to reach `frame`: "import" if a package
    module body is on the way, else the directory of the nearest frame
    outside the package, "perfbench", "scripts" or "tests" (the frames of
    pytest and hypothesis, which call package code only for the tests)."""
    while frame is not None and in_package(frame.f_code):
        if frame.f_code.co_name == "<module>":
            return "import"
        frame = frame.f_back
    path = Path(frame.f_code.co_filename) if frame else None
    for name in ("perfbench", "scripts"):
        if path and path.is_relative_to(ROOT / name):
            return name
    return "tests"


def callers_mode() -> None:
    reached = defaultdict(set)

    def profile(frame, event, arg):
        code = frame.f_code
        if event != "call" or not in_package(code):
            return
        if code.co_name.startswith("<") and code.co_name != "<lambda>":
            return
        name = getattr(code, "co_qualname", code.co_name)
        reached[(Path(code.co_filename).name, code.co_firstlineno, name)].add(area(frame.f_back))

    sys.setprofile(profile)
    try:
        run_everything()
    finally:
        sys.setprofile(None)
    only_tests = sorted(key for key, areas in reached.items() if areas == {"tests"})
    for module, line, name in only_tests:
        print(f"{module}:{line} {name}")
    print(f"{len(only_tests)} of {len(reached)} package functions run are reached only by tests")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("lines", "callers"), default="lines")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    {"lines": lines_mode, "callers": callers_mode}[args.mode]()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""List the code of a source tree that the command line never runs.

    python3 tests/traffic.py SRC
    python3 tests/traffic.py --functions SRC

SRC is a directory that holds the ``nestohedra`` package (a tree's
``src``).  Every recorded run of ``same_bytes.runs()`` goes through
``same_bytes.in_process``, in one process with ``COLUMNS=80``: it empties
the ``series`` module's ``lru_cache``s, as a fresh process would find
them, and calls ``nestohedra.cli.main``.  A ``sys.setprofile`` hook
records the calls, and a ``sys.settrace`` hook the lines, both installed
before the package is imported, so code that runs at import counts as
run.

For each module of the package the script prints the lines that hold
code but never ran, as ``module.py: 12-14, 40``, or ``module.py: every
code line ran``, and, where there are any, the functions and methods no
run called, by dotted name, as ``module.py unrun: Graph.copy, _helper``;
a nested function is named only where the function around it ran.  With
``--functions`` it traces no lines, which costs less, and prints one JSON
object: under ``unrun`` just those functions, as ``module.dotted.name``,
and under ``digests`` each run's ``same_bytes.digests`` record, in the
order of ``runs()``.  A tier-1 test run reads both from one such process:
the reach gate, ``tests/test_reach_gate.py``, compares the functions with
its committed list, and ``tests/test_golden.py`` the records with
``tests/golden.json``.  Standard library only; pytest does not collect
this file.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import sys
from types import CodeType

from same_bytes import digests, emit, in_process, runs

# a called function, as its code object names it: (co_qualname, co_firstlineno)
Called = tuple[str, int]


def own_lines(code: CodeType) -> set[int]:
    """The lines that hold an instruction of a code object itself."""
    return {line for _, _, line in code.co_lines() if line is not None}


def code_lines(code: CodeType) -> set[int]:
    """The lines that hold an instruction of a code object or of one nested in it."""
    lines = own_lines(code)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def unrun_functions(code: CodeType, called: set[Called], prefix: str = "") -> list[str]:
    """Dotted names of the functions nested in code that no run called.

    Comprehensions and lambdas count as part of their function, and a
    class body, which runs at import, only as the methods in it.  A
    function nested in one that was never called is not named apart.
    """
    out = []
    for const in code.co_consts:
        if not isinstance(const, CodeType) or const.co_name.startswith("<"):
            continue
        name, key = prefix + const.co_name, (const.co_qualname, const.co_firstlineno)
        if const.co_flags & inspect.CO_NEWLOCALS and key not in called:
            out.append(name)
        else:
            out += unrun_functions(const, called, name + ".")
    return out


def spans(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated runs, ``3-5, 9``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def trace(src: str, lines: bool) -> tuple[dict[str, tuple[set[int], set[Called]]], list[dict]]:
    """Per source file of the package in src, the lines that ran and the
    functions called; and each run's ``digests`` record.

    Lines are traced only when asked for; otherwise their sets stay empty.
    """
    package = os.path.join(os.path.abspath(src), "nestohedra")
    sys.path.insert(0, os.path.dirname(package))
    found = {
        os.path.join(package, name): (set(), set())
        for name in sorted(os.listdir(package))
        if name.endswith(".py")
    }

    def local(frame, event, arg):
        if event == "line":
            found[frame.f_code.co_filename][0].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # only frames of the package's own files are traced line by line
        if frame.f_code.co_filename in found:
            found[frame.f_code.co_filename][0].add(frame.f_lineno)
            return local
        return None

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename in found:
                found[code.co_filename][1].add((code.co_qualname, code.co_firstlineno))

    os.environ["COLUMNS"] = "80"  # argparse wraps usage and help at it
    sys.setprofile(profile)
    if lines:
        sys.settrace(tracer)
    try:
        for info in pkgutil.iter_modules([package]):
            importlib.import_module(f"nestohedra.{info.name}")
        records = [digests(argv, *in_process(argv)) for argv in runs()]
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return found, records


def compiled(path: str) -> CodeType:
    with open(path, encoding="utf-8") as f:
        return compile(f.read(), path, "exec")


def main(args: list[str]) -> int:
    functions = args[:1] == ["--functions"]
    if len(args) != 1 + functions or args[-1].startswith("-"):
        print("\n".join(line.strip() for line in __doc__.strip().splitlines()[2:4]), file=sys.stderr)
        return 2
    found, records = trace(args[-1], lines=not functions)
    names: list[str] = []
    for path, (ran, called) in found.items():
        code, name = compiled(path), os.path.basename(path)
        unrun = unrun_functions(code, called)
        if functions:
            module = name.removesuffix(".py")
            names += (f"{module}.{function}" for function in unrun)
            continue
        missed = sorted(code_lines(code) - ran)
        emit(f"{name}: {spans(missed) if missed else 'every code line ran'}")
        if unrun:
            emit(f"{name} unrun: {', '.join(unrun)}")
    if functions:
        emit(json.dumps({"unrun": names, "digests": records}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""List the lines of a source tree that the command line never runs.

    python3 tests/traffic.py SRC

SRC is a directory that holds the ``nestohedra`` package (a tree's
``src``).  Every argv of ``same_bytes.argvs()`` runs in both output
formats through ``nestohedra.cli.main``, in one process under
``sys.settrace``, with the ``series`` module's ``lru_cache``s emptied
before each run as a fresh process would find them.  For each module of
the package it then prints the lines that hold code but never ran, as
``module.py: 12-14, 40``, or ``module.py: every code line ran``, and,
where there are any, the functions and methods none of whose lines ran,
by dotted name, as ``module.py unrun: Graph.copy, _helper``; a nested
function is named only where the function around it ran.  Standard
library only; pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import os
import pkgutil
import sys
from types import CodeType

from same_bytes import argvs


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


def unrun_functions(code: CodeType, ran: set[int], prefix: str = "") -> list[str]:
    """Dotted names of the functions nested in code none of whose lines ran.

    A function's lines are those of its body and of the code nested in it,
    less the lines its parent runs to define it (the ``def`` and decorator
    lines).  Comprehensions and lambdas count as part of their function,
    and a class body, which runs at import, only as the methods in it.
    """
    out, defining = [], own_lines(code)
    for const in code.co_consts:
        if not isinstance(const, CodeType) or const.co_name.startswith("<"):
            continue
        name = prefix + const.co_name
        body = code_lines(const) - defining
        if const.co_flags & inspect.CO_NEWLOCALS and body and not body & ran:
            out.append(name)
        else:
            out += unrun_functions(const, ran, name + ".")
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


def main(args: list[str]) -> int:
    if len(args) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    package = os.path.join(os.path.abspath(args[0]), "nestohedra")
    sys.path.insert(0, os.path.dirname(package))
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        # only frames of the package's own files are traced line by line
        if frame.f_code.co_filename in ran:
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    paths = sorted(
        os.path.join(package, name) for name in os.listdir(package) if name.endswith(".py")
    )
    for path in paths:
        ran[path] = set()
    sys.settrace(tracer)
    try:
        for info in pkgutil.iter_modules([package]):
            importlib.import_module(f"nestohedra.{info.name}")
        from nestohedra import cli, series

        caches = [v for v in vars(series).values() if hasattr(v, "cache_clear")]
        for argv in argvs():
            for fmt in ("json", "csv"):
                for cache in caches:
                    cache.cache_clear()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                    io.StringIO()
                ):
                    cli.main([*argv, "--format", fmt])
    finally:
        sys.settrace(None)
    for path in paths:
        with open(path, encoding="utf-8") as f:
            code = compile(f.read(), path, "exec")
        missed = sorted(code_lines(code) - ran[path])
        name = os.path.basename(path)
        print(f"{name}: {spans(missed) if missed else 'every code line ran'}")
        unrun = unrun_functions(code, ran[path])
        if unrun:
            print(f"{name} unrun: {', '.join(unrun)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

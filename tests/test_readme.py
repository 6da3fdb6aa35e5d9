"""The README's library example and command-line examples run as written."""

from __future__ import annotations

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

from nestohedra.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run() -> None:
    failures, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failures == 0


def _command_line_examples() -> list[str]:
    """The ``nestohedra`` lines of the sh block under "## Command line"."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert block is not None
    return [
        line for line in block.group(1).splitlines() if line.startswith("nestohedra ")
    ]


def test_readme_command_line_examples_run() -> None:
    examples = _command_line_examples()
    assert len(examples) >= 8
    assert sum("# must fail, exit 1" in line for line in examples) == 1
    for line in examples:
        command, _, comment = line.partition("#")
        expected = 1 if "must fail, exit 1" in comment else 0
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(shlex.split(command)[1:])
        assert code == expected, line

"""The recorded argv set against its committed digests, in tests/golden.json.

``python3 tests/same_bytes.py --write SRC`` writes the file from
``python -m nestohedra.cli`` runs; a change that means to change some
output rewrites it, and the file's diff names the argvs whose bytes moved.
Any other change leaves the file as it is, and this module checks the
tree's in-process bytes against it, so no second tree is run to compare.
The file is the one store of recorded bytes and this module its one
reader among the tests: no other test compares a recorded run's bytes.
The digests checked against it are the ones the reach gate's process
records (the ``recorded_runs`` fixture), so a test run runs the set once.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import nestohedra
from same_bytes import GOLDEN, in_process, run, runs


@pytest.fixture
def columns_80(monkeypatch):
    # argparse wraps usage and help at COLUMNS, as the recorded runs had it
    monkeypatch.setenv("COLUMNS", "80")


def test_every_recorded_argv_gives_its_committed_digests(recorded_runs) -> None:
    golden = json.loads(Path(GOLDEN).read_text(encoding="utf-8"))
    assert [record["argv"] for record in golden] == runs()
    assert [record["argv"] for record in recorded_runs["digests"]] == runs()
    moved = [
        " ".join(record["argv"])
        for record, recorded in zip(recorded_runs["digests"], golden)
        if record != recorded
    ]
    assert moved == []


@pytest.mark.parametrize(
    "argv",
    [
        ["identities", "--order", "5", "--corrupt", "st", "--format", "csv"],
        ["verify", "--family", "all", "--max-order", "4", "--format", "json"],
        ["gal-scan", "--graph-class", "connected", "--nodes", "4", "--format", "csv"],
        ["invariants", "--graph", "bogus:3", "--format", "json"],
        ["invariants", "--bogus"],
    ],
)
def test_the_in_process_bytes_are_those_of_the_module_entry_point(columns_80, argv) -> None:
    # The digests are written from python -m nestohedra.cli and checked in
    # process; one run per command, an error line and a usage error show
    # that the two give the same bytes.
    src = Path(nestohedra.__file__).resolve().parents[1]
    assert in_process(argv) == run(str(src), argv)

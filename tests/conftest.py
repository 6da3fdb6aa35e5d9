"""Fixtures shared by the test modules."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import nestohedra
from same_bytes import clear_series_caches

TRAFFIC = Path(__file__).with_name("traffic.py")


@pytest.fixture
def cold_series_caches():
    """Empty every lru_cache of the series module, before and after the test."""
    clear_series_caches()
    yield
    clear_series_caches()


@pytest.fixture(scope="session")
def recorded_runs() -> dict[str, list]:
    """``tests/traffic.py --functions`` on the tested tree, run once per test run.

    One fresh process runs the recorded argv set under its call hook and
    reports the functions no run called (``unrun``), which the reach gate
    reads, and each run's digests record (``digests``), which the golden
    test reads.
    """
    src = Path(nestohedra.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(TRAFFIC), "--functions", str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)

"""The traced benchmark's hooks still find what they wrap in this tree."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_spans_install_and_trace_the_family_scan() -> None:
    # bench/spans.py names the methods it wraps by string, and a renamed
    # function would leave its span reading zero rather than fail.  Run
    # install() in a fresh interpreter, so the wrapping stays out of this
    # one, then one family scan: each family's scan goes through
    # gal_check_series, and each of its indices through gal_check_poly.
    script = """
import contextlib, importlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import spans
missing = [
    f"{layer}.{cls}.{method}"
    for layer, cls, method, _ in spans.METHODS
    if not hasattr(getattr(importlib.import_module("nestohedra." + layer), cls, None), method)
]
tracer = spans.install()
from nestohedra.cli import main
from nestohedra.series import FAMILIES
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["gal-scan", "--family", "all", "--bound", "6"])
stats = tracer.snapshot()["spans"]
print(json.dumps({
    "missing": missing,
    "code": code,
    "series_calls": stats["invariants.gal_check_series"][0],
    "poly_calls": stats["invariants.gal_check_poly"][0],
    "indices": sum(len(spec.indices(6)) for spec in FAMILIES.values()),
    "families": len(FAMILIES),
}))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench")],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    report = json.loads(done.stdout)
    assert report["missing"] == []
    assert report["code"] == 0
    assert report["series_calls"] == report["families"]
    assert report["poly_calls"] == report["indices"] > 0

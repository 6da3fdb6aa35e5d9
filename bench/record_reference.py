"""Write reference.json: stdout digests the checker compares every op against.

Usage, from the repository root: python3 bench/record_reference.py

Runs in one process.  Outputs are byte-deterministic, so the caches that
persist between calls here do not change them.  Record only from a commit
whose test suite passes, and say in the change that re-records why the
bytes were meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from nestohedra.cli import main  # noqa: E402

from check import REFERENCE_PATH, invariant_digest, sha256  # noqa: E402
from run import DEFAULT_SECONDS, DEFAULT_SEED  # noqa: E402
from workloads import CATALOGUE, WORKLOADS, edges_spec, generate, reference_space  # noqa: E402


def stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}; not recording it")
    return buf.getvalue()


def record() -> dict:
    ops = list(reference_space())
    for workload in WORKLOADS:
        ops += generate(workload, DEFAULT_SEED, DEFAULT_SECONDS)
    digests = {}
    for op in ops:
        if op.line not in digests:
            digests[op.line] = sha256(stdout_of(list(op.argv)))
    classes = {
        f"class:{index}": invariant_digest(stdout_of(["invariants", "--graph", edges_spec(n, edges)]))
        for index, (n, edges) in enumerate(CATALOGUE)
    }
    return {"stdout": dict(sorted(digests.items())), "invariants": classes}


if __name__ == "__main__":
    REFERENCE_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")

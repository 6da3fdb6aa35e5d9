"""Output checks for every op of a run.

An op passes when it exits 0 and its stdout matches what the benchmark
knows about it:

* the sha256 of the whole stdout, for every op whose argv is in the stored
  reference (all sweep and series-check ops, the named single-graph shapes
  and every op of the default seed);
* for a relabelled catalogue graph, the sha256 of the output without its
  ``graph`` field, which is the same for every labelling of the class;
* for every ``invariants`` op, relations recomputed here: the Euler relation
  on the printed f-vector, palindromic symmetry of the printed h-polynomial,
  and that the h-polynomial is the f-vector under alpha -> alpha - t.

The reference digests were recorded from the library at the commit that
added the benchmark, whose test suite passes (see record_reference.py).
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path

from workloads import Op

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invariant_digest(stdout: str) -> str:
    """Digest of an ``invariants`` JSON output with the graph spec left out."""
    obj = json.loads(stdout)
    obj.pop("graph")
    return sha256(json.dumps(obj, indent=2, sort_keys=True))


def invariants_relations(stdout: str) -> str | None:
    """Check the face data of one graph independently; a reason or None."""
    obj = json.loads(stdout)
    f = obj["f_vector"]
    n = len(f) - 1
    if f[-1] != 1 or sum((-1) ** i * c for i, c in enumerate(f)) != 1:
        return "f_vector breaks the Euler relation"
    h = {(int(r["i"]), int(r["j"])): int(r["c"]) for r in obj["h_polynomial"]}
    if any(h.get((j, i), 0) != c for (i, j), c in h.items()):
        return "h_polynomial is not palindromic"
    # f(alpha, t) = sum_i f_i alpha^i t^(n-i); h = f(alpha - t, t)
    expected: dict[tuple[int, int], int] = {}
    for i, c in enumerate(f):
        for k in range(i + 1):
            key = (k, n - k)
            expected[key] = expected.get(key, 0) + c * comb(i, k) * (-1) ** (i - k)
    if {key: c for key, c in expected.items() if c} != h:
        return "h_polynomial is not the f_vector under alpha -> alpha - t"
    return None


def check_op(op: Op, exit_code: int | None, stdout: str, reference: dict) -> str | None:
    """Why an op failed, or None when it passed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    expected = reference["stdout"].get(op.line)
    if expected is not None and sha256(stdout) != expected:
        return "stdout differs from the reference digest"
    try:
        if op.ref.startswith("class:"):
            if invariant_digest(stdout) != reference["invariants"][op.ref]:
                return "face data differ from the reference digest of the class"
        elif expected is None:
            return "no reference for this op"
        if op.argv[0] == "invariants":
            return invariants_relations(stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None

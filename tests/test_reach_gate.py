"""The reach gate: every function in ``src/`` runs on a recorded argv, or is listed here.

``python3 tests/traffic.py --functions SRC`` runs the recorded argv set,
``same_bytes.runs()``, in one fresh process with cold series caches,
under a ``sys.setprofile`` hook installed before the package is
imported, and reports each function that no run called; the
``recorded_runs`` fixture runs it once per test run, and
``tests/test_golden.py`` reads the same run's digests.  That set must
equal ``UNREACHED`` name for name: a new function needs a recorded argv
that runs it or an entry with a reason a reader can check, and an entry
that a run does reach fails too, so the list cannot go stale.  Error branches inside a function that runs are not
gated; tests that patch reach them.
"""

from __future__ import annotations

README = "README API: the README's library section shows or names it; no command calls it"
VALUE = "value protocol: compares, hashes or shows a value, which no command asks of it"

UNREACHED = {
    "series.Series2.__eq__": README,
    "series.Series2.items": "public API: a series' nonzero slots, in the signature pin; "
    "the tests read series through it",
    "buildingset.graph_spec": "failure only: names the graph of an h-polynomial with no gamma "
    "vector, as the tests that patch h_from_f show",
    "algebra.GammaVector.first_negative": "failure only: the witness of a negative gamma entry, "
    "which no family or class has",
    "algebra.Poly2.__repr__": VALUE,
    "series.Series2.__repr__": VALUE,
}


def test_every_unreached_function_is_listed_with_its_reason(recorded_runs) -> None:
    assert all(UNREACHED.values())
    assert set(recorded_runs["unrun"]) == set(UNREACHED)

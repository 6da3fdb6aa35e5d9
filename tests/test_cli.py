"""The command-line interface: output shapes, exit codes, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
from math import comb, factorial, prod
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nestohedra
from nestohedra import algebra, cli, invariants, ringcalc, series
from nestohedra.algebra import Poly2
from nestohedra.buildingset import Graph, _induced_adj
from nestohedra.cli import main
from nestohedra.series import FAMILIES
from same_bytes import in_process
from witnesses import f_from_h, h_from_gamma, power, series_of

A = Poly2.from_coeffs((0, 1))
T = Poly2.from_coeffs((1, 0))


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _choices_error(flag: str, value: int, choices: range) -> str:
    """argparse's last stderr line for an int value outside a flag's range."""
    listed = ", ".join(map(str, choices))
    return f"error: argument {flag}: invalid choice: {value} (choose from {listed})"


# ---------------------------------------------------------------------------
# invariants


def test_invariants_json_for_the_four_cycle(capsys) -> None:
    code, out, _ = _run(capsys, ["invariants", "--graph", "bipartite:2,2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["facets"] == 12
    assert payload["f_vector"] == [20, 30, 12, 1]
    assert payload["dimension"] == 3
    assert payload["gamma"] == ["1", "6"]


def test_invariants_csv_for_the_triangle(capsys) -> None:
    code, out, _ = _run(
        capsys, ["invariants", "--graph", "complete:3", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,value"
    assert "f_vector,6;6;1" in lines
    assert "gamma,1;2" in lines


def test_invariants_json_for_an_edge(capsys) -> None:
    code, out, _ = _run(capsys, ["invariants", "--graph", "edges:2:0-1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["f_vector"] == [2, 1]
    assert payload["gamma"] == ["1"]


def test_invariants_rejects_a_bad_graph_spec(capsys) -> None:
    deep = "join(empty:0," * 2000 + "empty:0" + ")" * 2000
    # sizes are ASCII digits only, not whatever int() reads
    malformed = ("complete:1_0", "complete:+3", "complete:\u0663", "bipartite:1,-0")
    malformed += ("edges:3:0-1_0", "join(complete:2,empty:1))", "complete:" + "9" * 5000)
    for spec in ("nonsense:4", "complete:1500", "join(complete:15,complete:15)", deep, *malformed):
        code, out, err = _run(capsys, ["invariants", "--graph", spec])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, spec[:40]


def test_invariants_of_cycles_are_the_cyclohedron_closed_form(capsys) -> None:
    # cycle:N is the (N-1)-dimensional cyclohedron; with d = N - 1,
    # gamma_i = d! / (i!^2 (d - 2i)!).
    for n in range(3, 10):
        code, out, _ = _run(capsys, ["invariants", "--graph", f"cycle:{n}"])
        assert code == 0, n
        d = n - 1
        expected = [
            str(factorial(d) // (factorial(i) ** 2 * factorial(d - 2 * i)))
            for i in range(d // 2 + 1)
        ]
        payload = json.loads(out)
        assert payload["dimension"] == d
        assert payload["gamma"] == expected, n


def test_invariants_rejects_short_cycles(capsys) -> None:
    for spec in ("cycle:2", "cycle:0", "cycle:21"):
        code, out, err = _run(capsys, ["invariants", "--graph", spec])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


K8 = (
    "edges:8:0-1,0-2,0-3,0-4,0-5,0-6,0-7,1-2,1-3,1-4,1-5,1-6,1-7,"
    "2-3,2-4,2-5,2-6,2-7,3-4,3-5,3-6,3-7,4-5,4-6,4-7,5-6,5-7,6-7"
)
K8_FACES = "40320, 141120, 191520, 126000, 40824, 5796, 254"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda f: f[:-1] + (2,), f"[{K8_FACES}, 2], not 8 entries ending in 1"),
        # a packed int holds no zero field past its top one, so the extra
        # entry is a 1
        (lambda f: f + (1,), f"[{K8_FACES}, 1, 1], not 8 entries ending in 1"),
        (
            lambda f: f[1:],
            "[141120, 191520, 126000, 40824, 5796, 254, 1], not 8 entries ending in 1",
        ),
    ],
    ids=["top-face-not-one", "one-entry-long", "one-entry-short"],
)
def test_face_counts_that_fail_the_check_exit_one(
    capsys, monkeypatch, corrupt, message: str
) -> None:
    # Valid input, but the face counts the recursion computes for a
    # eight-node subproblem fail its own check: a failed check (1) with one
    # error line naming the graph, not a usage error (2).  The face counts
    # are unpacked, corrupted and packed again.  Smaller subproblems are
    # read from tables, so the formula runs on eight nodes or more.
    plain = ringcalc._NestedSets.expand

    def broken(self, mask: int) -> int:
        f = plain(self, mask)
        if mask.bit_count() != 8:
            return f
        wrong = corrupt(tuple(algebra._digits(f, ringcalc._WIDTH)))
        return sum(c << ringcalc._WIDTH * i for i, c in enumerate(wrong))

    monkeypatch.setattr(ringcalc._NestedSets, "expand", broken)
    code, out, err = _run(capsys, ["invariants", "--graph", "complete:8"])
    assert (code, out) == (1, "")
    assert err == "error: face counts of " + K8 + " are " + message + "\n"


def test_negative_face_counts_exit_one_within_seconds() -> None:
    # Face counts of an eight-node subproblem negated: the check names them
    # in balanced digits.  An unsigned decode of a negative int never ends
    # and its digit list grows, so the run goes in a subprocess with a
    # timeout and a cap on its address space.
    script = """
import sys
from nestohedra import ringcalc
from nestohedra.cli import main

plain = ringcalc._NestedSets.expand

def negated(self, mask):
    f = plain(self, mask)
    return -f if mask.bit_count() == 8 else f

ringcalc._NestedSets.expand = negated
sys.exit(main(["invariants", "--graph", "complete:8"]))
"""
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=30,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == (
        f"error: face counts of {K8} are "
        "[-40320, -141120, -191520, -126000, -40824, -5796, -254, -1], "
        "not 8 entries ending in 1\n"
    )


def test_an_asymmetric_h_polynomial_exits_one(capsys, monkeypatch) -> None:
    # An h-polynomial that breaks Dehn-Sommerville came from a faulty
    # recursion on a valid spec: a failed check (1), not bad input (2).
    # invariants derives h from its one face polynomial, and gal-scan from
    # a row's packed face counts in invariants.gal_check_classes, both
    # through h_from_f in invariants; the row then fails its check and is
    # run again one class at a time, and the first class is named.
    plain_h_from_f = algebra.h_from_f
    monkeypatch.setattr(invariants, "h_from_f", lambda f: plain_h_from_f(f) + power(A, 2))
    code, out, err = _run(capsys, ["invariants", "--graph", "complete:3"])
    assert (code, out) == (1, "")
    assert err == (
        "error: h-polynomial of edges:3:0-1,0-2,1-2: "
        "not symmetric in alpha and t: 2*a^2 + 4*a*t + t^2\n"
    )
    code, out, err = _run(capsys, ["gal-scan", "--graph-class", "connected", "--nodes", "3"])
    assert (code, out) == (1, "")
    assert err.startswith("error: h-polynomial of edges:3:")
    assert err.count("\n") == 1


def test_a_gamma_extraction_residual_exits_one(capsys, monkeypatch) -> None:
    # Doubling the binomials of the gamma basis leaves a residual on any
    # h-polynomial with a nonzero gamma_0, here the triangle's.
    monkeypatch.setattr(algebra, "comb", lambda m, k: 2 * comb(m, k))
    code, out, err = _run(capsys, ["invariants", "--graph", "complete:3"])
    assert (code, out) == (1, "")
    assert err.startswith(
        "error: h-polynomial of edges:3:0-1,0-2,1-2: gamma extraction left a residual: "
    )
    assert err.count("\n") == 1
    code, out, err = _run(capsys, ["gal-scan", "--graph-class", "connected", "--nodes", "3"])
    assert (code, out) == (1, "")
    assert err.startswith("error: h-polynomial of edges:3:")
    assert "gamma extraction left a residual: " in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["identities", "--order", "4"], "error: identities at order 4: "),
        (["verify", "--family", "st", "--max-order", "4"], "error: series of st at order 4: "),
        (["verify", "--max-order", "3"], "error: series of pe at order 3: "),
        # a family scan decodes a slot where it takes h, at a family index
        (["gal-scan", "--family", "because-because", "--bound", "5"],
         "error: h-series of because-because at (1, 1): "),
    ],
    ids=["identities", "verify-st", "verify-all", "gal-scan"],
)
def test_a_series_slot_of_the_wrong_length_exits_one(
    capsys, monkeypatch, cold_series_caches, argv: list[str], message: str
) -> None:
    # A kernel that adds a digit far above every slot's last to its
    # product leaves slots that decode to more digits than their degree
    # allows.  The arguments were valid, so that is the series arithmetic's
    # failure (1), named in one line, not bad input (2).
    plain = series._product

    def padded(*operands) -> list[int]:
        return [v + (1 << 4096) if v else 0 for v in plain(*operands)]

    monkeypatch.setattr(series, "_product", padded)
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(message + "slot (")
    assert "-bit fields\n" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["identities", "--order", "4"], "error: identities at order 4: "),
        (["verify", "--max-order", "3"], "error: series of pe at order 3: "),
        (["gal-scan", "--family", "because-because", "--bound", "5"],
         "error: series of because-because at order 5: "),
    ],
    ids=["identities", "verify-all", "gal-scan"],
)
def test_packed_fields_too_narrow_exit_one(
    capsys, monkeypatch, cold_series_caches, argv: list[str], message: str
) -> None:
    # Fields of 3 bits cannot hold the ordered Bell numbers of the shared
    # denominators: a failed check of the series arithmetic (1), named in
    # one line, never a wrong coefficient.
    monkeypatch.setattr(series, "_width", lambda order: 3)
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(message + "coefficients outgrow the 3-bit fields of order ")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_pe_to_order_seven(capsys) -> None:
    code, out, _ = _run(
        capsys, ["verify", "--family", "pe", "--max-order", "7"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["reports"][0]["checked"] == 7
    assert payload["reports"][0]["mismatches"] == []


def test_verify_all_families_csv_rows_are_sorted(capsys) -> None:
    code, out, _ = _run(
        capsys, ["verify", "--max-order", "4", "--format", "csv"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,k,l,status"
    assert all(line.endswith(",ok") for line in lines[1:])
    by_family: dict[str, list[tuple[int, int]]] = {}
    for line in lines[1:]:
        fam, k, l, _ = line.split(",")
        by_family.setdefault(fam, []).append((int(k), int(l)))
    assert list(by_family) == ["pe", "st", "starmarked", "nabla-because", "because-because"]
    for indices in by_family.values():
        assert indices == sorted(indices, key=lambda s: (sum(s), s))


def test_verify_rejects_orders_beyond_the_truncation(capsys) -> None:
    code, out, err = _run(capsys, ["verify", "--family", "pe", "--max-order", "99"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(_choices_error("--max-order", 99, range(17)))


_VERIFY_NEGATIVE_CONTROL = {
    "json": "106a9f31e9bfeb973d43c24b66da244b924ebe9d65e0bec1af0f722f8cdfaadb",
    "csv": "ae828ee702cdf6fd230e4af38cd6c9cbae3364df7c0ae5be07295df205ad925e",
}


@pytest.mark.parametrize("fmt", list(_VERIFY_NEGATIVE_CONTROL))
def test_verify_negative_control_digests(capsys, monkeypatch, fmt: str) -> None:
    # sha256 of stdout, recorded while verify still carried each family's
    # indices to its CSV rows.  A wrong face polynomial for the triangle,
    # pe at (3, 0), is a finding: a mismatch entry and a mismatch row,
    # exit 1, and nothing on stderr.  verify reads each member as a node
    # mask of the family's largest graph, so the triangle is the mask
    # whose induced subgraph it is.
    plain, triangle = invariants.induced_fpolys, nestohedra.complete_graph(3)

    def corrupted(g: Graph, masks: list[int], cache=None) -> list[Poly2]:
        return [
            Poly2.from_coeffs((6, 6, 2)) if Graph(_induced_adj(g.adj, mask)) == triangle else f
            for mask, f in zip(masks, plain(g, masks, cache))
        ]

    monkeypatch.setattr(invariants, "induced_fpolys", corrupted)
    argv = ["verify", "--family", "pe", "--max-order", "4", "--format", fmt]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (1, "")
    if fmt == "json":
        assert [(m["k"], m["l"]) for m in json.loads(out)["reports"][0]["mismatches"]] == [(3, 0)]
    else:
        assert "pe,3,0,mismatch" in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == _VERIFY_NEGATIVE_CONTROL[fmt]


# ---------------------------------------------------------------------------
# identities


def test_identities_pass_at_order_eight(capsys) -> None:
    code, out, _ = _run(capsys, ["identities", "--order", "8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["results"]) == 8


def test_identities_reject_order_one(capsys) -> None:
    code, _, err = _run(capsys, ["identities", "--order", "1"])
    assert code == 2
    assert "order" in err


def test_identities_reject_orders_beyond_the_ceiling(capsys) -> None:
    code, _, _ = _run(capsys, ["identities", "--order", "17"])
    assert code == 2


_INT_FLAG_ARGVS = (
    ["identities", "--order"],
    ["verify", "--max-order"],
    ["gal-scan", "--family", "pe", "--bound"],
    ["gal-scan", "--graph-class", "connected", "--nodes"],
)


@pytest.mark.parametrize("text", ["0_3", "+3", " 3 ", "\u0663"])
def test_int_flags_take_ascii_digits_only(capsys, text: str) -> None:
    # int() reads each of these as 3; an int flag refuses them
    for argv in _INT_FLAG_ARGVS:
        code, out, err = _run(capsys, [*argv, text])
        assert (code, out) == (2, ""), argv
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(f"error: argument {argv[-1]}: invalid int value: {text!r}")
    # a minus sign is read, and the flag's range refuses the value
    code, out, err = _run(capsys, ["identities", "--order", "-1"])
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(_choices_error("--order", -1, range(2, 17)))


def test_corrupted_identities_fail_with_a_named_identity(capsys) -> None:
    code, out, _ = _run(
        capsys,
        ["identities", "--order", "6", "--corrupt", "pe", "--format", "csv"],
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "identity,passed,mismatch_k,mismatch_l"
    assert lines[1] == "I1,false,2,0"


# ---------------------------------------------------------------------------
# gal-scan


def test_gal_scan_bipartite_family(capsys) -> None:
    code, out, _ = _run(
        capsys,
        ["gal-scan", "--family", "because-because", "--bound", "7", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,k,l,dimension,gamma,status"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 23
    indices = {(int(r[1]), int(r[2])) for r in rows}
    wanted = {(m, n) for m in range(1, 7) for n in range(1, 7) if m + n <= 7}
    assert wanted <= indices
    assert all(r[5] == "ok" for r in rows)


def test_gal_scan_json_carries_gamma_vectors(capsys) -> None:
    code, out, _ = _run(
        capsys, ["gal-scan", "--family", "pe", "--bound", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    report = payload["reports"][0]
    assert report["checked"] == 4
    assert report["violations"] == []
    hexagon = next(g for g in report["gammas"] if (g["k"], g["l"]) == (3, 0))
    assert hexagon["gamma"] == ["1", "2"]


def test_gal_scan_connected_graph_classes(capsys) -> None:
    code, out, _ = _run(
        capsys,
        ["gal-scan", "--graph-class", "connected", "--nodes", "4", "--format", "csv"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graph,dimension,gamma,status"
    assert len(lines) == 7
    assert all(line.endswith(",ok") for line in lines[1:])


def _class_scan(
    specs: list[str], rows: list[list[int]], dim: int
) -> list[algebra.GammaVector]:
    """``gal_check_classes`` on a row of these specs and face counts in place of the atlas's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariants, "CONNECTED", {dim + 1: tuple(specs)})
        patch.setattr(invariants, "class_face_counts", lambda n: rows)
        return list(invariants.gal_check_classes(dim + 1).values())


def _one_class_at_a_time(
    specs: list[str], rows: list[list[int]], dim: int
) -> list[algebra.GammaVector]:
    """The class scan's gamma vectors, each class's own h checked on its own."""
    gammas = []
    for spec, counts in zip(specs, rows, strict=True):
        h = algebra.h_from_f(Poly2.from_coeffs(counts))
        try:
            gammas.append(invariants.gal_check_poly(h, dim))
        except (ValueError, ArithmeticError) as exc:
            raise ArithmeticError(f"h-polynomial of {spec}: {exc}") from exc
    return gammas


@st.composite
def _class_counts(draw, n: int, symmetric: bool) -> list[int]:
    """Face counts of n entries: a table class's, a gamma vector's, or any.

    The wide kinds hold counts outside [0, 2^16), which the packed row
    refuses: -1, 2^16 and values up to 2^64 either way, or the counts of
    a gamma vector near 2^50, symmetric and checked without error one
    class at a time.
    """
    kinds = ["table", "gamma", "wide gamma"] + ([] if symmetric else ["any", "wide"])
    kind = draw(st.sampled_from(kinds))
    if kind == "table":
        return draw(st.sampled_from(ringcalc.class_face_counts(n)))
    if kind in ("any", "wide"):
        entry = st.one_of(st.just(0), st.just(2**16 - 1), st.integers(0, 2**16 - 1))
        if kind == "wide":
            outside = st.sampled_from([-1, 2**16, 2**63, 2**64])
            entry = st.one_of(entry, outside, st.integers(-(2**64), 2**64))
        return draw(st.lists(entry, min_size=n, max_size=n))
    # gamma_0 > 0 and the others of either sign, kept when every face count
    # is a 16-bit entry, or all near 2^50
    dim = n - 1
    if kind == "wide gamma":
        top, rest = st.integers(2**50 - 2**20, 2**50), st.integers(-(2**50), 2**50)
    else:
        top, rest = st.integers(1, 60), st.integers(-60, 60)
    gammas = (draw(top), *(draw(rest) for _ in range(dim // 2)))
    f = list(f_from_h(h_from_gamma(algebra.GammaVector(dim, gammas))).coeffs)
    assume(kind == "wide gamma" or all(0 <= c < 2**16 for c in f))
    return f


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_packed_class_row_agrees_with_one_class_at_a_time(data) -> None:
    # Rows of face counts on 1-7 nodes, some of them symmetric with
    # negative gamma entries, some asymmetric or all zero: the packed row
    # gives every class's gamma vector, and raises exactly when a class's
    # own check would, in which case the row raises that class's message.
    # A row with a count outside 16 bits, past its bound's premise, raises
    # ValueError, and the scan checks its classes one at a time.
    n = data.draw(st.integers(1, 7), label="n")
    symmetric = data.draw(st.booleans(), label="symmetric")
    rows = data.draw(st.lists(_class_counts(n, symmetric), min_size=1, max_size=12), label="rows")
    specs = [f"class {c}" for c in range(len(rows))]
    wide = not all(0 <= c < 2**16 for counts in rows for c in counts)
    if wide:
        with pytest.raises(ValueError):
            invariants._packed_gammas(rows, n - 1)
    try:
        expected = _one_class_at_a_time(specs, rows, n - 1)
    except ArithmeticError as exc:
        with pytest.raises((ValueError, ArithmeticError)):
            invariants._packed_gammas(rows, n - 1)
        with pytest.raises(ArithmeticError) as raised:
            _class_scan(specs, rows, n - 1)
        assert str(raised.value) == str(exc)
    else:
        if not wide:
            assert invariants._packed_gammas(rows, n - 1) == expected
        assert _class_scan(specs, rows, n - 1) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_a_packed_class_row_stays_inside_its_fields(n: int) -> None:
    # Counts of alternating sign are where the Taylor shift of h_from_f
    # only adds magnitudes, so with 16-bit ones it reaches its largest
    # values, and they stay below 2^25.  Each peel step of the gamma
    # extraction multiplies the bound by at most 1 + 2^m, 11050 in all on
    # seven nodes, so every packed field stays below 2^40 < 2^63.
    dim = n - 1
    worst = algebra.h_from_f(Poly2.from_coeffs((-1) ** i * (2**16 - 1) for i in range(n)))
    shift = max(map(abs, worst.coeffs))
    assert shift < 2**25
    growth = prod(1 + 2 ** (dim - 2 * i) for i in range(dim // 2 + 1))
    assert growth <= 11050
    assert shift * growth < 2**40
    # past seven nodes the bound is not claimed, and the row raises
    with pytest.raises(ValueError):
        invariants._packed_gammas([[1] * 8], 7)


@pytest.mark.parametrize(
    "counts",
    [[2**16], [2**16, 2**15], [2**16, 2**16, 1], [-1], [2**63], [2**64], [-(2**64)]],
    ids=["2^16", "2^16,2^15", "2^16,2^16,1", "-1", "2^63", "2^64", "-2^64"],
)
def test_a_class_row_refuses_counts_outside_16_bits(counts: list[int]) -> None:
    # Each row is symmetric, so its class checks without error on its own,
    # and a count of 2^16 would still fit the fields' bound: the row's own
    # range check alone refuses it, and the scan checks the class on its own.
    dim = len(counts) - 1
    with pytest.raises(ValueError, match="16-bit"):
        invariants._packed_gammas([counts], dim)
    expected = _one_class_at_a_time(["class 0"], [counts], dim)
    assert _class_scan(["class 0"], [counts], dim) == expected


def test_a_class_scan_checks_each_row_once(capsys, monkeypatch) -> None:
    # Every atlas row passes its packed check: one h_from_f per scan.
    plain, calls = invariants.h_from_f, []
    monkeypatch.setattr(invariants, "h_from_f", lambda f: calls.append(f) or plain(f))
    for n in range(1, 8):
        calls.clear()
        code, _, err = _run(capsys, ["gal-scan", "--graph-class", "connected", "--nodes", str(n)])
        assert (code, err, len(calls)) == (0, "", 1), n


def test_a_json_class_scan_builds_no_csv_row(capsys, monkeypatch) -> None:
    # main builds a report's JSON object only to write JSON and reads its
    # rows only to write CSV, so a scan formats only the output it writes:
    # one _scan_json per class scan or per family, one _scan_row per item.
    made = {"_scan_json": 0, "_scan_row": 0}

    def counting(name: str) -> Callable:
        plain = getattr(cli, name)

        def counted(arg):
            made[name] += 1
            return plain(arg)

        return counted

    for name in made:
        monkeypatch.setattr(cli, name, counting(name))
    family_rows = sum(len(spec.indices(6)) for spec in FAMILIES.values())
    for scan, entries, rows in (
        (["--graph-class", "connected", "--nodes", "7"], 1, 853),
        (["--family", "all", "--bound", "6"], len(FAMILIES), family_rows),
    ):
        for fmt, count in (("json", (entries, 0)), ("csv", (0, rows))):
            made.update(_scan_json=0, _scan_row=0)
            code, _, err = _run(capsys, ["gal-scan", *scan, "--format", fmt])
            assert (code, err, tuple(made.values())) == (0, "", count), (scan, fmt)


def test_invariants_builds_only_the_output_it_writes(capsys, monkeypatch) -> None:
    # the h-polynomial is written by to_records in JSON and by str in CSV;
    # each format formats it once and never the other way
    made = {"__str__": 0, "to_records": 0}

    def counting(name: str) -> Callable:
        plain = getattr(Poly2, name)

        def counted(self):
            made[name] += 1
            return plain(self)

        return counted

    for name in made:
        monkeypatch.setattr(Poly2, name, counting(name))
    for spec in ("path:5", "bipartite:3,4", "edges:8:0-1,0-2,0-3,0-4,1-2,2-4,2-7,3-6,4-5,5-7"):
        for fmt, count in (("json", (0, 1)), ("csv", (1, 0))):
            made.update({"__str__": 0, "to_records": 0})
            code, _, err = _run(capsys, ["invariants", "--graph", spec, "--format", fmt])
            assert (code, err, tuple(made.values())) == (0, "", count), (spec, fmt)


def test_gal_scan_usage_errors(capsys) -> None:
    assert _run(capsys, ["gal-scan", "--bound", "0"])[0] == 2
    assert _run(capsys, ["gal-scan"])[0] == 2
    assert _run(capsys, ["gal-scan", "--family", "pe", "--nodes", "3"])[0] == 2
    assert (
        _run(capsys, ["gal-scan", "--graph-class", "connected", "--bound", "3"])[0]
        == 2
    )
    assert (
        _run(capsys, ["gal-scan", "--graph-class", "connected", "--nodes", "9"])[0]
        == 2
    )
    assert (
        _run(
            capsys,
            ["gal-scan", "--family", "because-because", "--bound", "17"],
        )[0]
        == 2
    )


def _doctor_pe_f(monkeypatch, doctor: Callable[[series.Series2], series.Series2]) -> None:
    """Make the pe face series that ``verify`` and the family scan build doctor(s) in place of s."""
    plain = series.family_f

    def doctored(fam_id: str, order: int) -> series.Series2:
        s = plain(fam_id, order)
        return doctor(s) if fam_id == "pe" else s

    # both checks build their series in invariants
    monkeypatch.setattr(invariants, "family_f", doctored)


def _with_hexagon(p: Poly2) -> Callable[[series.Series2], series.Series2]:
    """A doctor that puts h-polynomial p at (3, 0), the hexagon's index."""
    return lambda s: series_of(s.order, {**dict(s.items()), (3, 0): f_from_h(p)})


@pytest.mark.parametrize(
    "doctor, index",
    [
        (_with_hexagon(Poly2.from_coeffs(())), "(3, 0)"),
        (_with_hexagon(power(A, 2) + 4 * A * T + 2 * power(T, 2)), "(3, 0)"),
        # a whole series of offset 0, one above pe's grading: its first
        # coefficient, at (1, 0), has the wrong degree
        (lambda s: s * f_from_h(A + T), "(1, 0)"),
    ],
    ids=["dropped", "asymmetric", "wrong-degree"],
)
def test_a_family_coefficient_with_no_gamma_vector_exits_one(
    capsys, monkeypatch, doctor: Callable[[series.Series2], series.Series2], index: str
) -> None:
    # The series was built from valid arguments, so a coefficient with no
    # gamma vector is its failure (1), named in one line by family and
    # index, and nothing is written to stdout.
    _doctor_pe_f(monkeypatch, doctor)
    code, out, err = _run(capsys, ["gal-scan", "--family", "all", "--bound", "4"])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: h-series of pe at {index}: ")
    assert err.count("\n") == 1


def test_an_undecodable_family_slot_exits_one(capsys, monkeypatch) -> None:
    # A slot at a family index whose digits outgrow its fields is found
    # where the scan decodes it, and named by family and index.
    def overflowing(s: series.Series2) -> series.Series2:
        coeffs = s._coeffs.copy()
        coeffs[series._index(3, 0)] = 1 << s._width * 5
        return series.Series2(s.order, s.offset, coeffs, s._bounds, s._width)

    _doctor_pe_f(monkeypatch, overflowing)
    code, out, err = _run(capsys, ["gal-scan", "--family", "pe", "--bound", "4"])
    assert (code, out) == (1, "")
    assert err.startswith("error: h-series of pe at (3, 0): slot (3, 0) does not fit ")
    assert err.count("\n") == 1


def test_a_family_scan_decodes_each_family_index_once(capsys, monkeypatch) -> None:
    # the face series' slots are read where the scan takes h, and only at
    # the family's own indices
    decoded = []
    plain = series.Series2.coeff

    def counted(self: series.Series2, k: int, l: int) -> Poly2:
        decoded.append((k, l))
        return plain(self, k, l)

    monkeypatch.setattr(series.Series2, "coeff", counted)
    assert _run(capsys, ["gal-scan", "--family", "all", "--bound", "6"])[0] == 0
    assert len(decoded) == sum(len(spec.indices(6)) for spec in FAMILIES.values())


def test_a_negative_gamma_entry_is_a_located_violation(capsys, monkeypatch) -> None:
    # (alpha + t)^2 - alpha t at pe (3, 0) has gamma = (1, -1): a finding,
    # written as the one violation, with its witness, and exit 1
    _doctor_pe_f(monkeypatch, _with_hexagon(power(A, 2) + A * T + power(T, 2)))
    code, out, err = _run(capsys, ["gal-scan", "--family", "pe", "--bound", "4"])
    assert (code, err) == (1, "")
    report = json.loads(out)["reports"][0]
    assert report["violations"] == [
        {"k": 3, "l": 0, "condition": "gamma-nonnegativity", "witness": "gamma_1 = -1"}
    ]
    assert report["gammas"][2] == {"k": 3, "l": 0, "dimension": 2, "gamma": ["1", "-1"]}
    code, out, _ = _run(capsys, ["gal-scan", "--family", "pe", "--bound", "4", "--format", "csv"])
    assert code == 1
    assert out.splitlines()[3] == "pe,3,0,2,1;-1,violation"


# ---------------------------------------------------------------------------
# the JSON writer

# strings with quotes, backslashes, control characters, non-ASCII text
# (astral plane included) and lone surrogates
_JSON_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud800\U0001f600'),
        st.characters(max_codepoint=0x7F),
        st.characters(min_codepoint=0x80, max_codepoint=0x10FFFF),
    ),
    max_size=12,
)
_JSON_SCALARS = st.one_of(
    _JSON_TEXT,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64),
    st.booleans(),
    st.none(),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.dictionaries(_JSON_TEXT, inner, max_size=5)
    ),
    max_leaves=20,
)


def _written(obj: object) -> str:
    parts: list[str] = []
    cli._json_parts(obj, "", parts)
    return "".join(parts)


@settings(max_examples=100, deadline=None)
@given(obj=_JSON_VALUES)
def test_the_json_writer_writes_the_bytes_of_json_dumps(obj: object) -> None:
    assert _written(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_the_json_writer_writes_empty_containers_and_extremes() -> None:
    for obj in ({}, [], {"": []}, [{}], {"a": {"b": {}}, "A": [[], [[]]]}, -(2**64) - 1, True, None):
        assert _written(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [1.5, (1, 2), {1: "x"}, {"a": [b"x"]}, {"a": {1, 2}}])
def test_the_json_writer_refuses_other_types(obj: object) -> None:
    with pytest.raises(TypeError):
        _written(obj)


# ---------------------------------------------------------------------------
# shared plumbing


def test_help_exits_zero(capsys) -> None:
    assert _run(capsys, ["--help"])[0] == 0


def test_unknown_command_exits_two(capsys) -> None:
    assert _run(capsys, ["frobnicate"])[0] == 2


class _BrokenPipe(io.StringIO):
    def write(self, text: str) -> int:
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_failed_write_exits_two(capsys, monkeypatch, fmt: str) -> None:
    # main writes the report inside the try that turns an OSError into
    # exit 2 and one error line.
    monkeypatch.setattr(sys, "stdout", _BrokenPipe())
    code = main(["invariants", "--graph", "path:3", "--format", fmt])
    assert (code, capsys.readouterr().err) == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_closed_standard_streams_keep_the_exit_codes(fmt: str) -> None:
    # a descriptor closed before Python starts leaves sys.stdout None, and
    # a closed descriptor 2 fails the error line's write: neither ends in
    # a traceback and exit 1
    def run(graph: str, *closed: int) -> tuple[int, bytes]:
        argv = ["invariants", "--graph", graph, "--format", fmt]
        done = subprocess.run(
            [sys.executable, "-m", "nestohedra.cli", *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=_src_env(),
            preexec_fn=lambda: [os.close(fd) for fd in closed],
        )
        return done.returncode, done.stderr

    assert run("path:3", 1) == (2, b"error: standard output is closed\n")
    assert run("path:3", 1, 2) == (2, b"")
    assert run("bogus:3", 2) == (2, b"")
    assert run("bogus:3", 1, 2) == (2, b"")


def test_a_script_whose_stdout_closed_ends_as_the_command_line_does() -> None:
    # tests/same_bytes.py, traffic.py and reach.py write stdout through
    # same_bytes.emit; with the pipe's read end closed before the write,
    # it gives main's one error line and exit 2, and no traceback at exit
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent))
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import same_bytes; same_bytes.emit('x')"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (2, b"error: [Errno 32] Broken pipe\n")


def test_the_console_script_is_main(capsys, monkeypatch) -> None:
    # pip's console script calls sys.exit(target()), so the target is main,
    # whose return value is the exit code
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"nestohedra": "nestohedra.cli:main"}
    module, _, name = scripts["nestohedra"].partition(":")
    target = getattr(importlib.import_module(module), name)
    for argv, code in ((["invariants", "--graph", "path:3"], 0), ([], 2)):
        monkeypatch.setattr(sys, "argv", ["nestohedra", *argv])
        assert target() == code, argv
    assert "usage: nestohedra" in capsys.readouterr().err


def test_a_failed_series_build_exits_one(capsys, monkeypatch) -> None:
    # Once the arguments are validated, any failure is the computation's:
    # even a plain ValueError from the series build is exit 1, named by
    # what was built.
    def broken(fam_id: str, order: int) -> series.Series2:
        raise ValueError("plain")

    monkeypatch.setattr(invariants, "family_f", broken)
    code, out, err = _run(capsys, ["gal-scan", "--family", "pe", "--bound", "4"])
    assert (code, out, err) == (1, "", "error: series of pe at order 4: plain\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["gal-scan", "--graph-class", "connected", "--nodes", "5", "--format", "csv"],
        ["identities", "--order", "8", "--format", "csv"],
        ["verify", "--family", "all", "--max-order", "8", "--format", "csv"],
    ],
    ids=["connected-5", "identities-8", "verify-all-8"],
)
def test_warm_caches_give_the_bytes_of_a_cold_run(capsys, argv: list[str]) -> None:
    # Each recorded run is checked with the series caches emptied first;
    # here two runs in a row find them filled by the cold one before them,
    # as in a process that runs more than one command.
    cold = in_process(argv)
    for _ in range(2):
        code, out, err = _run(capsys, argv)
        assert (code, out.encode(), err.encode()) == cold


def test_every_subcommand_runs_to_the_order_ceiling(capsys) -> None:
    # Each command computes its series at the order it is given, so orders
    # up to the ceiling need nothing beyond the flag.
    for order in (9, 16):
        code, out, _ = _run(
            capsys, ["verify", "--family", "pe", "--max-order", str(order)]
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["checked"] == order
    assert _run(capsys, ["verify", "--max-order", "0"])[0] == 0
    code, out, _ = _run(capsys, ["verify", "--family", "pe", "--max-order", "17"])
    assert (code, out) == (2, "")


def test_complete_bipartite_recursion_matches_the_series_to_order_sixteen(capsys) -> None:
    # Every K_{k,l} with k + l <= 16 through the facet recursion, against
    # the paper's generating function; the scan of the same family reaches
    # the same order.
    code, out, _ = _run(
        capsys, ["verify", "--family", "because-because", "--max-order", "16"]
    )
    assert code == 0
    report = json.loads(out)["reports"][0]
    # (0, 1), (1, 0), and every k, l >= 1 with k + l <= 16
    assert report["checked"] == 2 + 15 * 16 // 2 == 122
    assert report["mismatches"] == []
    assert (
        _run(capsys, ["gal-scan", "--family", "because-because", "--bound", "16"])[0]
        == 0
    )


_NON_GAL = power(A, 2) + power(T, 2)  # gammas 1, -2

_GAL_SCAN_NEGATIVE_CONTROLS = {
    ("family", "json"): "afe0509b40596fa9693b3afb64a3150ca9a8a7e3b1cdbb27dcefe80b86f0fc2f",
    ("family", "csv"): "612ef4c2aadd6d2624d9e59d078da40d37772fc9f15e169d0f4c119ea5f23d2d",
    ("class", "json"): "971ca09560ecd6331873095a290fcca8919ad77086c16517e2f54f9cb15d3ec1",
    ("class", "csv"): "52c95cc7a24163f11082b0182b3dd0bff0f0162335a87620c0fd6d9de754593f",
}


@pytest.mark.parametrize("scan, fmt", list(_GAL_SCAN_NEGATIVE_CONTROLS))
def test_gal_scan_negative_control_digests(capsys, monkeypatch, scan: str, fmt: str) -> None:
    # sha256 of stdout, recorded while each scan wrote its own violation
    # and gamma entries.  alpha^2 + t^2 takes the place of the hexagon at
    # pe (3, 0), or of the triangle's h-polynomial, through its face
    # counts 2 + 2 alpha + alpha^2 in place of 6 + 6 alpha + alpha^2: a
    # negative gamma entry is a finding, written out with exit 1.
    if scan == "family":
        _doctor_pe_f(monkeypatch, _with_hexagon(_NON_GAL))
        argv = ["gal-scan", "--family", "all", "--bound", "4"]
    else:
        assert algebra.h_from_f(Poly2.from_coeffs((2, 2, 1))) == _NON_GAL
        plain = invariants.class_face_counts
        monkeypatch.setattr(
            invariants,
            "class_face_counts",
            lambda n: [[2, 2, 1] if f == [6, 6, 1] else f for f in plain(n)],
        )
        argv = ["gal-scan", "--graph-class", "connected", "--nodes", "3"]
    code, out, err = _run(capsys, argv + ["--format", fmt])
    assert (code, err) == (1, "")
    digest = _GAL_SCAN_NEGATIVE_CONTROLS[(scan, fmt)]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_config_flag_is_refused(capsys, tmp_path: Path) -> None:
    # There is no settings file: --config is a usage error on every command.
    config = tmp_path / "settings.cfg"
    config.write_text("order = 9\n", encoding="utf-8")
    for argv in (
        ["invariants", "--graph", "path:3"],
        ["verify", "--family", "pe", "--max-order", "3"],
        ["identities", "--order", "3"],
        ["gal-scan", "--family", "pe", "--bound", "3"],
    ):
        code, out, _ = _run(capsys, argv + ["--config", str(config)])
        assert code == 2, argv
        assert out == "", argv


def test_iso_memo_flag_does_not_change_output(capsys, tmp_path: Path) -> None:
    # The isomorphism-keyed memo is gone: the flag and its setting are
    # refused before any output is written.
    argv = ["invariants", "--graph", "bipartite:2,3"]
    plain = _run(capsys, argv)
    assert plain[0] == 0
    assert _run(capsys, argv) == plain
    code, out, _ = _run(capsys, argv + ["--iso-memo"])
    assert code == 2
    assert out == ""
    config = tmp_path / "settings.cfg"
    config.write_text("iso_memo = on\n", encoding="utf-8")
    code, out, _ = _run(capsys, argv + ["--config", str(config)])
    assert code == 2
    assert out == ""


def test_jobs_flag_rejects_nonpositive_values(capsys, tmp_path: Path) -> None:
    # There is no thread pool any more, so every --jobs value is refused.
    for value in ("0", "-1", "2"):
        code, _, err = _run(
            capsys, ["identities", "--order", "3", "--jobs", value]
        )
        assert code == 2
        assert "jobs" in err
    config = tmp_path / "settings.cfg"
    config.write_text("jobs = 2\n", encoding="utf-8")
    code, out, _ = _run(capsys, ["identities", "--order", "3", "--config", str(config)])
    assert code == 2
    assert out == ""


def _src_env() -> dict[str, str]:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(nestohedra.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_a_class_scan_imports_no_module() -> None:
    # The atlas tokens sit in the class table, which the package imports,
    # and the packed row is read back with builtins: no class scan loads
    # a module, in either format.
    script = """
import contextlib, io, json, sys
from nestohedra.cli import main
before = set(sys.modules)
codes = []
for n in range(1, 8):
    for fmt in ("json", "csv"):
        argv = ["gal-scan", "--graph-class", "connected", "--nodes", str(n), "--format", fmt]
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(argv))
print(json.dumps({"codes": codes, "loaded": sorted(set(sys.modules) - before)}))
"""
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_src_env(),
        check=True,
    )
    assert json.loads(done.stdout) == {"codes": [0] * 14, "loaded": []}


def test_no_subcommand_imports_networkx() -> None:
    # The graph atlas is a committed table, so the CLI runs without the
    # package it was taken from.  A well-formed argv is read from the
    # option table without argparse (nor the locale module its messages
    # pull in); an abbreviated flag is argparse's to read.  The records
    # are named tuples and every passing op is integer-only, so neither
    # dataclasses nor fractions (nor what they import) is loaded.
    script = """
import contextlib, io, json, sys
from nestohedra.cli import main
runs = [
    ["invariants", "--graph", "path:4"],
    ["verify", "--family", "pe", "--max-order", "3"],
    ["identities", "--order", "3"],
    ["gal-scan", "--graph-class", "connected", "--nodes", "5"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
unused = (
    "networkx", "argparse", "locale",
    "dataclasses", "inspect", "ast", "fractions", "decimal", "numbers",
)
loaded = {name: name in sys.modules for name in unused}
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(main(["invariants", "--gra", "path:4"]))
loaded["argparse after --gra"] = "argparse" in sys.modules
print(json.dumps({"codes": codes, **loaded}))
"""
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_src_env(),
        check=True,
    )
    assert json.loads(done.stdout) == {
        "codes": [0, 0, 0, 0, 0],
        "networkx": False,
        "argparse": False,
        "locale": False,
        "dataclasses": False,
        "inspect": False,
        "ast": False,
        "fractions": False,
        "decimal": False,
        "numbers": False,
        "argparse after --gra": True,
    }


def test_the_module_entry_point_reads_sys_argv(capsys, monkeypatch) -> None:
    # python -m nestohedra.cli reads its own argv: the same bytes as
    # main(argv) in process, and argparse's usage error without one.
    monkeypatch.setenv("COLUMNS", "80")
    env = _src_env()
    argv = ["invariants", "--graph", "path:4"]
    done = subprocess.run(
        [sys.executable, "-m", "nestohedra.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    assert (done.returncode, done.stdout, done.stderr) == _run(capsys, argv)
    assert done.returncode == 0
    done = subprocess.run(
        [sys.executable, "-m", "nestohedra.cli"], capture_output=True, text=True, env=env
    )
    code, out, err = _run(capsys, [])
    assert (done.returncode, done.stdout, done.stderr) == (2, "", err)
    assert (code, out) == (2, "")
    assert err.startswith("usage: nestohedra [-h]")


# ---------------------------------------------------------------------------
# the option table's reader


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["verify", "-h"],
        ["VERIFY"],
        ["invariants"],
        ["invariants", "--graph=path:4"],
        ["invariants", "--gra", "path:4"],
        ["verify", "--max", "4"],
        ["verify", "--max-order", "3", "--max-order", "4"],
        ["invariants", "--graph", "path:4", "--graph", "path:5"],
        ["invariants", "--", "--graph", "path:4"],
        ["invariants", "--graph", "path:4", "--"],
        ["verify", "--max-order", "-1"],
        ["verify", "--max-order", "3.0"],
        ["invariants", "--graph", "path:4", "extra"],
        ["invariants", "--graph"],
        ["invariants", "--graph", "path:4", "--format", "xml"],
        ["verify", "--family", "xx"],
        ["identities", "--corrupt", "starmarked"],
        ["gal-scan", "--graph-class", "tree", "--nodes", "3"],
        ["gal-scan", "--family", "pe", "--order", "3"],
        ["identities", "--order", "1"],
        ["identities", "--order", "17"],
        ["identities", "--order", "-1"],
        ["verify", "--max-order", "17"],
        ["gal-scan", "--family", "pe", "--bound", "0"],
        ["gal-scan", "--family", "pe", "--bound", "17"],
    ],
)
def test_the_reader_leaves_other_argvs_to_argparse(argv: list[str]) -> None:
    # Help, prefixes, --flag=value, repeats, --, negative numbers, bad
    # values, orders outside their range and missing or extra arguments
    # all take argparse's path.
    assert cli._read_argv(argv) is None


def test_each_order_range_is_stated_once_in_the_option_table(capsys) -> None:
    # Every int flag but --nodes has a range as its choices.  Both readers
    # refuse the value just below and just above it, as argparse's usage
    # error, and the flag's help names the range as lo..hi.
    ranged = {}
    for command, (_, _, flags) in cli._COMMANDS.items():
        for flag, keywords in flags.items():
            if keywords.get("type") is cli._int_flag and flag != "--nodes":
                ranged[command, flag] = keywords
    assert sorted(flag for _, flag in ranged) == ["--bound", "--max-order", "--order"]
    for (command, flag), keywords in ranged.items():
        orders = keywords["choices"]
        assert isinstance(orders, range) and orders.stop == cli.MAX_ORDER + 1
        assert f"{orders.start}..{orders.stop - 1}" in keywords["help"]
        for value in (orders.start - 1, orders.stop):
            argv = [command, flag, str(value)]
            assert cli._read_argv(argv) is None
            code, out, err = _run(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert err.splitlines()[-1].endswith(_choices_error(flag, value, orders))


def test_node_counts_outside_the_atlas_are_the_librarys_refusal(capsys) -> None:
    # --nodes has no range in the option table: the library's one check of
    # the atlas limit refuses the count, with its own message and exit 2.
    for nodes in (0, 8):
        with pytest.raises(ValueError) as refusal:
            ringcalc.class_face_counts(nodes)
        assert str(refusal.value) == "the atlas covers 1..7 nodes"
        argv = ["gal-scan", "--graph-class", "connected", "--nodes", str(nodes)]
        assert _run(capsys, argv) == (2, "", f"error: {refusal.value}\n")


def test_the_reader_reads_ints_and_defaults_as_argparse_does() -> None:
    args = cli._read_argv(["gal-scan", "--nodes", "3", "--graph-class", "connected"])
    assert vars(args) == {
        "command": "gal-scan",
        "func": cli.cmd_gal_scan,
        "family": None,
        "bound": None,
        "graph_class": "connected",
        "nodes": 3,
        "format": "json",
    }
    for text in ("3", "03"):
        assert cli._read_argv(["verify", "--max-order", text]).max_order == 3
    # what int() takes beyond ASCII digits is argparse's usage error
    for text in ("+3", "0_3", " 3 ", "\u0663"):
        assert cli._read_argv(["verify", "--max-order", text]) is None


# ---------------------------------------------------------------------------
# the exit-code contract for arbitrary argv

_COMMANDS = ("invariants", "verify", "identities", "gal-scan")
_WORDS = _COMMANDS + (
    "--graph", "--format", "json", "csv", "--config", "--family", "all",
    "--max-order", "--order", "--corrupt", "--bound", "--graph-class",
    "connected", "--nodes", "--help", "-h", "--",
)
_COUNT = st.integers(min_value=0, max_value=8)
_HALF = st.integers(min_value=0, max_value=4)


def _edges_spec(n: int) -> st.SearchStrategy[str]:
    pair = st.tuples(st.integers(-1, n), st.integers(-1, n))
    return st.lists(pair, max_size=12).map(
        lambda pairs: f"edges:{n}:" + ",".join(f"{u}-{v}" for u, v in pairs)
    )


# Graph specs of at most 8 nodes (some malformed by a self-loop or an
# out-of-range label), which keeps any one invariants run under a second.
_SPECS = st.one_of(
    st.builds("complete:{}".format, _COUNT),
    st.builds("empty:{}".format, _COUNT),
    st.builds("path:{}".format, _COUNT),
    st.builds("cycle:{}".format, _COUNT),
    st.builds("star:{}".format, st.integers(min_value=0, max_value=7)),
    st.builds("bipartite:{},{}".format, _HALF, _HALF),
    st.builds("join(complete:{},empty:{})".format, _HALF, _HALF),
    _COUNT.flatmap(_edges_spec),
)
# Junk carries no digits, so it cannot ask for an expensive order or scan;
# numbers come from a small range instead.
_JUNK = st.text(
    alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=8
)
_NUMBER = st.one_of(
    st.integers(min_value=-2, max_value=5).map(str),
    st.sampled_from(("+3", "0_3", " 3 ", "\u0663", "3.0")),
)
_FAMILY = st.sampled_from(("all", *FAMILIES))
_INT_FLAGS = ("--max-order", "--order", "--bound", "--nodes", "--max", "--no")
# One argv item, or a flag with a value that often makes sense for it,
# written out or as a near miss: --flag=value, a unique prefix, a repeat.
_PIECES = st.one_of(
    st.tuples(st.sampled_from(_WORDS)),
    st.tuples(st.sampled_from(("--graph", "--gra")), _SPECS),
    st.tuples(st.sampled_from(_INT_FLAGS), _NUMBER),
    st.builds("{}={}".format, st.sampled_from(_INT_FLAGS), _NUMBER).map(lambda a: (a,)),
    st.tuples(st.sampled_from(("--family", "--corrupt")), _FAMILY),
    st.tuples(st.just("--format"), st.sampled_from(("json", "csv", "xml"))),
    st.tuples(st.just("--graph-class"), st.sampled_from(("connected", "tree"))),
    st.sampled_from(("json", "csv")).map(lambda f: ("--format", f) * 2),
    st.tuples(_JUNK),
)


@settings(max_examples=150, deadline=None)
@given(
    command=st.sampled_from(_COMMANDS + ("",)),
    pieces=st.lists(_PIECES, max_size=4),
)
def test_any_argv_exits_0_1_or_2(command: str, pieces: list[tuple[str, ...]]) -> None:
    argv = ([command] if command else []) + [item for piece in pieces for item in piece]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        code = main(argv)
    assert code in (0, 1, 2), argv


# Each command's own flags with values of the kind it takes, good or bad.
_VALUES = {
    "--graph": _SPECS,
    "--format": st.sampled_from(("json", "csv", "xml")),
    "--family": _FAMILY,
    "--corrupt": _FAMILY,
    "--max-order": _NUMBER,
    "--order": _NUMBER,
    "--bound": _NUMBER,
    "--nodes": _NUMBER,
    "--graph-class": st.sampled_from(("connected", "tree")),
}
_FLAGS = {
    "invariants": ("--graph", "--format"),
    "verify": ("--family", "--max-order", "--format"),
    "identities": ("--order", "--corrupt", "--format"),
    "gal-scan": ("--family", "--bound", "--graph-class", "--nodes", "--format"),
}


def _argv_of(command: str) -> st.SearchStrategy[list[str]]:
    """command, some of its own flags once each, and at most one other piece."""
    own = st.lists(st.sampled_from(_FLAGS[command]), unique=True).flatmap(
        lambda flags: st.tuples(*(st.tuples(st.just(f), _VALUES[f]) for f in flags))
    )
    pieces = st.tuples(own, st.lists(_PIECES, max_size=1)).map(lambda t: [*t[0], *t[1]])
    return pieces.flatmap(st.permutations).map(
        lambda pieces: [command] + [item for piece in pieces for item in piece]
    )


@settings(max_examples=150, deadline=None)
@given(argv=st.sampled_from(_COMMANDS).flatmap(_argv_of))
def test_the_reader_agrees_with_argparse(argv: list[str]) -> None:
    # argparse is the reference: on every argv the option table's reader
    # accepts, argparse accepts it too and builds the same namespace.
    args = cli._read_argv(argv)
    if args is not None:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                reference = cli.build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse refuses {argv}: {err.getvalue()}")
        assert vars(args) == vars(reference), argv

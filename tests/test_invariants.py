"""Face vectors, h- and gamma-polynomials, and the nonnegativity scans."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable

import pytest

from nestohedra import invariants
from nestohedra._classes import CONNECTED
from nestohedra.algebra import GammaVector, Poly2, h_from_f
from nestohedra.buildingset import (
    MAX_GROUND,
    bipartite_graph,
    complete_graph,
    graph_from_edges,
    parse_graph_spec,
    path_graph,
    star_graph,
)
from nestohedra.invariants import (
    gal_check_classes,
    gal_check_graph,
    gal_check_poly,
    gal_check_series,
    verify_series,
)
from nestohedra.ringcalc import class_face_counts
from nestohedra.series import (
    FAMILIES,
    IDENTITY_NAMES,
    Series2,
    _drop_one_term,
    family_f,
    identity_suite,
)
from witnesses import (
    connected_graphs_upto_iso,
    dehn_sommerville,
    euler_relation_holds,
    f_from_h,
    permutohedron_gammas,
    power,
    series_of,
)

A = Poly2.from_coeffs((0, 1))
T = Poly2.from_coeffs((1, 0))


def test_fvector_frozen_values() -> None:
    # The face polynomial's coefficient list is the f-vector.
    assert gal_check_graph(complete_graph(2))[0].coeffs == (2, 1)
    assert gal_check_graph(path_graph(3))[0].coeffs == (5, 5, 1)
    assert gal_check_graph(complete_graph(3))[0].coeffs == (6, 6, 1)
    assert gal_check_graph(bipartite_graph(2, 2))[0].coeffs == (20, 30, 12, 1)
    assert gal_check_graph(complete_graph(4))[0].coeffs == (24, 36, 14, 1)
    # Vertices of the three-leaf star's nestohedron count the partial
    # permutations of three items: 16.
    assert gal_check_graph(star_graph(3))[0].coeffs == (16, 24, 10, 1)


def test_fvector_of_a_point() -> None:
    assert gal_check_graph(complete_graph(1)) == (
        Poly2.from_coeffs((1,)),
        Poly2.from_coeffs((1,)),
        GammaVector(0, (1,)),
    )


def test_hpoly_and_gamma_frozen_values() -> None:
    _, h, gv = gal_check_graph(complete_graph(3))
    assert h == power(A, 2) + 4 * A * T + power(T, 2)
    assert gv.gammas == (Fraction(1), Fraction(2))
    assert gal_check_graph(path_graph(3))[2].gammas == (Fraction(1), Fraction(1))
    assert gal_check_graph(complete_graph(2))[2].gammas == (Fraction(1),)
    assert gal_check_graph(bipartite_graph(2, 2))[2].gammas == (Fraction(1), Fraction(6))


def test_gal_check_graph_names_the_graph_whose_h_polynomial_fails(monkeypatch) -> None:
    plain = invariants.h_from_f
    monkeypatch.setattr(invariants, "h_from_f", lambda f: plain(f) + power(A, 2))
    with pytest.raises(ArithmeticError) as failed:
        gal_check_graph(complete_graph(3))
    assert str(failed.value) == (
        "h-polynomial of edges:3:0-1,0-2,1-2: not symmetric in alpha and t: 2*a^2 + 4*a*t + t^2"
    )


def test_dehn_sommerville_over_small_connected_graphs() -> None:
    for g in connected_graphs_upto_iso(5):
        assert dehn_sommerville(g)


def test_euler_relation() -> None:
    assert euler_relation_holds([2, 1])
    assert euler_relation_holds([6, 6, 1])
    assert euler_relation_holds([20, 30, 12, 1])
    assert euler_relation_holds([1])
    assert not euler_relation_holds([2, 2])


def test_gal_check_poly_accepts_the_hexagon() -> None:
    result = gal_check_poly(power(A, 2) + 4 * A * T + power(T, 2), 2)
    assert result.passed
    assert result == GammaVector(2, (Fraction(1), Fraction(2)))
    assert result.first_negative is None


def test_gal_check_poly_accepts_a_zero_gamma_entry() -> None:
    # (alpha + t)^2, the square: gamma = (1, 0), nonnegative at the boundary
    result = gal_check_poly(power(A, 2) + 2 * A * T + power(T, 2), 2)
    assert result == GammaVector(2, (1, 0))
    assert result.passed
    assert result.first_negative is None


def test_gal_check_poly_reports_the_negative_entry() -> None:
    result = gal_check_poly(power(A, 2) + power(T, 2), 2)
    assert not result.passed
    assert result == GammaVector(2, (1, -2))
    assert result.first_negative == (1, Fraction(-2))


def test_gal_check_poly_reports_a_gamma_entry_of_minus_one() -> None:
    # (alpha + t)^2 - alpha t: the smallest negative entry, at the boundary
    result = gal_check_poly(power(A, 2) + A * T + power(T, 2), 2)
    assert not result.passed
    assert result == GammaVector(2, (1, -1))
    assert result.first_negative == (1, -1)


def test_gal_check_poly_rejects_malformed_input() -> None:
    with pytest.raises(ValueError, match="^expected degree 3, got 2$"):
        gal_check_poly(power(A, 2) + power(T, 2), 3)
    with pytest.raises(ValueError, match="^not symmetric in alpha and t: a\\^2 \\+ a\\*t$"):
        gal_check_poly(power(A, 2) + A * T, 2)
    with pytest.raises(ValueError, match="^zero polynomial has no homogeneous degree$"):
        gal_check_poly(Poly2.from_coeffs(()), 0)


def _built_as(monkeypatch, series_f: Series2) -> None:
    """Make ``gal_check_series`` build series_f, at its own order, in place of the family's."""

    def build(fam: str, order: int) -> Series2:
        assert order == series_f.order, (fam, order)
        return series_f

    monkeypatch.setattr(invariants, "family_f", build)


def test_gal_check_series_on_the_bipartite_family() -> None:
    results = gal_check_series("because-because", 7)
    assert all(result.passed for result in results.values())
    assert list(results) == FAMILIES["because-because"].indices(7)
    assert len(results) == 23
    assert results[(2, 2)] == GammaVector(3, (Fraction(1), Fraction(6)))
    assert results[(1, 1)] == GammaVector(1, (Fraction(1),))


def test_gal_check_series_flags_a_dropped_coefficient(monkeypatch) -> None:
    _built_as(monkeypatch, _drop_one_term(family_f("because-because", 4)))
    with pytest.raises(ArithmeticError) as excinfo:
        gal_check_series("because-because", 4)
    assert str(excinfo.value) == (
        "h-series of because-because at (1, 1): zero polynomial has no homogeneous degree"
    )


def _pe_f_with_hexagon(p: Poly2) -> Series2:
    """The pe face series at order 3 with h-polynomial p in place of the hexagon's at (3, 0)."""
    return series_of(3, {**dict(family_f("pe", 3).items()), (3, 0): f_from_h(p)})


@pytest.mark.parametrize(
    "doctored, error",
    [
        (
            lambda: _pe_f_with_hexagon(power(A, 2) + 4 * A * T + 2 * power(T, 2)),
            "(3, 0): not symmetric in alpha and t: a^2 + 4*a*t + 2*t^2",
        ),
        # offset 0, one above pe's grading: the first coefficient is off
        (lambda: family_f("pe", 3) * f_from_h(A + T), "(1, 0): expected degree 0, got 1"),
        (lambda: _pe_f_with_hexagon(power(A, 2) + power(T, 2)), None),
    ],
    ids=["asymmetric", "wrong-degree", "negative-gamma"],
)
def test_gal_check_series_reports_each_fault_once(
    monkeypatch, doctored: Callable[[], Series2], error: str | None
) -> None:
    # A coefficient with no gamma vector is the series' fault and raises,
    # naming the family and index; a negative gamma entry is a finding and
    # is reported in that index's result.
    _built_as(monkeypatch, doctored())
    if error is not None:
        with pytest.raises(ArithmeticError) as excinfo:
            gal_check_series("pe", 3)
        assert str(excinfo.value) == "h-series of pe at " + error
        return
    results = gal_check_series("pe", 3)
    assert [(index, gv.first_negative) for index, gv in results.items() if not gv.passed] == [
        ((3, 0), (1, -2))
    ]
    assert len(results) == 3
    assert results[(3, 0)] == GammaVector(2, (1, -2))


def test_gal_check_series_takes_a_family_id_only() -> None:
    with pytest.raises(TypeError, match="^a family is named by its id, not by a FamilySpec$"):
        gal_check_series(FAMILIES["pe"], 3)
    with pytest.raises(ValueError, match="^unknown family 'no-such-family'$"):
        gal_check_series("no-such-family", 3)


@pytest.mark.parametrize(
    "check",
    [gal_check_series, lambda fam, order: verify_series(["pe", fam], order)],
    ids=["gal_check_series", "verify_series"],
)
def test_gal_check_series_refuses_bad_input_before_building(monkeypatch, check) -> None:
    # the caller's faults are refused as such before any series is built,
    # pe's too where verify is given pe first; a build that fails is the
    # series' fault, located by family and order
    def unbuilt(fam: str, order: int) -> Series2:
        raise AssertionError(f"built {fam} at order {order}")

    monkeypatch.setattr(invariants, "family_f", unbuilt)
    with pytest.raises(ValueError, match="^negative truncation order$"):
        check("pe", -1)
    with pytest.raises(ValueError, match="^unknown family 'no-such-family'$"):
        check("no-such-family", 4)
    with pytest.raises(TypeError, match="^a family is named by its id, not by a FamilySpec$"):
        check(FAMILIES["pe"], 4)

    def plain(fam: str, order: int) -> Series2:
        raise ValueError("plain")

    monkeypatch.setattr(invariants, "family_f", plain)
    with pytest.raises(ArithmeticError, match="^series of pe at order 4: plain$") as excinfo:
        check("pe", 4)
    assert type(excinfo.value) is ArithmeticError
    assert str(excinfo.value.__cause__) == "plain"


def test_every_check_is_keyed_by_what_it_checked() -> None:
    for fam_id, spec in FAMILIES.items():
        assert list(gal_check_series(fam_id, 5)) == spec.indices(5), fam_id
    assert list(gal_check_classes(4)) == list(CONNECTED[4])
    fams = list(FAMILIES)[::-1]
    verified = verify_series(fams, 5)
    assert list(verified) == fams
    for fam_id, checked in verified.items():
        assert checked == dict.fromkeys(FAMILIES[fam_id].indices(5)), fam_id
        assert list(checked) == FAMILIES[fam_id].indices(5), fam_id
    suite = identity_suite(6)
    assert list(suite) == list(IDENTITY_NAMES)
    assert suite == dict.fromkeys(IDENTITY_NAMES)


@pytest.mark.parametrize("n", range(1, 8))
def test_gal_check_classes_equals_one_class_at_a_time(n: int) -> None:
    # The packed row gives every class's own gamma vector, keyed by the
    # spec the scan prints, in atlas order; every class passes.
    expected = {
        spec: gal_check_poly(h_from_f(Poly2.from_coeffs(counts)), n - 1)
        for spec, counts in zip(CONNECTED[n], class_face_counts(n), strict=True)
    }
    results = gal_check_classes(n)
    assert results == expected
    assert list(results) == list(CONNECTED[n])
    assert all(gv.passed for gv in results.values())


@pytest.mark.parametrize("n", [0, 8, -1])
def test_gal_check_classes_covers_one_to_seven_nodes(n: int) -> None:
    with pytest.raises(ValueError, match="^the atlas covers 1..7 nodes$"):
        gal_check_classes(n)


def test_gal_check_series_scans_every_family() -> None:
    for fam_id in FAMILIES:
        results = gal_check_series(fam_id, 5)
        failed = {index: gv.first_negative for index, gv in results.items() if not gv.passed}
        assert not failed, (fam_id, failed)


def test_scan_report_serialization() -> None:
    results = gal_check_series("pe", 4)
    assert list(results) == [(1, 0), (2, 0), (3, 0), (4, 0)]
    assert [gv.as_strings() for gv in results.values()] == [
        ["1"], ["1"], ["1", "2"], ["1", "8"]
    ]
    assert [gv.n for gv in results.values()] == [0, 1, 2, 3]


def test_gamma_of_disconnected_graphs_uses_the_product() -> None:
    two_edges = parse_graph_spec("edges:4:0-1,2-3")
    # The product of two segments is a square; h = (a+t)^2, gamma = [1, 0].
    _, h, gv = gal_check_graph(two_edges)
    assert h == power(A + T, 2)
    assert gv.gammas == (Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# closed forms computed without the recursion


def test_path_gammas_are_the_associahedron_closed_form() -> None:
    # path:n gives the (n-1)-dimensional associahedron, with
    # gamma_i = C(n-1, 2i) * Cat(i).
    for n in range(1, MAX_GROUND + 1):
        catalan = [comb(2 * i, i) // (i + 1) for i in range(n)]
        expected = tuple(comb(n - 1, 2 * i) * catalan[i] for i in range((n - 1) // 2 + 1))
        assert gal_check_graph(path_graph(n))[2].gammas == expected, n


def test_complete_fvectors_are_ordered_set_partitions() -> None:
    # complete:n gives the permutohedron; its k-faces are the ordered
    # partitions of n items into n-k blocks: f_k = (n-k)! * S(n, n-k).
    # Every node size the spec language admits, up to MAX_GROUND.
    stirling = [[1]]
    for n in range(1, MAX_GROUND + 1):
        prev = stirling[-1] + [0]
        stirling.append([0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)])
    for n in range(1, MAX_GROUND + 1):
        expected = [factorial(n - k) * stirling[n][n - k] for k in range(n)]
        assert list(gal_check_graph(complete_graph(n))[0].coeffs) == expected, n


def test_permutohedron_gammas_count_permutations_without_double_descents() -> None:
    # The pe scan against Foata-Strehl counting (permutohedron_gammas): a
    # witness that neither the recursion nor the series supplies.
    results = gal_check_series("pe", 8)
    assert results == {(n, 0): permutohedron_gammas(n) for n in range(1, 9)}
    assert results[(8, 0)] == GammaVector(7, (1, 240, 3072, 3968))


def test_cycle_gammas_are_the_cyclohedron_closed_form() -> None:
    # The n-cycle gives the (n-1)-dimensional cyclohedron; with d = n - 1,
    # gamma_i = d! / (i!^2 (d - 2i)!) (Postnikov-Reiner-Williams).
    for n in range(3, MAX_GROUND + 1):
        cycle = graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        d = n - 1
        expected = tuple(
            factorial(d) // (factorial(i) ** 2 * factorial(d - 2 * i))
            for i in range(d // 2 + 1)
        )
        assert gal_check_graph(cycle)[2].gammas == expected, n

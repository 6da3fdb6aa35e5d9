"""End-to-end acceptance checks.

Each test here is one gate: the recursion-versus-series oracle, the
identity suite, the gamma scans, frozen spot values, structural property
sweeps, the closed-form boundary formulas, and the negative controls.
Every check is exact rational arithmetic; the time budgets are asserted.
Run with ``pytest tests/test_acceptance.py -v`` for one line per gate.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations
from math import comb

from nestohedra.algebra import Poly2
from nestohedra.buildingset import (
    bipartite_graph,
    complete_graph,
    empty_graph,
    join_graphs,
    path_graph,
    star_graph,
)
from nestohedra.cli import main
from nestohedra.invariants import gal_check_graph, gal_check_poly, gal_check_series
from nestohedra.ringcalc import fpoly
from nestohedra.series import FAMILIES, family_f, identity_suite
from witnesses import (
    PolyExpr,
    boundary,
    building_set_from_graph,
    connected_graphs_upto_iso,
    dehn_sommerville,
    edges,
    euler_relation_holds,
    facets_from_building_set,
    power,
    term_of,
    up_to_iso,
)

A = Poly2.from_coeffs((0, 1))
T = Poly2.from_coeffs((1, 0))


def test_1_recursion_equals_series_coefficients() -> None:
    started = time.perf_counter()
    bound = 7
    checked = 0
    for fam_id in ("pe", "st", "nabla-because", "because-because"):
        spec = FAMILIES[fam_id]
        series = family_f(fam_id, bound)
        for k, l in spec.indices(bound):
            from_series = series.coeff(k, l)
            from_recursion = fpoly(spec.graph_at(k, l))
            assert from_series == from_recursion, (fam_id, k, l)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(f"PASS recursion equals series: {checked} indices, {elapsed:.2f}s")


def test_2_identities_at_order_eight() -> None:
    started = time.perf_counter()
    results = identity_suite(8)
    elapsed = time.perf_counter() - started
    assert all(m is None for m in results.values()), results
    assert len(results) == 8
    assert elapsed < 30
    print(f"PASS identity suite at order 8: 8 identities, {elapsed:.2f}s")


def test_3_gamma_nonnegativity_scan() -> None:
    started = time.perf_counter()
    # Every complete bipartite nestohedron with m, n >= 1 and m + n <= 7.
    bipartite = gal_check_series("because-because", 7)
    wanted = {(m, n) for m in range(1, 7) for n in range(1, 7) if m + n <= 7}
    assert wanted <= set(bipartite)
    # Permutohedra and stellohedra up to dimension 7.
    permutohedra = gal_check_series("pe", 8)
    assert set(permutohedra) == {(k, 0) for k in range(1, 9)}
    stellohedra = gal_check_series("st", 7)
    for results in (bipartite, permutohedra, stellohedra):
        failed = {index: gv.first_negative for index, gv in results.items() if not gv.passed}
        assert not failed, failed
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    checked = len(bipartite) + len(permutohedra) + len(stellohedra)
    print(f"PASS gamma nonnegativity: {checked} indices, {elapsed:.2f}s")


def test_4_spot_values() -> None:
    assert gal_check_graph(path_graph(3))[0].coeffs == (5, 5, 1)
    f, _, gv = gal_check_graph(complete_graph(3))
    assert f.coeffs == (6, 6, 1)
    assert gv.gammas == (Fraction(1), Fraction(2))
    f, _, gv = gal_check_graph(complete_graph(2))
    assert f.coeffs == (2, 1)
    assert gv.gammas == (Fraction(1),)

    # The same numbers out of the generating functions, at the least order
    # that holds them
    assert family_f("because-because", 3).coeff(1, 2).coeffs == (5, 5, 1)
    assert family_f("pe", 3).coeff(3, 0).coeffs == (6, 6, 1)
    assert family_f("pe", 2).coeff(2, 0).coeffs == (2, 1)
    # and read from series truncated above them
    assert family_f("because-because", 4).coeff(1, 2).coeffs == (5, 5, 1)
    assert family_f("pe", 4).coeff(3, 0).coeffs == (6, 6, 1)
    assert family_f("pe", 4).coeff(2, 0).coeffs == (2, 1)

    # Facets of the K_{2,2} nestohedron: one per proper connected subset.
    g = bipartite_graph(2, 2)
    pairs = edges(g)
    connected_subsets = 0
    for size in range(1, 5):
        for subset in combinations(range(4), size):
            reached = {subset[0]}
            while True:
                grown = {
                    v
                    for v in subset
                    if v in reached
                    or any(tuple(sorted((u, v))) in pairs for u in reached)
                }
                if grown == reached:
                    break
                reached = grown
            if len(reached) == size:
                connected_subsets += 1
    assert connected_subsets == 13
    assert len(building_set_from_graph(g).sets) == connected_subsets
    assert gal_check_graph(g)[0].coeffs[-2] == connected_subsets - 1 == 12
    print("PASS spot values: path, triangle, edge, and the 12 facets of K22")


def test_5_structural_properties_small_graphs() -> None:
    started = time.perf_counter()
    graphs = connected_graphs_upto_iso(6)
    assert len(graphs) == 143
    for g in graphs:
        b = building_set_from_graph(g)
        d = boundary(g)
        # boundary labels each facet by its twin orbit's representative, so
        # the facets are compared factor by isomorphism class
        assert up_to_iso(d) == up_to_iso(facets_from_building_set(b)), g
        assert d.total_mass() == len(b.sets) - 1, g
        assert dehn_sommerville(g), g
        assert euler_relation_holds(list(gal_check_graph(g)[0].coeffs)), g
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    print(f"PASS structural properties: {len(graphs)} graph classes, {elapsed:.2f}s")


def test_6_closed_form_boundary_formulas() -> None:
    # Complete graphs: every split of the node set, weighted binomially.
    for n in range(1, 7):
        nodes = n + 1
        expected = PolyExpr({})
        for s in range(1, nodes):
            expected = expected + term_of(
                [complete_graph(s), complete_graph(nodes - s)], comb(nodes, s)
            )
        assert boundary(complete_graph(nodes)) == expected, nodes

    # Stars: drop a leaf, or split off a sub-star around the center.
    for n in range(1, 7):
        expected = term_of([star_graph(n - 1)], n)
        for i in range(n):
            expected = expected + term_of(
                [star_graph(i), complete_graph(n - i)], comb(n, i)
            )
        assert boundary(star_graph(n)) == expected, n

    # Complete bipartite graphs: the five-sum over part splits.
    pairs = [(s, t) for s in range(2, 6) for t in range(2, 6) if s + t <= 7]
    for s, t in pairs:
        expected = term_of([join_graphs(empty_graph(s - 1), complete_graph(t))], s)
        expected = expected + term_of(
            [join_graphs(complete_graph(s), empty_graph(t - 1))], t
        )
        for a in range(1, s + 1):
            for b in range(1, t + 1):
                if (a, b) == (s, t):
                    continue
                expected = expected + term_of(
                    [bipartite_graph(a, b), complete_graph(s + t - a - b)],
                    comb(s, a) * comb(t, b),
                )
        assert boundary(bipartite_graph(s, t)) == expected, (s, t)
    print(f"PASS closed-form boundaries: complete, star, and {len(pairs)} bipartite")


def test_7_negative_controls(capsys) -> None:
    # A corrupted series must fail the first identity at a located index.
    results = identity_suite(6, corrupt="pe")
    failure = next((name for name, m in results.items() if m is not None), None)
    assert failure == "I1"
    assert results[failure][:2] == (2, 0)

    # The gamma extraction must expose the non-Gal polynomial alpha^2 + t^2.
    result = gal_check_poly(power(A, 2) + power(T, 2), 2)
    assert not result.passed
    assert result.first_negative == (1, Fraction(-2))

    # The exit-code contract: success, check failure, usage error.
    assert main(["invariants", "--graph", "complete:3"]) == 0
    assert main(["identities", "--order", "4", "--corrupt", "pe"]) == 1
    assert main(["invariants", "--graph", "nonsense:4"]) == 2
    capsys.readouterr()
    print("PASS negative controls: located failure, -2 gamma, exit codes 0/1/2")

"""Facet decomposition, the face-polynomial recursion, and its closed forms."""

from __future__ import annotations

import random
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestohedra import algebra, ringcalc
from nestohedra.algebra import Poly2, homogeneous_degree
from nestohedra.buildingset import (
    MAX_GROUND,
    Graph,
    bipartite_graph,
    complete_graph,
    connected_graphs_upto_iso,
    cycle_graph,
    empty_graph,
    graph_from_edges,
    graph_spec,
    join_graphs,
    parse_graph_spec,
    path_graph,
    star_graph,
    twin_classes,
)
from nestohedra.cli import main
from nestohedra.ringcalc import FPolyCache, fpoly
from witnesses import (
    PolyExpr,
    boundary,
    building_set_from_graph,
    canonical_graph,
    dimension,
    facet_fpoly,
    facets_from_building_set,
    integrate_t,
    is_connected_graph,
    plain_boundary,
    poly_deriv_t,
    power,
    term_of,
    up_to_iso,
)

A = Poly2.alpha()
T = Poly2.t()


def _face_poly(e: PolyExpr, cache: FPolyCache) -> Poly2:
    """Face polynomial of a sum of products of graph nestohedra."""
    out = Poly2.zero()
    for product, c in e.terms():
        term = Poly2.constant(c)
        for factor in product:
            term = term * fpoly(factor, cache)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# boundary


def test_boundary_of_an_edge_is_two_points() -> None:
    assert boundary(complete_graph(2)) == term_of([], 2)


def test_boundary_of_a_triangle_is_six_segments() -> None:
    assert boundary(complete_graph(3)) == term_of([complete_graph(2)], 6)


def test_boundary_mass_counts_facets() -> None:
    g = bipartite_graph(2, 2)
    assert boundary(g).total_mass() == len(building_set_from_graph(g).sets) - 1 == 12


def test_boundary_rejects_disconnected_building_sets() -> None:
    with pytest.raises(ValueError):
        boundary(empty_graph(2))


def test_boundary_drops_point_factors() -> None:
    # Every facet of the pentagon is a segment times a point.
    assert boundary(path_graph(3)) == term_of([complete_graph(2)], 5)
    for g in connected_graphs_upto_iso(5):
        assert all(f.n > 1 for product, _ in boundary(g).terms() for f in product)


def test_boundary_graph_agrees_with_boundary_of_building_set() -> None:
    # The same facets, built from restriction and removal of the building
    # set.  boundary labels each facet by its twin orbit's representative,
    # so the two multisets are compared factor by isomorphism class.
    for g in connected_graphs_upto_iso(5):
        b = building_set_from_graph(g)
        facets = facets_from_building_set(b)
        assert up_to_iso(boundary(g)) == up_to_iso(facets), g
        assert boundary(g).total_mass() == len(b.sets) - 1, g


def test_boundary_equals_the_all_subsets_sweep_on_twin_free_graphs() -> None:
    # With no twins every orbit is one subset, labels included.
    twin_free = [path_graph(n) for n in range(4, 9)]
    twin_free += [cycle_graph(n) for n in range(5, 9)]
    twin_free += [parse_graph_spec("edges:6:0-1,1-2,2-3,3-4,4-5,1-4")]
    for g in twin_free:
        assert len(twin_classes(g)) == g.n, graph_spec(g)
        assert boundary(g) == plain_boundary(g), graph_spec(g)


def test_boundary_of_graphs_with_twins_matches_the_sweep_up_to_isomorphism() -> None:
    for spec in ("bipartite:3,4", "star:6", "complete:6", "join(complete:2,empty:3)"):
        g = parse_graph_spec(spec)
        assert up_to_iso(boundary(g)) == up_to_iso(plain_boundary(g)), spec


# ---------------------------------------------------------------------------
# integration


def test_integrate_t_recovers_the_hexagon() -> None:
    assert integrate_t(6 * (A + 2 * T), 2) == power(A, 2) + 6 * A * T + 6 * power(T, 2)


def test_integrate_t_point_case() -> None:
    assert integrate_t(Poly2.zero(), 0) == Poly2.one()


def test_integrate_t_raises_when_the_integral_is_not_integral() -> None:
    # d/dt of a face polynomial with integer counts has t^j coefficients
    # divisible by j + 1; t alone integrates to t^2 / 2.
    with pytest.raises(ArithmeticError):
        integrate_t(T, 2)
    with pytest.raises(ArithmeticError):
        integrate_t(6 * A + 3 * T, 2)


def test_integrate_t_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        integrate_t(Poly2.zero(), 1)
    with pytest.raises(ValueError):
        integrate_t(A + T, 3)
    with pytest.raises(ValueError):
        integrate_t(Poly2.one(), -1)


# ---------------------------------------------------------------------------
# the face-polynomial recursion


def test_fpoly_frozen_values() -> None:
    assert fpoly(complete_graph(2)) == A + 2 * T
    assert fpoly(path_graph(3)) == power(A, 2) + 5 * A * T + 5 * power(T, 2)
    assert fpoly(complete_graph(3)) == power(A, 2) + 6 * A * T + 6 * power(T, 2)
    assert (
        fpoly(bipartite_graph(2, 2))
        == power(A, 3) + 12 * power(A, 2) * T + 30 * A * power(T, 2) + 20 * power(T, 3)
    )
    assert (
        fpoly(complete_graph(4))
        == power(A, 3) + 14 * power(A, 2) * T + 36 * A * power(T, 2) + 24 * power(T, 3)
    )


def test_fpoly_of_a_point_and_of_disconnected_graphs() -> None:
    assert fpoly(complete_graph(1)) == Poly2.one()
    assert fpoly(empty_graph(3)) == Poly2.one()
    two_edges = parse_graph_spec("edges:4:0-1,2-3")
    assert fpoly(two_edges) == power(A + 2 * T, 2)


def test_fpoly_graph_convenience() -> None:
    # fpoly takes the graph itself, with or without a caller's memo.
    triangle = power(A, 2) + 6 * A * T + 6 * power(T, 2)
    assert fpoly(complete_graph(3)) == triangle
    assert fpoly(complete_graph(3), FPolyCache()) == triangle


def test_fpoly_over_the_atlas_equals_the_all_subsets_recursion() -> None:
    # Every connected class on up to seven nodes, once through the
    # nested-set recursion and once through the facet recursion over all
    # 2^n node subsets, each with its own memo.
    graphs = connected_graphs_upto_iso(7)
    assert len(graphs) == 996
    cache, memo = FPolyCache(), {}
    for g in graphs:
        assert fpoly(g, cache) == facet_fpoly(g, memo, plain_boundary), graph_spec(g)


def _random_twin_free(n: int, rng: random.Random) -> Graph:
    """A connected twin-free graph on n nodes, edges drawn with probability 1/2."""
    while True:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = graph_from_edges(n, pairs)
        if is_connected_graph(g) and len(twin_classes(g)) == n:
            return g


# the benchmark's named shapes
NAMED_SHAPES = (
    "path:12",
    "bipartite:4,4",
    "complete:9",
    "join(complete:4,empty:5)",
    "star:9",
    "join(star:3,empty:5)",
    "join(star:4,empty:4)",
)


def test_fpoly_equals_the_facet_recursion_witness() -> None:
    # Two different formulas for the same numbers: the nested-set recursion
    # and the facet recursion with its twin orbits and canonical memo.  The
    # atlas classes are compared in the all-subsets test above.
    memo: dict = {}
    cache = FPolyCache()
    graphs = [parse_graph_spec(spec) for spec in NAMED_SHAPES]
    rng = random.Random(5)
    graphs += [_random_twin_free(n, rng) for n in range(5, 11)]
    for g in graphs:
        assert fpoly(g, cache) == facet_fpoly(g, memo), graph_spec(g)


@st.composite
def blow_ups(draw) -> Graph:
    """A small quotient graph with every node blown up into a twin class.

    Each class has a random size and is a clique or an independent set;
    classes joined in the quotient are joined completely.
    """
    q = draw(st.integers(min_value=1, max_value=5))
    sizes: list[int] = []
    for i in range(q):
        # at most 10 nodes in all, at least one left for each later class
        sizes.append(draw(st.integers(1, min(4, 10 - sum(sizes) - (q - 1 - i)))))
    cliques = draw(st.lists(st.booleans(), min_size=q, max_size=q))
    joined = {
        (a, b)
        for a in range(q)
        for b in range(a + 1, q)
        if draw(st.booleans())
    }
    start = [sum(sizes[:i]) for i in range(q)]
    members = [range(start[i], start[i] + sizes[i]) for i in range(q)]
    pairs = []
    for i in range(q):
        if cliques[i]:
            pairs += [(u, v) for u in members[i] for v in members[i] if u < v]
    for a, b in joined:
        pairs += [(u, v) for u in members[a] for v in members[b]]
    return graph_from_edges(sum(sizes), pairs)


@settings(max_examples=60, deadline=None)
@given(blow_ups())
def test_fpoly_equals_the_facet_recursion_on_twin_blow_ups(g: Graph) -> None:
    assert fpoly(g) == facet_fpoly(g), graph_spec(g)


@st.composite
def relabelled_blow_ups(draw) -> tuple[Graph, Graph]:
    """A twin blow-up and its copy under a drawn permutation of the labels.

    The blow-up's classes hold consecutive labels; the copy's classes are
    interleaved, so a class's nodes sit among other classes' nodes.
    """
    g = draw(blow_ups())
    perm = draw(st.permutations(range(g.n)))
    return g, graph_from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))


@settings(max_examples=60, deadline=None)
@given(relabelled_blow_ups())
def test_fpoly_of_a_blow_up_with_interleaved_twin_classes(pair: tuple[Graph, Graph]) -> None:
    # The recursion names each twin class by its lowest node, so classes
    # whose labels interleave must give what consecutive ones give.
    g, relabelled = pair
    assert fpoly(relabelled) == facet_fpoly(relabelled) == fpoly(g), graph_spec(relabelled)


def test_fpoly_names_the_graph_whose_boundary_does_not_integrate() -> None:
    # The witness recursion checks its own integrals: a path on three nodes
    # as the whole boundary of a four-node graph has 5 alpha t and 5 t^2,
    # which do not integrate to integer face counts.
    def broken(g: Graph) -> PolyExpr:
        if g.n == 4:
            return term_of([path_graph(3)])
        return boundary(g)

    g = complete_graph(4)
    with pytest.raises(ArithmeticError, match=r"edges:4:0-1,0-2,0-3,1-2,1-3,2-3"):
        facet_fpoly(g, facets=broken)
    assert graph_spec(g) == "edges:4:0-1,0-2,0-3,1-2,1-3,2-3"


def test_fpoly_names_the_subgraph_whose_face_counts_fail_the_check(monkeypatch) -> None:
    # Every subproblem is checked for one count per node ending in the top
    # face; a failure names the induced subgraph, labelled compactly.
    plain = ringcalc._NestedSets.expand

    def broken(self, mask: int) -> int:
        f = plain(self, mask)
        if mask.bit_count() != 3:
            return f
        wrong = algebra._digits(f, ringcalc._WIDTH)[:-1]
        return sum(c << ringcalc._WIDTH * i for i, c in enumerate(wrong))

    monkeypatch.setattr(ringcalc._NestedSets, "expand", broken)
    with pytest.raises(ArithmeticError, match=r"^face counts of edges:3:0-1,1-2 are \[5, 5\]"):
        fpoly(path_graph(5))
    with pytest.raises(ArithmeticError, match=r"edges:3:0-1,0-2,1-2 are \[6, 6\]"):
        fpoly(complete_graph(6))


def test_fpoly_rejects_graphs_above_the_ground_cap() -> None:
    with pytest.raises(ValueError):
        fpoly(empty_graph(21))


def test_fpoly_without_a_cache_keeps_no_memo_between_calls() -> None:
    fpoly(complete_graph(4))
    assert not [v for v in vars(ringcalc).values() if isinstance(v, FPolyCache)]


def test_fpoly_coefficients_are_ints() -> None:
    cache = FPolyCache()
    for g in connected_graphs_upto_iso(6):
        assert all(type(c) is int for _, c in fpoly(g, cache).terms()), g


def test_fpoly_degree_is_the_dimension() -> None:
    cache = FPolyCache()
    for g in connected_graphs_upto_iso(5):
        b = building_set_from_graph(g)
        assert homogeneous_degree(fpoly(g, cache)) == dimension(b) == g.n - 1


def test_fpoly_solves_the_boundary_equation() -> None:
    cache = FPolyCache()
    for g in connected_graphs_upto_iso(5):
        assert poly_deriv_t(fpoly(g, cache)) == _face_poly(boundary(g), cache)


def test_fpoly_of_disconnected_graphs_satisfies_leibniz() -> None:
    # d/dt f(G + H) = f(boundary(G) x H) + f(G x boundary(H)).
    cache = FPolyCache()
    pairs = [
        (complete_graph(2), complete_graph(2)),
        (path_graph(3), star_graph(3)),
        (bipartite_graph(2, 2), complete_graph(3)),
    ]
    for g, h in pairs:
        union = graph_from_edges(
            g.n + h.n, [*g.edges, *((u + g.n, v + g.n) for u, v in h.edges)]
        )
        times_h = PolyExpr({p + (h,): c for p, c in boundary(g).terms()})
        times_g = PolyExpr({p + (g,): c for p, c in boundary(h).terms()})
        assert poly_deriv_t(fpoly(union, cache)) == _face_poly(times_h + times_g, cache)


def test_relabelled_graphs_give_identical_fpoly() -> None:
    # Each relabelled copy starts from an empty memo, so its recursion runs
    # on its own labelling and must still give the same answer: the classes
    # up to five nodes flipped, those on six and seven nodes under seeded
    # permutations, which interleave their twin classes' labels.
    shared = FPolyCache()
    rng = random.Random(11)
    for g in connected_graphs_upto_iso(7):
        perm = list(range(g.n))[::-1]
        if g.n > 5:
            rng.shuffle(perm)
        relabelled = graph_from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))
        assert fpoly(relabelled, FPolyCache()) == fpoly(g, shared), graph_spec(relabelled)


def test_a_smaller_complete_bipartite_graph_is_served_from_the_shared_cache() -> None:
    # K_{8,8} is the induced subgraph of K_{9,9} on the first nodes of each
    # part, so the larger recursion has already stored it, labels and all.
    cache = FPolyCache()
    fpoly(bipartite_graph(9, 9), cache)
    size = len(cache)
    assert cache.lookup(bipartite_graph(8, 8).adj) is not None
    assert fpoly(bipartite_graph(8, 8), cache) == facet_fpoly(bipartite_graph(8, 8))
    assert len(cache) == size


def test_a_class_scan_stores_each_labelled_induced_subgraph_once(monkeypatch, capsys) -> None:
    stored: list[int | tuple[int, ...]] = []
    plain = FPolyCache.store

    def counted(cache: FPolyCache, key: int | tuple[int, ...], value: int) -> None:
        stored.append(key)
        plain(cache, key, value)

    monkeypatch.setattr(FPolyCache, "store", counted)
    assert main(["gal-scan", "--graph-class", "connected", "--nodes", "6"]) == 0
    capsys.readouterr()
    assert len(stored) == len(set(stored))
    # subproblems of up to five nodes are stored under their shape, one per
    # connected class on 2-5 nodes; larger ones under their labelled
    # induced subgraph, a connected graph the scan's subproblems reached,
    # and every six-node class under its own labelling
    shapes = {
        ringcalc._shape(g.adj, (1 << g.n) - 1) for g in connected_graphs_upto_iso(5) if g.n > 1
    }
    assert {key for key in stored if type(key) is int} == shapes
    labelled = [key for key in stored if type(key) is tuple]
    assert all(len(key) >= 6 and is_connected_graph(Graph(key)) for key in labelled)
    scanned = {g.adj for g in connected_graphs_upto_iso(6) if g.n == 6}
    assert scanned <= set(labelled)


def test_a_class_scan_shares_subproblems_across_its_graphs(monkeypatch, capsys) -> None:
    # The six-node scan makes 1942 keyed lookups, and only 142 of them
    # miss and run the formula, one per connected class on 2-6 nodes.  A
    # cache key that stopped matching isomorphic subgraphs of up to five
    # nodes, or equal labelled ones above, would run it more often.
    expanded = []
    plain = ringcalc._NestedSets.expand

    def counted(self, mask: int) -> int:
        expanded.append(mask)
        return plain(self, mask)

    monkeypatch.setattr(ringcalc._NestedSets, "expand", counted)
    assert main(["gal-scan", "--graph-class", "connected", "--nodes", "6"]) == 0
    capsys.readouterr()
    assert len(expanded) == 142


def _labelled_connected_graphs(n: int) -> list[Graph]:
    """Every connected graph on the nodes 0..n-1, each labelling once."""
    pairs = list(combinations(range(n), 2))
    graphs = (
        graph_from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
        for bits in range(1 << len(pairs))
    )
    return [g for g in graphs if is_connected_graph(g)]


def test_the_shape_takes_one_value_per_class_up_to_five_nodes() -> None:
    # The shared cache keys subproblems of up to five nodes by their shape,
    # so the shape must name one isomorphism class whatever the labels:
    # 771 labelled connected graphs on 2-5 nodes, 30 classes.  The classes
    # come from the witness canonical form and the face polynomials from
    # the facet recursion, so the recursion never grades its own key.
    graphs = [g for n in range(2, 6) for g in _labelled_connected_graphs(n)]
    assert len(graphs) == 771
    classes: dict[int, set[Graph]] = {}
    cache, memo = FPolyCache(), {}
    for g in graphs:
        shape = ringcalc._shape(g.adj, (1 << g.n) - 1)
        classes.setdefault(shape, set()).add(canonical_graph(g))
        # the first labelling of a shape stores its face counts under it,
        # and every later one reads them back
        assert fpoly(g, cache) == facet_fpoly(g, memo), graph_spec(g)
    assert len(classes) == 30
    assert all(len(canonical) == 1 for canonical in classes.values())
    assert set(cache) == set(classes)


def test_the_shape_splits_the_five_node_classes_that_share_degrees() -> None:
    # The triangle with a two-edge tail and the 4-cycle with a pendant share
    # degrees, and so do the house and K_{2,3}; only their triangles differ.
    # Each graph with its face counts by dimension:
    faces = {
        "edges:5:0-4,1-2,1-3,2-3,3-4": (56, 112, 73, 17, 1),
        "edges:5:0-1,1-3,1-4,2-3,2-4": (69, 138, 89, 20, 1),
        "edges:5:0-1,0-3,0-4,1-2,2-3,3-4": (84, 168, 107, 23, 1),
        "bipartite:2,3": (92, 184, 117, 25, 1),
    }
    for spec, f in faces.items():
        g = parse_graph_spec(spec)
        assert facet_fpoly(g).coeffs == fpoly(g).coeffs == f, spec
    specs = list(faces)
    for a, b in (specs[:2], specs[2:]):
        g, h = parse_graph_spec(a), parse_graph_spec(b)
        assert sorted(map(int.bit_count, g.adj)) == sorted(map(int.bit_count, h.adj))
        assert ringcalc._shape(g.adj, 31) != ringcalc._shape(h.adj, 31)


def test_the_packed_field_width_holds_the_permutohedron_face_count() -> None:
    # No coefficient the recursion builds exceeds the face count of the
    # permutohedron on MAX_GROUND nodes, the ordered Bell number
    # sum_k k! S(n, k); the width leaves a sign bit above it.
    stirling = [1]
    for n in range(1, MAX_GROUND + 1):
        prev = stirling + [0]
        stirling = [0] + [k * prev[k] + prev[k - 1] for k in range(1, n + 1)]
    ordered_bell = sum(factorial(k) * s for k, s in enumerate(stirling))
    # decoded in balanced digits, a field holds it with either sign
    width = ringcalc._WIDTH
    assert width > ordered_bell.bit_length()
    assert algebra._digits(ordered_bell << width | ordered_bell, width) == [ordered_bell] * 2
    assert algebra._digits((ordered_bell << width) - ordered_bell, width) == [
        -ordered_bell,
        ordered_bell,
    ]


# ---------------------------------------------------------------------------
# closed-form boundary formulas


@pytest.mark.parametrize("n", range(1, 7))
def test_boundary_of_complete_graphs_binomial_formula(n: int) -> None:
    nodes = n + 1
    expected = PolyExpr({})
    for s in range(1, nodes):
        expected = expected + term_of(
            [complete_graph(s), complete_graph(nodes - s)], comb(nodes, s)
        )
    assert boundary(complete_graph(nodes)) == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_boundary_of_star_graphs_formula(n: int) -> None:
    expected = term_of([star_graph(n - 1)], n)
    for i in range(n):
        expected = expected + term_of(
            [star_graph(i), complete_graph(n - i)], comb(n, i)
        )
    assert boundary(star_graph(n)) == expected


@pytest.mark.parametrize(
    "s,t", [(s, t) for s in range(2, 6) for t in range(2, 6) if s + t <= 7]
)
def test_boundary_of_complete_bipartite_graphs_formula(s: int, t: int) -> None:
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
    assert boundary(bipartite_graph(s, t)) == expected


# ---------------------------------------------------------------------------
# expression plumbing


def test_polyexpr_arithmetic() -> None:
    edge, triangle = complete_graph(2), complete_graph(3)
    # Factor order does not matter, equal products merge, zeros drop out.
    assert PolyExpr({(edge, triangle): 2, (triangle, edge): 3}) == PolyExpr(
        {(triangle, edge): 5}
    )
    assert PolyExpr({(edge,): 0}) == PolyExpr({})
    total = PolyExpr({(edge,): 2, (): 1}) + PolyExpr({(edge,): -2, (triangle,): 4})
    assert total.terms() == [((), 1), ((triangle,), 4)]
    assert total.total_mass() == 5

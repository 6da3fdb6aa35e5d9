"""Facet decomposition, the face-polynomial recursion, and its closed forms."""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from collections import Counter
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestohedra import algebra, invariants, ringcalc
from nestohedra.algebra import Poly2, homogeneous_degree
from nestohedra.buildingset import (
    MAX_GROUND,
    Graph,
    _induced_adj,
    bipartite_graph,
    complete_graph,
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
from nestohedra.ringcalc import FPolyCache, fpoly, induced_fpolys
from nestohedra.series import FAMILIES
from witnesses import (
    PolyExpr,
    boundary,
    building_set_from_graph,
    canonical_graph,
    connected_graphs_upto_iso,
    dimension,
    edges,
    facet_fpoly,
    facets_from_building_set,
    family_face_counts,
    integrate_t,
    is_connected_graph,
    plain_boundary,
    poly_deriv_t,
    power,
    term_of,
    up_to_iso,
)

A = Poly2.from_coeffs((0, 1))
T = Poly2.from_coeffs((1, 0))


def _face_poly(e: PolyExpr) -> Poly2:
    """Face polynomial of a sum of products of graph nestohedra."""
    out = Poly2.from_coeffs(())
    for product, c in e.terms():
        term = Poly2.from_coeffs((c,))
        for factor in product:
            term = term * fpoly(factor)
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
    assert integrate_t(Poly2.from_coeffs(()), 0) == Poly2.from_coeffs((1,))


def test_integrate_t_raises_when_the_integral_is_not_integral() -> None:
    # d/dt of a face polynomial with integer counts has t^j coefficients
    # divisible by j + 1; t alone integrates to t^2 / 2.
    with pytest.raises(ArithmeticError):
        integrate_t(T, 2)
    with pytest.raises(ArithmeticError):
        integrate_t(6 * A + 3 * T, 2)


def test_integrate_t_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        integrate_t(Poly2.from_coeffs(()), 1)
    with pytest.raises(ValueError):
        integrate_t(A + T, 3)
    with pytest.raises(ValueError):
        integrate_t(Poly2.from_coeffs((1,)), -1)


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
    assert fpoly(complete_graph(1)).coeffs == (1,)
    assert fpoly(empty_graph(3)).coeffs == (1,)
    two_edges = parse_graph_spec("edges:4:0-1,2-3")
    assert fpoly(two_edges) == power(A + 2 * T, 2)


def test_fpoly_graph_convenience() -> None:
    # fpoly takes the graph only; induced_fpolys is the one function that
    # takes a caller's cache.
    triangle = power(A, 2) + 6 * A * T + 6 * power(T, 2)
    assert fpoly(complete_graph(3)) == triangle
    assert induced_fpolys(complete_graph(3), [0b111], FPolyCache()) == [triangle]
    with pytest.raises(TypeError):
        fpoly(complete_graph(3), FPolyCache())


@pytest.fixture(scope="module")
def atlas_facet_fpolys() -> dict[Graph, Poly2]:
    """The facet recursion over all 2^n node subsets on every connected
    class up to seven nodes, with one memo of its own."""
    memo: dict = {}
    return {g: facet_fpoly(g, memo, plain_boundary) for g in connected_graphs_upto_iso(7)}


def test_fpoly_over_the_atlas_equals_the_all_subsets_recursion(atlas_facet_fpolys) -> None:
    # Every connected class on up to seven nodes, once through the
    # nested-set recursion and once through the facet recursion over all
    # 2^n node subsets, each with its own memo.
    assert len(atlas_facet_fpolys) == 996
    for g, f in atlas_facet_fpolys.items():
        assert fpoly(g) == f, graph_spec(g)


def test_fpoly_of_complete_bipartite_graphs_equals_the_denominator_sum() -> None:
    # The paper's graphs: K_{m,n} for every pair with m + n <= 20, each with
    # its own cache, against a sum over the series denominator that shares
    # nothing with the recursion.
    pairs = [(m, n) for m in range(1, 20) for n in range(1, 21 - m)]
    assert len(pairs) == 190
    for m, n in pairs:
        expected = family_face_counts("because-because", m, n)
        assert list(fpoly(bipartite_graph(m, n)).coeffs) == expected, (m, n)


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
    graphs = [parse_graph_spec(spec) for spec in NAMED_SHAPES]
    rng = random.Random(5)
    graphs += [_random_twin_free(n, rng) for n in range(5, 11)]
    for g in graphs:
        assert fpoly(g) == facet_fpoly(g, memo), graph_spec(g)


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
    return g, graph_from_edges(g.n, ((perm[u], perm[v]) for u, v in edges(g)))


@settings(max_examples=60, deadline=None)
@given(relabelled_blow_ups())
def test_fpoly_of_a_blow_up_with_interleaved_twin_classes(pair: tuple[Graph, Graph]) -> None:
    # The recursion names each twin class by its lowest node, so classes
    # whose labels interleave must give what consecutive ones give.
    g, relabelled = pair
    assert fpoly(relabelled) == facet_fpoly(relabelled) == fpoly(g), graph_spec(relabelled)


@st.composite
def graphs_and_masks(draw) -> tuple[Graph, list[int]]:
    """A graph, a twin blow-up with interleaved classes or one drawn edge by
    edge, and node masks of it in a drawn order: any subsets, the whole
    graph less a few nodes, which leaves a class's masked nodes other than
    its first ones, the empty mask and single nodes."""
    if draw(st.booleans()):
        g = draw(relabelled_blow_ups())[1]
    else:
        n = draw(st.integers(0, 10))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = graph_from_edges(n, [p for p in pairs if draw(st.booleans())])
    full = (1 << g.n) - 1
    nodes = st.lists(st.integers(0, max(g.n - 1, 0)), max_size=3) if g.n else st.just([])
    masks = draw(st.lists(st.integers(0, full), max_size=4))
    masks += [full & ~sum(1 << v for v in set(draw(nodes))) for _ in range(2)]
    masks += [0, *(1 << v for v in set(draw(nodes)))]
    return g, draw(st.permutations(masks))


@settings(max_examples=80, deadline=None)
@given(graphs_and_masks())
def test_induced_fpolys_equals_fpoly_of_each_induced_subgraph(case) -> None:
    # One memo serves every mask, so a subproblem met under one mask is read
    # back under another; each answer must still be its own subgraph's.
    g, masks = case
    expected = [fpoly(Graph(_induced_adj(g.adj, mask))) for mask in masks]
    assert induced_fpolys(g, masks) == expected, (graph_spec(g), masks)


def test_a_mask_above_the_ground_cap_is_refused_before_any_memo(monkeypatch) -> None:
    # The width bound is about the subproblems, so the guard reads each
    # mask, all of them before the memo or a cache is built.
    def refused(*args) -> None:
        raise AssertionError(args)

    monkeypatch.setattr(ringcalc, "_NestedSets", refused)
    monkeypatch.setattr(ringcalc, "FPolyCache", refused)
    g = bipartite_graph(16, 16)
    with pytest.raises(ValueError, match=rf"^graph larger than {MAX_GROUND} nodes$"):
        induced_fpolys(g, [0b111, (1 << 21) - 1])
    with pytest.raises(ValueError, match=rf"^graph larger than {MAX_GROUND} nodes$"):
        induced_fpolys(empty_graph(21), [(1 << 21) - 1], FPolyCache())


@pytest.mark.parametrize("mask", [8, -1, 0b1011])
def test_a_mask_outside_the_graph_is_refused_before_any_memo(monkeypatch, mask: int) -> None:
    # a node past the triangle's three, or a negative mask, whose sign
    # bits hold every node, is named in the same pass as the cap
    def refused(*args) -> None:
        raise AssertionError(args)

    monkeypatch.setattr(ringcalc, "_NestedSets", refused)
    message = rf"^mask {mask} holds a node outside the 3-node graph$"
    with pytest.raises(ValueError, match=message):
        induced_fpolys(complete_graph(3), [0b111, mask])


def test_a_universe_above_the_ground_cap_takes_masks_up_to_it() -> None:
    # K_{16,16} has 32 nodes; verify's masks in it have at most 16, and
    # masks of 17 and of the cap's 20 nodes are as welcome.  The odd nodes
    # of each part are a mask that is not twin-canonical: each part is one
    # class, and the mask leaves out its first node.  It comes first, so
    # the formula runs on it rather than reading K_{8,8} from the cache.
    def parts(a: int, b: int) -> int:
        return a | b << 16

    odd = 0xAAAA
    masks = [parts(odd, odd), parts(0x1FF, 0xFF), parts(0x3FF, 0x3FF), parts(0xFFFF, 0)]
    assert [mask.bit_count() for mask in masks] == [16, 17, 20, 16]
    expected = [bipartite_graph(8, 8), bipartite_graph(9, 8), bipartite_graph(10, 10), empty_graph(16)]
    assert induced_fpolys(bipartite_graph(16, 16), masks) == [fpoly(g) for g in expected]


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
    # Every subproblem the formula runs on, eight nodes or more, is checked
    # for one count per node ending in the top face; a failure names the
    # induced subgraph, labelled compactly.
    plain = ringcalc._NestedSets.expand

    def broken(self, mask: int) -> int:
        f = plain(self, mask)
        if mask.bit_count() != 8:
            return f
        wrong = algebra._digits(f, ringcalc._WIDTH)[:-1]
        return sum(c << ringcalc._WIDTH * i for i, c in enumerate(wrong))

    monkeypatch.setattr(ringcalc._NestedSets, "expand", broken)
    with pytest.raises(
        ArithmeticError,
        match=r"^face counts of edges:8:0-1,1-2,2-3,3-4,4-5,5-6,6-7 are "
        r"\[1430, 5005, 7007, 5005, 1925, 385, 35\]",
    ):
        fpoly(path_graph(10))
    with pytest.raises(
        ArithmeticError,
        match=r"edges:8:0-1,0-2,.*,5-7,6-7 are "
        r"\[40320, 141120, 191520, 126000, 40824, 5796, 254\]",
    ):
        fpoly(complete_graph(9))


def test_fpoly_rejects_graphs_above_the_ground_cap() -> None:
    with pytest.raises(ValueError):
        fpoly(empty_graph(21))


def test_fpoly_without_a_cache_keeps_no_memo_between_calls() -> None:
    fpoly(complete_graph(4))
    assert not [v for v in vars(ringcalc).values() if isinstance(v, FPolyCache)]


def test_fpoly_coefficients_are_ints() -> None:
    for g in connected_graphs_upto_iso(6):
        assert all(type(c) is int for _, c in fpoly(g).terms()), g


def test_fpoly_degree_is_the_dimension() -> None:
    for g in connected_graphs_upto_iso(5):
        b = building_set_from_graph(g)
        assert homogeneous_degree(fpoly(g)) == dimension(b) == g.n - 1


def test_fpoly_solves_the_boundary_equation() -> None:
    for g in connected_graphs_upto_iso(5):
        assert poly_deriv_t(fpoly(g)) == _face_poly(boundary(g))


def test_fpoly_of_disconnected_graphs_satisfies_leibniz() -> None:
    # d/dt f(G + H) = f(boundary(G) x H) + f(G x boundary(H)).
    pairs = [
        (complete_graph(2), complete_graph(2)),
        (path_graph(3), star_graph(3)),
        (bipartite_graph(2, 2), complete_graph(3)),
    ]
    for g, h in pairs:
        union = graph_from_edges(
            g.n + h.n, [*edges(g), *((u + g.n, v + g.n) for u, v in edges(h))]
        )
        times_h = PolyExpr({p + (h,): c for p, c in boundary(g).terms()})
        times_g = PolyExpr({p + (g,): c for p, c in boundary(h).terms()})
        assert poly_deriv_t(fpoly(union)) == _face_poly(times_h + times_g)


def test_relabelled_graphs_give_identical_fpoly() -> None:
    # Each relabelled copy starts from an empty memo, so its recursion runs
    # on its own labelling and must still give the same answer: the classes
    # up to five nodes flipped, those on six and seven nodes under seeded
    # permutations, which interleave their twin classes' labels.
    rng = random.Random(11)
    for g in connected_graphs_upto_iso(7):
        perm = list(range(g.n))[::-1]
        if g.n > 5:
            rng.shuffle(perm)
        relabelled = graph_from_edges(g.n, ((perm[u], perm[v]) for u, v in edges(g)))
        assert fpoly(relabelled) == fpoly(g), graph_spec(relabelled)


def test_a_smaller_complete_bipartite_graph_is_served_from_the_shared_cache() -> None:
    # K_{8,8} is the induced subgraph of K_{9,9} on the first nodes of each
    # part, so the larger recursion has already stored it, labels and all.
    cache = FPolyCache()
    induced_fpolys(bipartite_graph(9, 9), [(1 << 18) - 1], cache)
    size = len(cache)
    assert cache.lookup(bipartite_graph(8, 8).adj) is not None
    k88 = bipartite_graph(8, 8)
    assert induced_fpolys(k88, [(1 << 16) - 1], cache) == [facet_fpoly(k88)]
    assert len(cache) == size


@pytest.fixture(scope="module")
def family_run() -> tuple[list[Graph], list[tuple[int, ...]], list[int], list[Graph]]:
    """What ``verify --family all --max-order 10`` does through its one
    cache: the graphs it asks for (each member, the induced subgraph of its
    node mask in the family's largest graph), the keys it stores, the masks
    it expands and the graphs whose twin classes it takes."""
    asked: list[Graph] = []
    stored: list[tuple[int, ...]] = []
    expanded: list[int] = []
    with _counted_twin_classes() as twins:
        store, expand = FPolyCache.store, ringcalc._NestedSets.expand

        def counted_fpolys(g: Graph, masks: list[int], cache: FPolyCache) -> list[Poly2]:
            asked.extend(Graph(_induced_adj(g.adj, mask)) for mask in masks)
            return induced_fpolys(g, masks, cache)

        def counted_store(cache: FPolyCache, key: tuple[int, ...], value: int) -> None:
            stored.append(key)
            store(cache, key, value)

        def counted_expand(self, mask: int) -> int:
            expanded.append(mask)
            return expand(self, mask)

        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
            patch.setattr(invariants, "induced_fpolys", counted_fpolys)
            patch.setattr(FPolyCache, "store", counted_store)
            patch.setattr(ringcalc._NestedSets, "expand", counted_expand)
            assert main(["verify", "--family", "all", "--max-order", "10"]) == 0
    return asked, stored, expanded, list(twins)


@contextlib.contextmanager
def _counted_twin_classes():
    """The graphs ``ringcalc`` takes the twin classes of, while the block runs."""
    graphs: list[Graph] = []

    def counted(g: Graph) -> list[list[int]]:
        graphs.append(g)
        return twin_classes(g)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ringcalc, "twin_classes", counted)
        yield graphs


def test_a_class_scan_stores_each_labelled_induced_subgraph_once(family_run) -> None:
    # verify checks the families' graphs through one cache, the complete
    # bipartite graphs among them induced subgraphs of the larger ones on
    # their first nodes.
    asked, stored, _, _ = family_run
    assert len(stored) == len(set(stored))
    # subproblems of up to seven nodes come from the tables and are not
    # stored; larger ones are stored under their labelled induced subgraph,
    # a connected graph the run's subproblems reached, and every connected
    # graph of eight or more nodes that verify asks for under its own
    # labelling
    assert all(type(key) is tuple for key in stored)
    assert all(len(key) >= 8 and is_connected_graph(Graph(key)) for key in stored)
    large = {g.adj for g in asked if g.n >= 8 and is_connected_graph(g)}
    assert len(large) == 46
    assert large <= set(stored)


def test_a_class_scan_shares_subproblems_across_its_graphs(family_run) -> None:
    # The run expands 46 masks, each a labelled induced subgraph of eight
    # or more nodes met for the first time; with a cache per graph it would
    # expand 179.  A subproblem of up to seven nodes sent to the formula, or
    # a cache key that stopped matching equal labelled subgraphs above, would
    # run it more often.
    _, stored, expanded, _ = family_run
    assert len(expanded) == len(stored) == 46
    assert min(mask.bit_count() for mask in expanded) == 8


def _cache_traffic(family: str, order: int) -> list[tuple[int, int | None]]:
    """Each ``FPolyCache`` lookup of one verify run, in order: the position
    in the run of the family that looks it up, and that of the family that
    stored its key, or None on a miss."""
    current = [-1]
    stored_by: dict[tuple[int, ...], int] = {}
    lookups: list[tuple[int, int | None]] = []
    lookup, store = FPolyCache.lookup, FPolyCache.store

    def counted_fpolys(g: Graph, masks: list[int], cache: FPolyCache) -> list[Poly2]:
        current[0] += 1  # verify makes one induced_fpolys call per family
        return induced_fpolys(g, masks, cache)

    def counted_lookup(cache: FPolyCache, key: tuple[int, ...]) -> int | None:
        f = lookup(cache, key)
        lookups.append((current[0], None if f is None else stored_by[key]))
        return f

    def counted_store(cache: FPolyCache, key: tuple[int, ...], value: int) -> None:
        stored_by[key] = current[0]
        store(cache, key, value)

    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
        patch.setattr(invariants, "induced_fpolys", counted_fpolys)
        patch.setattr(FPolyCache, "lookup", counted_lookup)
        patch.setattr(FPolyCache, "store", counted_store)
        assert main(["verify", "--family", family, "--max-order", str(order)]) == 0
    return lookups


def test_verify_shares_its_cache_across_families_only() -> None:
    # Why induced_fpolys keeps its cache parameter: at order 8, verify
    # --family all looks up 19 subproblems of eight or more nodes, and 5 of
    # them hit, each on a key that an earlier family stored.  Inside one
    # family the per-call mask memo serves most repeats first, so a run of
    # a single family hits its cache only where two of its members are one
    # labelled graph under different masks: nabla-because's K_7 join one
    # node is K_8, its member at (8, 0), which pe stores first in the run
    # of all families.
    lookups = _cache_traffic("all", 8)
    hits = [(family, by) for family, by in lookups if by is not None]
    assert (len(lookups), len(hits)) == (19, 5)
    assert all(by < family for family, by in hits), hits
    single = {
        fam_id: [by for _, by in _cache_traffic(fam_id, 8) if by is not None]
        for fam_id in FAMILIES
    }
    assert single == {
        "pe": [],
        "st": [],
        "starmarked": [],
        "nabla-because": [0],
        "because-because": [],
    }


def test_twin_classes_are_taken_only_where_the_formula_runs(family_run, capsys) -> None:
    # Only the formula reads the twin classes, so a graph takes them once,
    # on its first expansion, and a graph read whole from the tables or the
    # shared cache never does.  verify reads each family's members as masks
    # of one graph, the family's largest, through one memo, so each family
    # whose members run the formula takes them once, on that graph, however
    # many members expand: four families do at order 8 (starmarked's stars
    # are all in the shared cache from st's run), and the same four at
    # order 10, though 14 and 46 members run the formula.
    expanding = ("pe", "st", "nabla-because", "because-because")
    with _counted_twin_classes() as twins:
        assert main(["verify", "--family", "all", "--max-order", "8"]) == 0
    capsys.readouterr()
    assert twins == [FAMILIES[fam].graph_at(8, 8) for fam in expanding]
    assert family_run[3] == [FAMILIES[fam].graph_at(10, 10) for fam in expanding]


@pytest.mark.parametrize("nodes", ["5", "6", "7"])
def test_the_small_scans_run_no_formula_and_store_nothing(nodes, monkeypatch, capsys) -> None:
    # The five-, six- and seven-node scans read each class's face counts by
    # its atlas position, so no class runs fpoly, takes its twin classes or
    # computes a key.
    def refused(*args) -> None:
        raise AssertionError(args)

    monkeypatch.setattr(ringcalc._NestedSets, "expand", refused)
    monkeypatch.setattr(FPolyCache, "store", refused)
    monkeypatch.setattr(ringcalc, "twin_classes", refused)
    monkeypatch.setattr(ringcalc, "_key", refused)
    monkeypatch.setattr(invariants, "fpoly", refused)
    assert main(["gal-scan", "--graph-class", "connected", "--nodes", nodes]) == 0
    capsys.readouterr()


def _labelled_connected_graphs(n: int) -> list[Graph]:
    """Every connected graph on the nodes 0..n-1, each labelling once."""
    pairs = list(combinations(range(n), 2))
    graphs = (
        graph_from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
        for bits in range(1 << len(pairs))
    )
    return [g for g in graphs if is_connected_graph(g)]


@pytest.mark.parametrize("n", range(2, 8))
def test_the_key_takes_one_value_per_class(n, atlas_facet_fpolys) -> None:
    # Subproblems of up to seven nodes are read from one table by _key, so
    # the key must name one isomorphism class whatever the labels.  Up to
    # six nodes every labelled connected graph is keyed (1, 4, 38, 728 and
    # 26,704 of them), its class taken from the witness canonical form; on
    # seven, the 853 atlas classes take 853 keys, and the relabelling test
    # below covers their labels.  The table holds exactly these keys.
    full = (1 << n) - 1
    atlas = [g for g in atlas_facet_fpolys if g.n == n]
    graphs = _labelled_connected_graphs(n) if n < 7 else atlas
    assert len(graphs) == {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 853}[n]
    keyed: dict[int, set[Graph]] = {}
    for g in graphs:
        keyed.setdefault(ringcalc._key(g.adj, full), set()).add(canonical_graph(g))
    assert len(keyed) == len(atlas) == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}[n]
    assert all(len(canonical) == 1 for canonical in keyed.values())
    assert set(keyed) == set(ringcalc.CLASSES[n])
    # each entry, as a subproblem reads it, equals the facet recursion, so
    # the recursion never grades its own table, and the formula on the
    # class's whole mask, which keeps the formula tested on 2-7 nodes
    for g in atlas:
        f = ringcalc._NestedSets(g, FPolyCache()).face_counts(full)
        assert f == ringcalc.CLASSES[n][ringcalc._key(g.adj, full)], graph_spec(g)
        facet = atlas_facet_fpolys[g].coeffs
        assert tuple(algebra._digits(f, ringcalc._WIDTH)) == facet, graph_spec(g)
        assert ringcalc._NestedSets(g, FPolyCache()).expand(full) == f, graph_spec(g)


def test_the_six_node_shape_splits_the_classes_that_share_degrees_and_triangles() -> None:
    # In each pair every node's degree and triangle count match those of a
    # node of the other graph; only the sums of neighbours' degrees differ,
    # and _key reads them.  Each graph with its face counts by dimension:
    faces = {
        "edges:6:0-1,1-2,1-3,2-4,3-5": (176, 440, 396, 154, 24, 1),
        "edges:6:0-4,0-5,1-3,2-3,3-4": (166, 415, 374, 146, 23, 1),
        "edges:6:0-2,0-3,0-4,1-2,1-3,3-5": (268, 670, 596, 224, 32, 1),
        "edges:6:0-2,1-3,2-4,2-5,3-4,3-5": (254, 635, 566, 214, 31, 1),
        "edges:6:0-4,0-5,1-3,1-4,2-3,2-4": (234, 585, 522, 198, 29, 1),
        "edges:6:0-1,0-4,1-2,1-5,2-3,3-4": (270, 675, 600, 225, 32, 1),
        "edges:6:0-1,0-3,0-5,1-2,2-3,3-4,4-5": (360, 900, 794, 291, 39, 1),
        "edges:6:0-1,0-4,0-5,1-2,2-3,3-4,3-5": (380, 950, 838, 307, 41, 1),
    }
    for spec, f in faces.items():
        g = parse_graph_spec(spec)
        assert facet_fpoly(g).coeffs == fpoly(g).coeffs == f, spec
    specs = list(faces)
    for a, b in zip(specs[::2], specs[1::2]):
        g, h = parse_graph_spec(a), parse_graph_spec(b)
        assert _degrees_and_triangles(g) == _degrees_and_triangles(h), (a, b)
        assert ringcalc._key(g.adj, 63) != ringcalc._key(h.adj, 63), (a, b)


def test_the_shape_adds_its_sums_only_where_classes_share_degrees() -> None:
    # The key is the degree histogram alone unless another class of its
    # node count shares it; then it is the sorted per-node codes, sums over
    # each node's neighbours, at or above 2^67, where no histogram reaches,
    # and the shared histogram is no key of the table, so no class is read
    # by it.  Two histograms on five nodes, 23 on six and 137 on seven are
    # shared: 71 classes on 5-6 nodes take codes, and 99 of the 853 on
    # seven have a histogram of their own.
    classes = {
        g: sum(1 << 4 * row.bit_count() for row in g.adj) for g in connected_graphs_upto_iso(7)
    }
    keys = {key for row in ringcalc.CLASSES.values() for key in row}
    assert len(classes) == len(keys) == 996
    histograms = list(classes.values())
    shared = {histogram for histogram in histograms if histograms.count(histogram) > 1}
    assert Counter(sum(h >> 4 * d & 15 for d in range(7)) for h in shared) == {5: 2, 6: 23, 7: 137}
    assert Counter(g.n for g, h in classes.items() if h in shared) == {5: 4, 6: 67, 7: 853 - 99}
    assert not shared & keys
    assert max(histograms) < 1 << 28
    for g, histogram in classes.items():
        key = ringcalc._key(g.adj, (1 << g.n) - 1)
        assert (key == histogram) == (histogram not in shared), graph_spec(g)
        assert (key >= 1 << 67) == (histogram in shared), graph_spec(g)


def _degrees_and_triangles(g: Graph) -> list[tuple[int, int]]:
    """Each node's degree and twice its number of triangles, sorted."""
    return sorted(
        (row.bit_count(), sum((g.adj[u] & row).bit_count() for u in range(g.n) if row >> u & 1))
        for row in g.adj
    )


def test_the_shape_splits_the_five_node_classes_that_share_degrees() -> None:
    # The triangle with a two-edge tail and the 4-cycle with a pendant share
    # degrees, and so do the house and K_{2,3}; only their triangles differ,
    # and _key reads them.  Each graph with its face counts by dimension:
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
        assert ringcalc._key(g.adj, 31) != ringcalc._key(h.adj, 31)


def test_the_tables_list_each_node_count_in_atlas_order(atlas_facet_fpolys) -> None:
    # A class scan reads its face counts by atlas position, so the i-th key
    # of each row of CLASSES is the key of atlas class i on its full mask,
    # and class_face_counts gives each class its face polynomial, as the
    # facet recursion and fpoly compute it.
    assert list(ringcalc.CLASSES) == list(range(1, 8))
    for n in range(1, 8):
        classes = connected_graphs_upto_iso(n, n)
        full = (1 << n) - 1
        assert list(ringcalc.CLASSES[n]) == [ringcalc._key(g.adj, full) for g in classes], n
        for g, f in zip(classes, ringcalc.class_face_counts(n), strict=True):
            assert tuple(f) == fpoly(g).coeffs == atlas_facet_fpolys[g].coeffs, graph_spec(g)


def test_the_table_is_committed_at_the_recursions_width() -> None:
    # Each entry is packed as the recursion reads it: n fields of _WIDTH
    # bits, the top one the single top face, every field a positive count
    # below 2^16, as invariants._packed_gammas needs.  The literals are
    # written at 73 bits, so a change of MAX_GROUND, and with it of _WIDTH,
    # fails here until they are rewritten.  A subproblem reads the very
    # same int: face_counts returns the committed one itself.
    width = ringcalc._WIDTH
    field = (1 << width) - 1
    for n, row in ringcalc.CLASSES.items():
        full = (1 << n) - 1
        for g, (key, f) in zip(connected_graphs_upto_iso(n, n), row.items(), strict=True):
            assert f >> width * (n - 1) == 1, (n, hex(key))
            counts = [f >> width * i & field for i in range(n)]
            assert all(0 < c < 1 << 16 for c in counts), (n, hex(key))
            assert ringcalc._NestedSets(g, FPolyCache()).face_counts(full) is f, graph_spec(g)
    assert sum(map(len, ringcalc.CLASSES.values())) == 996


# sha256 of repr(class_face_counts(n)), written from the tree whose table had
# 16-bit fields, so that rewriting the literals changed no count
FACE_COUNT_DIGESTS = {
    1: "043f347c2cdc0d8ce70c38775d24e556c0290acf6d0c87a3a52aa85471cb8d02",
    2: "ea9610e84656457b8984fb4f10806a7046e6a685dd6ca9f80baa8decfeec15fd",
    3: "361ac60567a18903e91b45c86ab775f156bc71b62b45d30f585de82cc8c43a27",
    4: "c0d8f39a6693f750d46e2ed8dbec837ee103e973420f44188786b53e109cfaf9",
    5: "58d3040e56dfa6a0e4732bf136fb2fcbf687a2bee5066aedf87f5ce332935044",
    6: "db14fd74628ed834dc61ee667d609758583c63d5f6a35258713336e202558977",
    7: "4515a8e0b9784e04ea50c2fbd3a1d3112f46c3d292d30cddd5c1307be5e3c3be",
}


def test_the_class_face_counts_keep_their_digests() -> None:
    for n, digest in FACE_COUNT_DIGESTS.items():
        counts = ringcalc.class_face_counts(n)
        assert hashlib.sha256(repr(counts).encode()).hexdigest() == digest, n


def test_class_face_counts_refuse_node_counts_outside_the_atlas() -> None:
    for bad in (0, -1, 8, 20):
        with pytest.raises(ValueError, match="^the atlas covers 1..7 nodes$"):
            ringcalc.class_face_counts(bad)


@pytest.mark.parametrize("n", range(2, 8))
def test_the_key_ignores_labels_and_the_nodes_outside_its_mask(n) -> None:
    # Five seeded relabellings of each class keep its key, and so does the
    # class as an n-node mask of a 12-node graph, its nodes scattered and
    # the other nodes joined to every node with probability 1/2: a key that
    # read a degree or a common neighbour outside the mask would change, and
    # the subproblem on that mask reads the class's entry.
    rng = random.Random(7)
    full = (1 << n) - 1
    for g in connected_graphs_upto_iso(n, n):
        key = ringcalc._key(g.adj, full)
        for _ in range(5):
            perm = rng.sample(range(n), n)
            relabelled = graph_from_edges(n, ((perm[u], perm[v]) for u, v in edges(g)))
            assert ringcalc._key(relabelled.adj, full) == key, graph_spec(relabelled)
        perm = rng.sample(range(12), 12)
        outside = [(u, v) for u in range(n, 12) for v in range(u) if rng.random() < 0.5]
        larger = graph_from_edges(12, ((perm[u], perm[v]) for u, v in [*edges(g), *outside]))
        mask = sum(1 << perm[v] for v in range(n))
        assert ringcalc._key(larger.adj, mask) == key, graph_spec(larger)
        nested = ringcalc._NestedSets(larger, FPolyCache())
        assert nested.face_counts(mask) == ringcalc.CLASSES[n][key], graph_spec(larger)


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

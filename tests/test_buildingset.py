"""Graphs, the graph-spec mini-language, and the witness graph and building set operations."""

from __future__ import annotations

import random
import re
import time
from itertools import combinations

import networkx as nx
import pytest

import nestohedra.buildingset as buildingset
from nestohedra._classes import CONNECTED
from nestohedra.buildingset import (
    MAX_GROUND,
    Graph,
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
import witnesses
from witnesses import (
    BuildingSet,
    building_set_from_graph,
    canonical,
    canonical_graph,
    canonical_key,
    components,
    connected_graphs_upto_iso,
    connected_subset_orbits,
    contraction,
    dimension,
    edges,
    graph_components,
    induced_subgraph,
    is_connected_graph,
    is_valid,
    removal,
    restriction,
    validate,
)


def _connected_subsets_oracle(g: Graph) -> set[frozenset[int]]:
    """Connected induced vertex subsets, found by union-find from scratch."""
    out: set[frozenset[int]] = set()
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            parent = {v: v for v in subset}

            def find(v: int) -> int:
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            for u, v in edges(g):
                if u in parent and v in parent:
                    parent[find(u)] = find(v)
            if len({find(v) for v in subset}) == 1:
                out.add(frozenset(subset))
    return out


# ---------------------------------------------------------------------------
# graphs


def test_graph_constructors() -> None:
    assert edges(complete_graph(3)) == frozenset({(0, 1), (0, 2), (1, 2)})
    assert edges(empty_graph(3)) == frozenset()
    assert edges(path_graph(3)) == frozenset({(0, 1), (1, 2)})
    assert edges(star_graph(3)) == frozenset({(0, 1), (0, 2), (0, 3)})
    assert edges(bipartite_graph(2, 2)) == frozenset(
        {(0, 2), (0, 3), (1, 2), (1, 3)}
    )


def test_complete_graphs_from_masks_equal_their_edge_lists() -> None:
    # complete_graph writes its masks directly; graph_from_edges, the
    # validating constructor, builds the same graph from all n(n-1)/2 pairs
    for n in range(21):
        assert complete_graph(n) == graph_from_edges(n, combinations(range(n), 2))
    with pytest.raises(ValueError, match="^negative node count$"):
        complete_graph(-1)


def test_cycle_graph() -> None:
    assert edges(cycle_graph(4)) == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    assert cycle_graph(3) == complete_graph(3)
    for n in (-1, 0, 1, 2):
        with pytest.raises(ValueError):
            cycle_graph(n)


def test_adjacency_masks_are_built_once_per_graph() -> None:
    # The masks are the graph's one field: built by the constructor, read
    # by every operation, and the whole of its value and hash.
    assert Graph._fields == ("adj",)
    assert Graph.__slots__ == ()
    g = bipartite_graph(2, 2)
    assert not hasattr(g, "__dict__")
    with pytest.raises(AttributeError):
        g.adj = ()
    assert g.adj == (0b1100, 0b1100, 0b0011, 0b0011)
    assert g.n == 4
    assert g == Graph((0b1100, 0b1100, 0b0011, 0b0011)) == bipartite_graph(2, 2)
    assert hash(g) == hash(bipartite_graph(2, 2))
    assert path_graph(3).adj == (0b010, 0b101, 0b010)
    assert star_graph(3).adj == (0b1110, 0b0001, 0b0001, 0b0001)
    assert empty_graph(2).adj == (0, 0)
    assert empty_graph(0).adj == ()


def test_join_shifts_the_second_graph() -> None:
    joined = join_graphs(complete_graph(2), empty_graph(1))
    assert joined == complete_graph(3)
    assert join_graphs(empty_graph(2), empty_graph(2)) == bipartite_graph(2, 2)


def test_is_connected_graph() -> None:
    assert is_connected_graph(path_graph(4))
    assert not is_connected_graph(empty_graph(2))
    assert not is_connected_graph(empty_graph(0))
    assert is_connected_graph(complete_graph(1))


def test_induced_subgraph_relabels_compactly() -> None:
    sub = induced_subgraph(path_graph(4), 0b1110)
    assert sub == path_graph(3)
    # Masks of one run of nodes take a single shift, the rest one shift per
    # run; both must give the subgraph on the masked nodes in label order.
    rng = random.Random(4)
    n = 9
    g = graph_from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.5])
    edge_set = edges(g)
    for mask in range(1 << n):
        nodes = [v for v in range(n) if mask >> v & 1]
        pairs = combinations(enumerate(nodes), 2)
        expected = graph_from_edges(len(nodes), [(i, j) for (i, u), (j, v) in pairs if (u, v) in edge_set])
        assert induced_subgraph(g, mask) == expected, bin(mask)


def test_contraction_connects_through_the_removed_set() -> None:
    # Contracting one side's vertex of the 4-cycle K_{2,2} joins the
    # remaining three into a triangle.
    assert contraction(bipartite_graph(2, 2), 0b0001) == complete_graph(3)
    # Contracting an inner path vertex splices its neighbors together.
    assert contraction(path_graph(4), 0b0010) == path_graph(3)
    # Contracting a leaf just deletes it.
    assert contraction(star_graph(3), 0b0010) == star_graph(2)


# ---------------------------------------------------------------------------
# twin classes and subset orbits


def _twin_classes_oracle(g: Graph) -> list[list[int]]:
    """Classes of u ~ v iff N(u) - {v} == N(v) - {u}, straight from the definition."""
    nbrs = [{v for e in edges(g) for v in e if u in e and v != u} for u in range(g.n)]
    classes: list[list[int]] = []
    for v in range(g.n):
        for cls in classes:
            u = cls[0]
            if nbrs[u] - {v} == nbrs[v] - {u}:
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


@pytest.mark.parametrize("n", range(1, 21))
def test_twin_classes_of_complete_graphs_are_one_class(n: int) -> None:
    assert twin_classes(complete_graph(n)) == [list(range(n))]


@pytest.mark.parametrize("leaves", range(2, 20))
def test_twin_classes_of_stars_split_off_the_centre(leaves: int) -> None:
    assert twin_classes(star_graph(leaves)) == [[0], list(range(1, leaves + 1))]


def test_twin_classes_of_complete_bipartite_graphs_are_the_parts() -> None:
    for m in range(1, 11):
        for n in range(1, 11):
            if m + n >= 3:
                parts = [list(range(m)), list(range(m, m + n))]
                assert twin_classes(bipartite_graph(m, n)) == parts, (m, n)


def test_paths_and_long_cycles_are_twin_free() -> None:
    for n in range(4, 21):
        assert twin_classes(path_graph(n)) == [[v] for v in range(n)], n
    for n in range(5, 21):
        assert twin_classes(cycle_graph(n)) == [[v] for v in range(n)], n


def test_twin_classes_follow_the_definition() -> None:
    for g in connected_graphs_upto_iso(7):
        assert twin_classes(g) == _twin_classes_oracle(g), graph_spec(g)


def test_subset_orbits_partition_the_proper_connected_subsets() -> None:
    # Expand each orbit into every subset with the same count per twin
    # class; together the orbits cover each proper connected subset once.
    shapes = [parse_graph_spec(spec) for spec in (
        "bipartite:3,4", "star:6", "complete:7", "join(complete:3,empty:4)",
        "join(star:2,empty:3)", "cycle:4", "path:3",
    )]
    for g in connected_graphs_upto_iso(6) + shapes:
        classes = twin_classes(g)
        full = (1 << g.n) - 1

        def counts(s: int) -> tuple[int, ...]:
            return tuple(sum(s >> v & 1 for v in cls) for cls in classes)

        wanted = {
            sum(1 << v for v in subset) for subset in _connected_subsets_oracle(g)
        } - {full}
        orbits = connected_subset_orbits(g)
        assert sum(size for _, size in orbits) == len(wanted), graph_spec(g)
        covered = []
        for rep, size in orbits:
            members = [s for s in range(1, full) if counts(s) == counts(rep)]
            assert len(members) == size, graph_spec(g)
            covered += members
        assert sorted(covered) == sorted(wanted), graph_spec(g)


def test_subset_orbits_take_the_first_nodes_of_each_class() -> None:
    assert connected_subset_orbits(complete_graph(4)) == [
        (0b0001, 4), (0b0011, 6), (0b0111, 4)
    ]
    # K_{2,3}: a single node of either part, or a nonempty share of both.
    orbits = dict(connected_subset_orbits(bipartite_graph(2, 3)))
    assert orbits == {
        0b00001: 2, 0b00100: 3,
        0b00101: 6, 0b01101: 6, 0b11101: 2,
        0b00111: 3, 0b01111: 3,
    }
    # A twin-free graph has one orbit per connected subset.
    assert connected_subset_orbits(path_graph(4)) == [
        (s, 1) for s in range(1, 15) if s in (1, 2, 3, 4, 6, 7, 8, 12, 14)
    ]


# ---------------------------------------------------------------------------
# canonical relabelling


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, ((perm[u], perm[v]) for u, v in edges(g)))


def _is_relabelling_of(c: Graph, g: Graph) -> bool:
    degrees = sorted(m.bit_count() for m in g.adj)
    return (
        c.n == g.n
        and sorted(m.bit_count() for m in c.adj) == degrees
        and nx.is_isomorphic(nx.Graph(edges(c)), nx.Graph(edges(g)))
    )


def _rook_graph(k: int) -> Graph:
    """K_k x K_k: cells of a k-by-k board, adjacent when in one row or column."""
    cells = range(k * k)
    return graph_from_edges(
        k * k,
        ((a, b) for a, b in combinations(cells, 2) if a // k == b // k or a % k == b % k),
    )


def _hypercube_graph(d: int) -> Graph:
    return graph_from_edges(
        1 << d, ((a, a | 1 << i) for a in range(1 << d) for i in range(d) if not a >> i & 1)
    )


def test_canonical_graph_agrees_with_the_brute_force_canonical_form() -> None:
    # Every class on up to six nodes and seeded relabellings of each: two
    # graphs share a canonical graph exactly when they share the least
    # relabelling over all n! permutations.
    rng = random.Random(9)
    graphs = []
    for g in connected_graphs_upto_iso(6):
        graphs += [g] + [_relabelled(g, rng) for _ in range(3)]
    pairs = {(canonical_graph(g), canonical(g)) for g in graphs}
    assert len(pairs) == len({c for c, _ in pairs}) == len({w for _, w in pairs}) == 143


def test_canonical_graph_is_a_relabelling_of_its_input() -> None:
    for g in connected_graphs_upto_iso(7):
        assert _is_relabelling_of(canonical_graph(g), g), graph_spec(g)


def test_canonical_graph_of_small_and_trivial_graphs() -> None:
    assert canonical_graph(Graph(())) == Graph(())
    assert canonical_graph(complete_graph(1)) == complete_graph(1)
    assert canonical_graph(empty_graph(4)) == empty_graph(4)
    assert canonical_graph(star_graph(3)) == canonical_graph(
        parse_graph_spec("edges:4:0-3,1-3,2-3")
    )


def test_canonical_graph_returns_its_input_past_the_leaf_cap(monkeypatch) -> None:
    # The 6-cycle's search reaches 12 leaves, one per automorphism; the
    # triangle's refinement is a leaf at once.
    monkeypatch.setattr(witnesses, "_CANONICAL_LEAF_CAP", 11)
    hexagon = cycle_graph(6)
    assert canonical_graph(hexagon) is hexagon
    assert canonical_graph(complete_graph(3)) == complete_graph(3)
    monkeypatch.setattr(witnesses, "_CANONICAL_LEAF_CAP", 12)
    assert canonical_graph(hexagon) is not hexagon


@pytest.mark.parametrize(
    "g",
    [parse_graph_spec(spec) for spec in ("cycle:20", "complete:20", "bipartite:10,10")]
    + [_rook_graph(4), _hypercube_graph(4)],
    ids=["cycle:20", "complete:20", "bipartite:10,10", "rook:4", "hypercube:4"],
)
def test_canonical_graph_of_symmetric_extremes(g: Graph) -> None:
    # Large cells and many automorphisms: the search must still reach the
    # same relabelling from another labelling, well within the time limit.
    start = time.perf_counter()
    c = canonical_graph(g)
    assert canonical_graph(_relabelled(g, random.Random(5))) == c
    assert time.perf_counter() - start < 20
    assert _is_relabelling_of(c, g)


def test_parse_graph_spec() -> None:
    assert parse_graph_spec("complete:3") == complete_graph(3)
    assert parse_graph_spec("empty:2") == empty_graph(2)
    assert parse_graph_spec("star:4") == star_graph(4)
    assert parse_graph_spec("path:5") == path_graph(5)
    assert parse_graph_spec("cycle:5") == cycle_graph(5)
    assert parse_graph_spec("bipartite:2,3") == bipartite_graph(2, 3)
    assert parse_graph_spec("edges:3:0-1,1-2") == path_graph(3)
    assert parse_graph_spec("edges:2:") == empty_graph(2)
    assert parse_graph_spec("join(complete:2,empty:1)") == complete_graph(3)
    assert parse_graph_spec(
        "join(empty:1,join(empty:1,empty:1))"
    ) == complete_graph(3)
    # spaces around sizes, labels and a join's arguments are ignored
    assert parse_graph_spec("complete: 3") == complete_graph(3)
    assert parse_graph_spec("bipartite:2, 3") == bipartite_graph(2, 3)
    assert parse_graph_spec("join( complete:2 , empty:1 )") == complete_graph(3)
    assert parse_graph_spec("edges:3: 0 - 1 , 1-2") == path_graph(3)


@pytest.mark.parametrize(
    "bad, message",
    [
        pytest.param(bad, message, id=bad)
        for bad, message in [
            ("nonsense:4", "unknown graph spec 'nonsense:4'"),
            ("complete:", "bad size '' in 'complete:'"),
            ("complete:-1", "bad size '-1' in 'complete:-1'"),
            ("bipartite:2", "bipartite takes two sizes: 'bipartite:2'"),
            ("edges:2:0-5", "edge 0-5 out of range for 2 nodes in 'edges:2:0-5'"),
            ("edges:2:0-0", "self-loop at node 0 in 'edges:2:0-0'"),
            ("edges:two:0-1", "bad size 'two' in 'edges:two:0-1'"),
            ("join(complete:2)", "join takes two arguments: 'join(complete:2)'"),
            (
                "join(complete:2,empty:1,empty:1)",
                "join takes two arguments: 'join(complete:2,empty:1,empty:1)'",
            ),
            ("cycle:2", "a cycle needs at least 3 nodes: 'cycle:2'"),
            ("cycle:0", "a cycle needs at least 3 nodes: 'cycle:0'"),
            ("cycle:21", "'cycle:21' has 21 nodes, more than 20"),
            ("", "unknown graph spec ''"),
            # sizes and labels are ASCII digits only, not whatever int() reads
            ("complete:1_0", "bad size '1_0' in 'complete:1_0'"),
            ("complete:+3", "bad size '+3' in 'complete:+3'"),
            ("complete:\u0663", "bad size '\u0663' in 'complete:\u0663'"),
            ("bipartite:1,-0", "bad size '-0' in 'bipartite:1,-0'"),
            ("edges:3:0-1_0", "bad size '1_0' in 'edges:3:0-1_0'"),
            ("join(complete:2,empty:1))", "unbalanced parentheses in 'join(complete:2,empty:1))'"),
        ]
    ]
    + [
        pytest.param(
            "complete:" + "9" * 5000,
            f"bad size {'9' * 5000!r} in {'complete:' + '9' * 5000!r}",
            id="more-digits-than-int-converts",
        )
    ],
)
def test_parse_graph_spec_rejects(bad: str, message: str) -> None:
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_graph_spec(bad)


def test_parse_graph_spec_rejects_oversized_graphs(monkeypatch) -> None:
    # Sizes are checked before any edge is built, and a join's summed node
    # count before the join runs.
    def refuse(*args):
        raise AssertionError("built edges for an oversized spec")

    monkeypatch.setattr(buildingset, "graph_from_edges", refuse)
    for spec, n in [
        ("complete:1500", 1500),
        ("empty:21", 21),
        ("path:21", 21),
        ("star:20", 21),
        ("bipartite:10,11", 21),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(repr(spec))} has {n} nodes, more than 20$"):
            parse_graph_spec(spec)
    with pytest.raises(ValueError, match="^'edges:21:0-1' has 21 nodes, more than 20$"):
        parse_graph_spec("edges:21:0-1")
    monkeypatch.undo()

    monkeypatch.setattr(buildingset, "join_graphs", refuse)
    with pytest.raises(ValueError, match=r"^'join\(complete:15,complete:15\)' has 30 nodes, more than 20$"):
        parse_graph_spec("join(complete:15,complete:15)")
    monkeypatch.undo()
    assert parse_graph_spec(f"complete:{MAX_GROUND}").n == MAX_GROUND
    assert parse_graph_spec("join(complete:10,star:9)").n == MAX_GROUND


def test_parse_graph_spec_rejects_deep_nesting() -> None:
    deep = "join(empty:0," * 2000 + "empty:0" + ")" * 2000
    with pytest.raises(ValueError, match="^graph spec nested more than 32 deep$"):
        parse_graph_spec(deep)
    shallow = "join(empty:1," * 10 + "empty:1" + ")" * 10
    assert parse_graph_spec(shallow) == complete_graph(11)


def test_graph_spec_is_a_parser_inverse() -> None:
    graphs = [complete_graph(4), star_graph(3), bipartite_graph(2, 3), empty_graph(0)]
    graphs += connected_graphs_upto_iso(7)
    for g in graphs:
        assert parse_graph_spec(graph_spec(g)) == g, graph_spec(g)
        assert graph_from_edges(g.n, edges(g)) == g, graph_spec(g)


def test_connected_graphs_upto_iso_counts() -> None:
    # 1, 1, 2, 6, 21, 112 connected graphs on 1..6 nodes.
    assert len(connected_graphs_upto_iso(4)) == 10
    assert len(connected_graphs_upto_iso(6)) == 143


def test_the_atlas_specs_are_canonical() -> None:
    # The table holds each class's spec as graph_spec writes it, so a class
    # scan prints it as it stands.
    assert list(CONNECTED) == list(range(1, 8))
    for n, count in zip(range(1, 8), (1, 1, 2, 6, 21, 112, 853)):
        specs = CONNECTED[n]
        assert type(specs) is tuple and len(specs) == count, n
        for spec in specs:
            assert graph_spec(parse_graph_spec(spec)) == spec


def test_connected_graphs_upto_iso_match_the_networkx_atlas() -> None:
    # The committed table against the atlas it was taken from: same
    # classes, same order, same node labels.
    atlas = [
        graph_from_edges(g.number_of_nodes(), g.edges())
        for g in nx.graph_atlas_g()
        if 1 <= g.number_of_nodes() <= 7 and nx.is_connected(g)
    ]
    assert len(atlas) == 996
    for max_nodes in range(1, 8):
        expected = [g for g in atlas if g.n <= max_nodes]
        assert connected_graphs_upto_iso(max_nodes) == expected, max_nodes
        # a class scan decodes its own node count alone
        for min_nodes in range(1, max_nodes + 1):
            expected = [g for g in atlas if min_nodes <= g.n <= max_nodes]
            assert connected_graphs_upto_iso(max_nodes, min_nodes) == expected
    for bad in (0, 8):
        with pytest.raises(ValueError):
            connected_graphs_upto_iso(bad)
    for bad_max, bad_min in ((7, 0), (3, 4), (8, 8)):
        with pytest.raises(ValueError):
            connected_graphs_upto_iso(bad_max, bad_min)


# ---------------------------------------------------------------------------
# building sets


def test_building_set_of_bipartite_2_2_matches_enumeration() -> None:
    g = bipartite_graph(2, 2)
    b = building_set_from_graph(g)
    expected = _connected_subsets_oracle(g)
    assert len(expected) == 13
    assert {frozenset(b.labels_of(m)) for m in b.sets} == expected


def test_building_set_matches_enumeration_on_small_graphs() -> None:
    for g in connected_graphs_upto_iso(5):
        b = building_set_from_graph(g)
        got = {frozenset(b.labels_of(mask)) for mask in b.sets}
        assert got == _connected_subsets_oracle(g)


def test_validate_flags_missing_singleton() -> None:
    b = building_set_from_graph(path_graph(3))
    broken = BuildingSet(b.ground, frozenset(m for m in b.sets if m != 1))
    problems = validate(broken)
    assert problems and "singleton" in problems[0]
    assert not is_valid(broken)


def test_validate_flags_missing_union() -> None:
    b = building_set_from_graph(path_graph(3))
    broken = BuildingSet(b.ground, frozenset(m for m in b.sets if m != b.full_mask))
    problems = validate(broken)
    assert problems and "union" in problems[0]


def test_validate_accepts_graphical_building_sets() -> None:
    for g in connected_graphs_upto_iso(5):
        assert is_valid(building_set_from_graph(g))


def test_restriction_to_a_triple_of_the_four_cycle() -> None:
    b = building_set_from_graph(bipartite_graph(2, 2))
    triple = b.mask_of([0, 2, 3])
    restricted = restriction(b, triple)
    assert restricted.ground == (0, 2, 3)
    # The induced graph is the path 2-0-3, so six connected subsets.
    assert len(restricted.sets) == 6
    assert canonical_key(restricted) == canonical_key(
        building_set_from_graph(induced_subgraph(bipartite_graph(2, 2), triple))
    )


def test_removal_of_a_singleton_from_the_four_cycle() -> None:
    b = building_set_from_graph(bipartite_graph(2, 2))
    removed = removal(b, b.mask_of([0]))
    assert removed.ground == (1, 2, 3)
    assert len(removed.sets) == 7
    assert canonical_key(removed) == canonical_key(
        building_set_from_graph(complete_graph(3))
    )


def _atlas_and_reversed(max_nodes: int) -> list[Graph]:
    """The atlas classes, each followed by its copy with labels reversed."""
    out = []
    for g in connected_graphs_upto_iso(max_nodes):
        out.append(g)
        reversed_edges = ((g.n - 1 - u, g.n - 1 - v) for u, v in edges(g))
        out.append(graph_from_edges(g.n, reversed_edges))
    return out


def test_removal_agrees_with_graph_contraction() -> None:
    # Building sets from graphs use ground labels 0..n-1, so member masks
    # double as node masks of the graph itself.
    for g in _atlas_and_reversed(6):
        b = building_set_from_graph(g)
        for mask in b.sets:
            if mask == b.full_mask:
                continue
            removed = removal(b, mask)
            contracted = building_set_from_graph(contraction(g, mask))
            assert canonical_key(removed) == canonical_key(contracted)


def test_restriction_agrees_with_induced_subgraph() -> None:
    for g in _atlas_and_reversed(6):
        b = building_set_from_graph(g)
        for mask in b.sets:
            restricted = restriction(b, mask)
            induced = building_set_from_graph(induced_subgraph(g, mask))
            assert canonical_key(restricted) == canonical_key(induced)


def test_components_split_disconnected_building_sets() -> None:
    b = building_set_from_graph(empty_graph(3))
    parts = components(b)
    assert len(parts) == 3
    assert all(len(part.sets) == 1 for part in parts)

    two_edges = parse_graph_spec("edges:4:0-1,2-3")
    parts = components(building_set_from_graph(two_edges))
    assert len(parts) == 2
    assert all(len(part.sets) == 3 for part in parts)
    # The graph's own components, relabeled compactly, give the same split.
    assert graph_components(two_edges) == [complete_graph(2), complete_graph(2)]
    assert graph_components(empty_graph(3)) == [complete_graph(1)] * 3
    assert graph_components(empty_graph(0)) == []
    assert graph_components(path_graph(4)) == [path_graph(4)]


def test_dimension() -> None:
    assert dimension(building_set_from_graph(complete_graph(3))) == 2
    assert dimension(building_set_from_graph(empty_graph(3))) == 0
    assert dimension(building_set_from_graph(parse_graph_spec("edges:4:0-1,2-3"))) == 2


def test_canonical_key_label_mode_distinguishes_relabelings() -> None:
    center_first = building_set_from_graph(star_graph(2))
    center_mid = building_set_from_graph(parse_graph_spec("edges:3:0-1,1-2"))
    assert canonical_key(center_first) != canonical_key(center_mid)
    assert star_graph(2) != parse_graph_spec("edges:3:0-1,1-2")
    assert parse_graph_spec("edges:3:1-2,0-1") == path_graph(3)

"""Graphs on {0..n-1} and the building sets their connected subgraphs form.

A ``Graph`` is its tuple of adjacency masks (bit v of ``adj[u]`` marks the
edge u-v), which every operation reads and the recursion uses as memo key.
``graph_from_edges`` is the validating constructor for outside edge lists.

A building set on a finite ground set contains every singleton and is closed
under unions of intersecting members.  The ones used here are graphical:
``building_set_from_graph`` collects the node subsets that induce a connected
subgraph.  Subsets are bitmasks over positions into the (sorted) ground
label tuple, which keeps restriction, removal and validation down to integer
bit operations.

The facet recursion (``ringcalc``) works on graphs alone, through two graph
operations.  ``induced_subgraph(g, s)`` is the graph whose building set is
``restriction(b, s)``, the members contained in s.  ``contraction(g, s)``
reconnects the remaining nodes through s; its building set is
``removal(b, s)``, every member with the elements of s erased (not the
induced subgraph on the complement).  ``restriction`` and ``removal`` are
the definitions on building sets that these two agree with, and the tests
check that agreement.  ``connected_subset_orbits`` lists the subsets S the
recursion visits: the connected ones, one per orbit under permutations of
twin nodes (``twin_classes``), each with its orbit size.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional, Sequence

__all__ = [
    "MAX_GROUND",
    "Graph",
    "GraphSpecError",
    "complete_graph",
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "bipartite_graph",
    "join_graphs",
    "graph_from_edges",
    "twin_classes",
    "canonical_graph",
    "connected_subset_orbits",
    "is_connected_graph",
    "connected_submask",
    "induced_subgraph",
    "contraction",
    "graph_components",
    "parse_graph_spec",
    "graph_spec",
    "connected_graphs_upto_iso",
    "BuildingSet",
    "building_set_from_graph",
    "validate",
    "is_valid",
    "restriction",
    "removal",
    "components",
    "dimension",
    "canonical_key",
]

# Grounds are bitmasks in a Python int, so the cap is soft; 20 keeps the
# all-subsets enumerations (building_set_from_graph, and
# connected_subset_orbits on twin-free graphs) at desk scale.
MAX_GROUND = 20
# Deepest parenthesis nesting parse_graph_spec accepts; far above any spec
# within MAX_GROUND nodes that does not join empty graphs.
_MAX_SPEC_NESTING = 32


class GraphSpecError(ValueError):
    """Malformed graph description."""


def _mask_nodes(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _compress(masks: Iterable[int], within: int) -> tuple[int, ...]:
    """Re-index the bits of each mask against the bits set in ``within``.

    Bits outside ``within`` drop out; each run of its set bits is one shift.
    """
    runs = []
    p = 0
    while within:
        low = within & -within
        run = within & ~(within + low)
        runs.append((run, low.bit_length() - 1 - p))
        p += run.bit_count()
        within ^= run
    out = []
    for m in masks:
        packed = 0
        for run, shift in runs:
            packed |= (m & run) >> shift
        out.append(packed)
    return tuple(out)


@dataclass(frozen=True, order=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1, as adjacency masks.

    Bit v of ``adj[u]`` is set when u-v is an edge.  The masks are the whole
    value, so a graph is hashable and sortable and serves as its own memo
    key: two graphs are equal exactly when they are the same labelled
    graph.  ``Graph(adj)`` trusts its masks to be symmetric and loop-free;
    ``graph_from_edges`` is the validating constructor.
    """

    adj: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as sorted pairs (u, v), u < v."""
        return frozenset(
            (u, v) for u, m in enumerate(self.adj) for v in _mask_nodes(m) if u < v
        )


def graph_from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    if n < 0:
        raise ValueError("negative node count")
    adj = [0] * n
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {u}-{v} out of range for {n} nodes")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj))


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def empty_graph(n: int) -> Graph:
    return graph_from_edges(n, ())


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """The n-cycle 0-1-...-(n-1)-0; its nestohedron is the cyclohedron."""
    if n < 3:
        raise ValueError(f"a cycle needs at least 3 nodes, not {n}")
    return graph_from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def join_graphs(a: Graph, b: Graph) -> Graph:
    """Disjoint union plus every edge between the two parts; b is shifted."""
    low = (1 << a.n) - 1
    high = ((1 << b.n) - 1) << a.n
    return Graph(tuple(m | high for m in a.adj) + tuple(m << a.n | low for m in b.adj))


def star_graph(leaves: int) -> Graph:
    """One center (node 0) joined to the given number of leaves."""
    return join_graphs(complete_graph(1), empty_graph(leaves))


def bipartite_graph(m: int, n: int) -> Graph:
    """Complete bipartite graph, first part labeled 0..m-1."""
    return join_graphs(empty_graph(m), empty_graph(n))


def twin_classes(g: Graph) -> list[list[int]]:
    """Nodes grouped into twin classes, each class and the list in node order.

    u and v are twins when N(u) minus v equals N(v) minus u: false twins
    share their open neighbourhood, true twins their closed one.  A node u
    with a true twin v has no false twin w: w would share N(u), which holds
    v, so w would lie in N[v] = N[u] and be adjacent to u.  So the two
    groupings never overlap, and any permutation inside a class is an
    automorphism of g.
    """
    adj = g.adj
    open_groups: dict[int, list[int]] = {}
    closed_groups: dict[int, list[int]] = {}
    for v in range(g.n):
        open_groups.setdefault(adj[v], []).append(v)
        closed_groups.setdefault(adj[v] | 1 << v, []).append(v)
    classes = []
    for v in range(g.n):
        false_twins = open_groups[adj[v]]
        cls = false_twins if len(false_twins) > 1 else closed_groups[adj[v] | 1 << v]
        if cls[0] == v:
            classes.append(cls)
    return classes


def _closure(adj: Sequence[int], seed: int, mask: int) -> int:
    """The seed nodes plus every masked node reachable from them inside mask."""
    seen = frontier = seed
    while frontier:
        reach = 0
        m = frontier
        while m:
            low = m & -m
            reach |= adj[low.bit_length() - 1]
            m ^= low
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen


def connected_submask(adj: Sequence[int], mask: int) -> bool:
    """Whether the induced subgraph on the masked nodes is connected."""
    if mask == 0:
        return False
    return _closure(adj, mask & -mask, mask) == mask


def connected_subset_orbits(g: Graph) -> list[tuple[int, int]]:
    """Proper connected node subsets up to permutations inside twin classes.

    An orbit is fixed by how many nodes c_i it takes from each twin class
    C_i (``twin_classes``), 0 <= c_i <= |C_i|, so the count vectors are
    enumerated in place of the 2^n subsets.  Each orbit is represented by
    the first c_i nodes of each class and comes with its size, the product
    of C(|C_i|, c_i).  Twin swaps are automorphisms, so a whole orbit is
    connected or not together.  Returns (mask, size) for every nonempty
    proper orbit that induces a connected subgraph; on a twin-free graph
    these are the connected subsets themselves, each of size 1.
    """
    adj = g.adj
    classes = twin_classes(g)
    reps = [0]
    for cls in classes:
        prefixes = [0]
        for v in cls:
            prefixes.append(prefixes[-1] | 1 << v)
        reps = [m | p for p in prefixes for m in reps]
    # singleton classes contribute a factor of 1 to every size
    twins = [(len(cls), sum(1 << v for v in cls)) for cls in classes if len(cls) > 1]
    orbits = []
    # reps[0] is the empty set and reps[-1] the whole node set
    for s in reps[1:-1]:
        if _closure(adj, s & -s, s) == s:
            size = 1
            for k, mask in twins:
                size *= comb(k, (s & mask).bit_count())
            orbits.append((s, size))
    return orbits


# Leaves canonical_graph may visit before it gives up and returns its input.
_CANONICAL_LEAF_CAP = 2048


def _refine(adj: Sequence[int], cells: list[int]) -> list[int]:
    """Colour refinement of an ordered partition (cells as node masks).

    Each round splits every cell by its nodes' counts of neighbours in each
    cell and orders the pieces by those counts, until no cell splits.  The
    result depends only on the structure, so a relabelled graph and
    partition refine to the relabelled result.
    """
    n = len(adj)
    while len(cells) < n:
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            pieces: dict[tuple[int, ...], int] = {}
            for v in _mask_nodes(cell):
                a = adj[v]
                signature = tuple([(a & c).bit_count() for c in cells])
                pieces[signature] = pieces.get(signature, 0) | 1 << v
            out.extend(pieces[s] for s in sorted(pieces))
        if len(out) == len(cells):
            break
        cells = out
    return cells


def canonical_graph(g: Graph) -> Graph:
    """A relabelling of g that is the same for every labelling of g.

    Colour refinement plus individualization (McKay and Piperno, *Practical
    graph isomorphism II*): refine the ordered partition, then branch on
    the first cell of several nodes that is not inside one twin class, with
    one branch per twin class it meets, since swapping twins is an
    automorphism.  A partition whose every cell lies inside a twin class is
    a leaf: numbering its nodes in cell order (twins in either order) gives
    one relabelling.  The result is the least of these over all leaves.  A
    search that passes _CANONICAL_LEAF_CAP leaves returns g unchanged, which
    is still a copy of g, just not a shared one.
    """
    n = g.n
    if n < 2:
        return g
    adj = g.adj
    twin_mask = [0] * n
    for cls in twin_classes(g):
        mask = sum(1 << v for v in cls)
        for v in cls:
            twin_mask[v] = mask
    neighbours = [_mask_nodes(m) for m in adj]
    best: Optional[tuple[int, ...]] = None
    leaves = 0
    stack = [_refine(adj, [(1 << n) - 1])]
    while stack:
        cells = stack.pop()
        split = next(
            (i for i, c in enumerate(cells) if c & ~twin_mask[(c & -c).bit_length() - 1]),
            None,
        )
        if split is None:
            leaves += 1
            if leaves > _CANONICAL_LEAF_CAP:
                return g
            order = [v for c in cells for v in _mask_nodes(c)]
            bit = [0] * n
            for i, v in enumerate(order):
                bit[v] = 1 << i
            relabelled = tuple([sum([bit[w] for w in neighbours[v]]) for v in order])
            if best is None or relabelled < best:
                best = relabelled
            continue
        cell = left = cells[split]
        while left:
            v = (left & -left).bit_length() - 1
            left &= ~twin_mask[v]
            individualized = [1 << v, cell & ~(1 << v)]
            stack.append(_refine(adj, cells[:split] + individualized + cells[split + 1 :]))
    return Graph(best)


def is_connected_graph(g: Graph) -> bool:
    if g.n == 0:
        return False
    return connected_submask(g.adj, (1 << g.n) - 1)


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Subgraph on the masked nodes, relabeled compactly in label order."""
    return Graph(_compress((g.adj[v] for v in _mask_nodes(mask)), mask))


def contraction(g: Graph, removed: int) -> Graph:
    """Graph on the remaining nodes after reconnecting through ``removed``.

    Two surviving nodes become adjacent exactly when they are joined by a
    path whose interior lies in the removed set (a direct edge counts), that
    is, when both touch one connected piece of the removed set: each piece
    turns its surviving neighbours into a clique.  Relabeled compactly in
    label order.
    """
    adj = g.adj
    keep = ((1 << g.n) - 1) & ~removed
    out = list(adj)
    left = removed
    while left:
        piece = _closure(adj, left & -left, removed)
        left ^= piece
        rim = 0
        for w in _mask_nodes(piece):
            rim |= adj[w]
        for u in _mask_nodes(rim & keep):
            out[u] |= rim
    return Graph(_compress((out[u] & ~(1 << u) for u in _mask_nodes(keep)), keep))


def graph_components(g: Graph) -> list[Graph]:
    """Induced subgraphs on the connected components, by smallest node."""
    full = left = (1 << g.n) - 1
    parts = []
    while left:
        part = _closure(g.adj, left & -left, full)
        parts.append(induced_subgraph(g, part))
        left &= ~part
    return parts


def graph_spec(g: Graph) -> str:
    """Canonical ``edges:N:...`` description; inverse of parse_graph_spec."""
    body = ",".join(f"{u}-{v}" for u, v in sorted(g.edges))
    return f"edges:{g.n}:{body}"


def _split_top_level(text: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise GraphSpecError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth:
        raise GraphSpecError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    return parts


def _parse_size(text: str, spec: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise GraphSpecError(f"bad size {text!r} in {spec!r}") from None
    if n < 0:
        raise GraphSpecError(f"negative size in {spec!r}")
    return n


def _node_count(n: int, spec: str) -> int:
    """n itself, once it is known to be within MAX_GROUND."""
    if n > MAX_GROUND:
        raise GraphSpecError(f"{spec!r} has {n} nodes, more than {MAX_GROUND}")
    return n


def parse_graph_spec(spec: str) -> Graph:
    """Parse the graph mini-language.

    Accepted forms: ``complete:N``, ``empty:N``, ``star:N``, ``path:N``,
    ``cycle:N`` (N >= 3), ``bipartite:M,N``, ``edges:N:0-1,1-2,...``
    (0-based labels, possibly no edges) and ``join(SPEC,SPEC)``.  Node
    counts above MAX_GROUND are rejected before any edge is built, and so
    is nesting deeper than _MAX_SPEC_NESTING parentheses.
    """
    depth = 0
    for ch in spec:
        if ch == "(":
            depth += 1
            if depth > _MAX_SPEC_NESTING:
                raise GraphSpecError(
                    f"graph spec nested more than {_MAX_SPEC_NESTING} deep"
                )
        elif ch == ")":
            depth -= 1
    return _parse_spec(spec)


def _parse_spec(spec: str) -> Graph:
    spec = spec.strip()
    if spec.startswith("join(") and spec.endswith(")"):
        inner = _split_top_level(spec[len("join(") : -1])
        if len(inner) != 2:
            raise GraphSpecError(f"join takes two arguments: {spec!r}")
        a, b = _parse_spec(inner[0]), _parse_spec(inner[1])
        _node_count(a.n + b.n, spec)
        return join_graphs(a, b)
    head, _, rest = spec.partition(":")
    if head == "complete":
        return complete_graph(_node_count(_parse_size(rest, spec), spec))
    if head == "empty":
        return empty_graph(_node_count(_parse_size(rest, spec), spec))
    if head == "star":
        leaves = _parse_size(rest, spec)
        _node_count(leaves + 1, spec)
        return star_graph(leaves)
    if head == "path":
        return path_graph(_node_count(_parse_size(rest, spec), spec))
    if head == "cycle":
        n = _node_count(_parse_size(rest, spec), spec)
        if n < 3:
            raise GraphSpecError(f"a cycle needs at least 3 nodes: {spec!r}")
        return cycle_graph(n)
    if head == "bipartite":
        sizes = rest.split(",")
        if len(sizes) != 2:
            raise GraphSpecError(f"bipartite takes two sizes: {spec!r}")
        m, n = _parse_size(sizes[0], spec), _parse_size(sizes[1], spec)
        _node_count(m + n, spec)
        return bipartite_graph(m, n)
    if head == "edges":
        count, _, body = rest.partition(":")
        n = _node_count(_parse_size(count, spec), spec)
        pairs = []
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            ends = item.split("-")
            if len(ends) != 2:
                raise GraphSpecError(f"bad edge {item!r} in {spec!r}")
            pairs.append((_parse_size(ends[0], spec), _parse_size(ends[1], spec)))
        try:
            return graph_from_edges(n, pairs)
        except ValueError as exc:
            raise GraphSpecError(f"{exc} in {spec!r}") from None
    raise GraphSpecError(f"unknown graph spec {spec!r}")


def connected_graphs_upto_iso(max_nodes: int) -> list[Graph]:
    """All connected graphs with 1..max_nodes nodes, one per isomorphism class.

    In the order and labelling of Read and Wilson's graph atlas, which
    covers every graph on up to seven nodes.  The classes come from a
    table committed in ``_atlas``; only node counts up to max_nodes are
    decoded.
    """
    if not 1 <= max_nodes <= 7:
        raise ValueError("the atlas covers 1..7 nodes")
    from ._atlas import CONNECTED

    out = []
    for n in range(1, max_nodes + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for token in CONNECTED[n].split():
            mask = int(token, 36)
            adj = [0] * n
            for u, v in (p for i, p in enumerate(pairs) if mask >> i & 1):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            out.append(Graph(tuple(adj)))
    return out


# ---------------------------------------------------------------------------
# building sets


@dataclass(frozen=True)
class BuildingSet:
    """Members of a building set as bitmasks over positions into ``ground``.

    ``ground`` is a sorted tuple of integer labels; bit p of a member mask
    refers to ``ground[p]``.  Validity (singletons present, unions of
    intersecting members present) is checked by ``validate``, not enforced
    on construction.
    """

    ground: tuple[int, ...]
    sets: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.ground) > MAX_GROUND:
            raise ValueError(f"ground larger than {MAX_GROUND} elements")
        if list(self.ground) != sorted(set(self.ground)):
            raise ValueError("ground labels must be strictly increasing")
        limit = 1 << len(self.ground)
        for m in self.sets:
            if not 0 < m < limit:
                raise ValueError(f"member mask {m} outside the ground")

    def labels_of(self, mask: int) -> tuple[int, ...]:
        return tuple(self.ground[p] for p in _mask_nodes(mask))

    def mask_of(self, labels: Iterable[int]) -> int:
        position = {label: p for p, label in enumerate(self.ground)}
        mask = 0
        for label in labels:
            mask |= 1 << position[label]
        return mask

    @property
    def full_mask(self) -> int:
        return (1 << len(self.ground)) - 1

    def is_connected(self) -> bool:
        """A building set is connected when the whole ground is a member."""
        return self.full_mask in self.sets


def building_set_from_graph(g: Graph) -> BuildingSet:
    """Building set of all node subsets inducing a connected subgraph."""
    if g.n > MAX_GROUND:
        raise ValueError(f"graph larger than {MAX_GROUND} nodes")
    adj = g.adj
    members = [
        mask for mask in range(1, 1 << g.n) if connected_submask(adj, mask)
    ]
    return BuildingSet(tuple(range(g.n)), frozenset(members))


def validate(b: BuildingSet) -> list[str]:
    """All axiom violations, formatted with ground labels; empty means valid."""
    problems = []
    for p, label in enumerate(b.ground):
        if (1 << p) not in b.sets:
            problems.append(f"missing singleton {{{label}}}")
    members = sorted(b.sets)
    present = b.sets
    for a_idx, m1 in enumerate(members):
        for m2 in members[a_idx + 1 :]:
            if m1 & m2 and (m1 | m2) not in present:
                problems.append(
                    f"sets {set(b.labels_of(m1))} and {set(b.labels_of(m2))} "
                    "intersect but their union is missing"
                )
    return problems


def is_valid(b: BuildingSet) -> bool:
    return not validate(b)


def restriction(b: BuildingSet, s: int) -> BuildingSet:
    """Members contained in s, on ground s."""
    ground = b.labels_of(s)
    members = frozenset(_compress((m for m in b.sets if m and (m & ~s) == 0), s))
    return BuildingSet(ground, members)


def removal(b: BuildingSet, s: int) -> BuildingSet:
    """Every member with the elements of s erased, on the remaining ground."""
    keep = b.full_mask & ~s
    ground = b.labels_of(keep)
    members = frozenset(_compress((m for m in b.sets if m & keep), keep))
    return BuildingSet(ground, members)


def components(b: BuildingSet) -> list[BuildingSet]:
    """Restrictions of b to its inclusion-maximal members.

    For a valid building set the maximal members partition the ground, so
    the result is the list of connected components, ordered by their
    smallest label.
    """
    if not b.ground:
        return []
    if b.is_connected():
        return [b]
    maximal: list[int] = []
    for m in sorted(b.sets, key=lambda m: -bin(m).count("1")):
        if not any(m | kept == kept for kept in maximal):
            maximal.append(m)
    maximal.sort(key=lambda m: m & -m)
    return [restriction(b, m) for m in maximal]


def dimension(b: BuildingSet) -> int:
    """Dimension of the nestohedron: ground size minus component count."""
    return len(b.ground) - len(components(b))


def canonical_key(b: BuildingSet) -> bytes:
    """Byte key identifying b up to label-order-preserving relabeling.

    Relabeling the ground to 0..k-1 in label order is exactly the position
    encoding already used, so the key serializes the sorted member masks.
    """
    members = sorted(b.sets)
    return struct.pack("<II", len(b.ground), len(members)) + struct.pack(
        f"<{len(members)}I", *members
    )

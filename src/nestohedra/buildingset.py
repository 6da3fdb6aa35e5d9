"""Graphs on {0..n-1}: constructors, the graph-spec language and the atlas.

A ``Graph`` is its tuple of adjacency masks (bit v of ``adj[u]`` marks the
edge u-v), which every operation reads and the shared memo uses as key.
``graph_from_edges`` is the validating constructor for outside edge lists,
and ``parse_graph_spec`` reads the ``edges:`` specs of the atlas classes
that ``_classes.CONNECTED`` commits, as ``graph_spec`` writes them.

The connected induced subgraphs of a graph are its building set, and the
nested-set recursion (``ringcalc``) reads them straight off node masks:
``_closure`` grows a connected part within a mask, ``_induced_adj``
relabels one compactly, and ``twin_classes`` groups the nodes that every
induced subgraph treats alike.  The building-set definitions themselves
(restriction, removal, validation) are kept in the tests as the witness
these graph operations are checked against.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Sequence

__all__ = [
    "MAX_GROUND",
    "Graph",
    "complete_graph",
    "empty_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "bipartite_graph",
    "join_graphs",
    "graph_from_edges",
    "twin_classes",
    "parse_graph_spec",
    "graph_spec",
]

# Grounds are bitmasks in a Python int, so the cap is soft.  It is not a
# cost bound: the nested-set recursion visits every connected node set of
# a twin-free graph, a time that grows several times per node, while
# twin-rich and sparse graphs at 20 nodes take milliseconds (the README's
# recursion section gives the measured times).
MAX_GROUND = 20
# Deepest join nesting parse_graph_spec accepts; far above any spec within
# MAX_GROUND nodes that does not join empty graphs.
_MAX_SPEC_NESTING = 32


class Graph(namedtuple("Graph", "adj")):
    """Simple undirected graph on nodes 0..n-1, as adjacency masks.

    Bit v of ``adj[u]`` is set when u-v is an edge.  The masks are the whole
    value, so a graph is hashable, and its masks serve as the shared memo's
    key: two graphs are equal exactly when they are the same labelled
    graph.  A graph is the 1-tuple of its masks, so graphs order as their
    masks do.  ``Graph(adj)`` trusts its masks to be symmetric and
    loop-free; ``graph_from_edges`` is the validating constructor.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.adj)


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
    """K_n, from its masks: node v is joined to every node but itself."""
    if n < 0:
        raise ValueError("negative node count")
    full = (1 << n) - 1
    return Graph(tuple(full ^ 1 << v for v in range(n)))


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


def _induced_adj(adj: Sequence[int], mask: int) -> tuple[int, ...]:
    """Adjacency masks of the subgraph on the masked nodes, renumbered in order.

    They key the shared memo of the nested-set recursion.  One pass over
    the runs of set bits in mask lists its nodes and the shift that packs
    each run down onto the runs below it; a mask of one run is a single
    shift.
    """
    low = mask & -mask
    lo = low.bit_length() - 1
    if not mask & (mask + low):
        return tuple([(adj[v] & mask) >> lo for v in range(lo, lo + mask.bit_count())])
    runs = []
    nodes: list[int] = []
    p = 0
    left = mask
    while left:
        low = left & -left
        run = left & ~(left + low)
        lo = low.bit_length() - 1
        k = run.bit_count()
        runs.append((run, lo - p))
        nodes += range(lo, lo + k)
        p += k
        left ^= run
    out = []
    for v in nodes:
        m = adj[v]
        packed = 0
        for run, shift in runs:
            packed |= (m & run) >> shift
        out.append(packed)
    return tuple(out)


def graph_spec(g: Graph) -> str:
    """Canonical ``edges:N:...`` description; inverse of parse_graph_spec."""
    adj, n = g.adj, g.n
    body = ",".join([f"{u}-{v}" for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1])
    return f"edges:{n}:{body}"


def _split_top_level(text: str, spec: str) -> list[str]:
    """A join's inner text cut at its top-level commas.

    The join's one scan of its parentheses, which refuses nesting past
    _MAX_SPEC_NESTING, its own parenthesis counted, before any recursion.
    """
    parts = []
    depth = start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
            if depth >= _MAX_SPEC_NESTING:
                raise ValueError(f"graph spec nested more than {_MAX_SPEC_NESTING} deep")
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
        elif ch == "," and not depth:
            parts.append(text[start:i])
            start = i + 1
    if depth:
        raise ValueError(f"unbalanced parentheses in {spec!r}")
    parts.append(text[start:])
    return parts


def _size(text: str, spec: str, extra: int = 0) -> int:
    """A size or label: ASCII digits, spaces around them ignored, and with
    the extra nodes spec adds (a star's centre, a first part) at most MAX_GROUND."""
    digits = text.strip()
    try:
        n = int(digits) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # more digits than int() converts
        n = None
    if n is None:
        raise ValueError(f"bad size {text!r} in {spec!r}")
    if n + extra > MAX_GROUND:
        raise ValueError(f"{spec!r} has {n + extra} nodes, more than {MAX_GROUND}")
    return n


_SHAPES = {"complete": (complete_graph, 0), "empty": (empty_graph, 0),
           "path": (path_graph, 0), "star": (star_graph, 1)}


def parse_graph_spec(spec: str) -> Graph:
    """Parse the graph mini-language.

    Accepted forms: ``complete:N``, ``empty:N``, ``star:N``, ``path:N``,
    ``cycle:N`` (N >= 3), ``bipartite:M,N``, ``edges:N:0-1,1-2,...``
    (0-based labels, possibly no edges) and ``join(SPEC,SPEC)``.  Sizes
    and labels are ASCII digits; spaces around them and around a join's
    arguments are ignored.  A shape or ``edges:`` spec of more than
    MAX_GROUND nodes is rejected before any edge is built; a join builds
    both parts first, each within the cap, and then refuses their summed
    count before it joins them.  Nesting past _MAX_SPEC_NESTING is rejected too.
    """
    spec = spec.strip()
    if spec.startswith("join(") and spec.endswith(")"):
        parts = _split_top_level(spec[len("join(") : -1], spec)
        if len(parts) != 2:
            raise ValueError(f"join takes two arguments: {spec!r}")
        a, b = map(parse_graph_spec, parts)
        if a.n + b.n > MAX_GROUND:
            raise ValueError(f"{spec!r} has {a.n + b.n} nodes, more than {MAX_GROUND}")
        return join_graphs(a, b)
    head, _, rest = spec.partition(":")
    if head in _SHAPES:
        build, extra = _SHAPES[head]
        return build(_size(rest, spec, extra))
    if head == "cycle":
        n = _size(rest, spec)
        if n < 3:
            raise ValueError(f"a cycle needs at least 3 nodes: {spec!r}")
        return cycle_graph(n)
    if head == "bipartite":
        sizes = rest.split(",")
        if len(sizes) != 2:
            raise ValueError(f"bipartite takes two sizes: {spec!r}")
        m = _size(sizes[0], spec)
        return bipartite_graph(m, _size(sizes[1], spec, m))
    if head == "edges":
        count, _, body = rest.partition(":")
        n = _size(count, spec)
        pairs = []
        for item in filter(None, map(str.strip, body.split(","))):
            ends = item.split("-")
            if len(ends) != 2:
                raise ValueError(f"bad edge {item!r} in {spec!r}")
            pairs.append((_size(ends[0], spec), _size(ends[1], spec)))
        try:
            return graph_from_edges(n, pairs)
        except ValueError as exc:
            raise ValueError(f"{exc} in {spec!r}") from None
    raise ValueError(f"unknown graph spec {spec!r}")

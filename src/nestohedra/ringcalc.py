"""The nested-set recursion: face polynomials of graph nestohedra.

A face of the nestohedron of a connected graph on W is a nested set of
tubes (node sets inducing connected subgraphs) that holds W.  Dropping W
leaves a node set U, a proper subset of W, whose components carry nested
sets of their own (Postnikov, arXiv:math/0507163, section 7; Carr and
Devadoss, arXiv:math/0407229).  So, with F_W the sum of alpha^dim over the
faces, (1 + alpha) F_W is the sum over every U inside W of
alpha^|W - U| times the F of each component of U.  Splitting on whether U
holds a node v of W, and on the component C of v in U, gives

    F_W = S(W - v) + sum over C of F_C alpha^(|N_W(C)| - 1) S(W - C - N_W(C))

over the connected C that hold v, other than W itself.  N_W(C) is the set
of nodes of W outside C with a neighbour in C, and S(X) is the product of
(1 + alpha) F_D over the components D of X, with S of nothing 1.  Every
subproblem is an induced subgraph of the input, so the recursion runs on
node masks of the one graph, and every term is a nonnegative integer.

Twin nodes of a graph (``twin_classes``) stay twins in every induced
subgraph, so F_W depends only on how many nodes W takes from each class.
The memo is keyed on the twin-canonical mask, the first nodes of each
class.  A class is named by its first node, and the classes W meets are
W's first nodes.  ``expand`` takes for v the first node of a class with
the fewest neighbouring classes in W, the lowest of those, since a class
with few neighbouring classes tends to lie in few connected C; W - v is
then W less the last masked node of v's class.  It walks the C inline, one class
at a time through the class quotient, and chooses counts only inside
classes whose second node is in W.  On a twin-free graph this is plain
connected-set extension, with one memo read and one addition per C.

Every face polynomial, product S(X) and partial sum is one int, packed
at W = _WIDTH as the ``algebra`` module docstring describes.  Multiplying
by (1 + alpha) or by alpha^k, adding and convolving are then single
integer operations.  Every coefficient built is a partial sum of the face
counts of a nestohedron on at most MAX_GROUND nodes, so it is at most the
face count of the permutohedron, the ordered Bell number, which stays
below 2^(W-1) and never carries into the next field.  That bound is about
the subproblems, not the graph they sit in: ``induced_fpolys`` reads many
node masks of one graph through one memo, and refuses a mask of more than
MAX_GROUND nodes before it allocates anything, while the graph itself may
be larger: at order 16 ``verify`` reads K_{16,16}, of 32 nodes, and every
mask it reads has at most 17.

A subproblem of at most seven nodes is read from one committed table,
``_classes.CLASSES``, by ``_key``, an int that names its isomorphism
class, in the row of its node count.  The table is committed packed at
W = _WIDTH, so its ints are read as they stand and nothing is converted
at import.  So the formula runs only on eight or more nodes, and a graph
takes its twin classes only once the formula runs on it.  The table
lists the classes of each node count in atlas order, so
``class_face_counts`` reads a whole class scan's face counts by
position, with no graph built and no key.  On eight or more nodes ``FPolyCache`` shares results between
graphs: each subproblem missed by the per-call mask memo is looked up,
and stored, under the adjacency tuple of its labelled induced subgraph.
``induced_fpolys`` is the one function that takes a cache, as ``verify``
shares one across its families.
The recursion takes graphs only: nestohedra of building sets that do not
come from a graph are out of scope.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from ._classes import CLASSES
from .algebra import Poly2, _digits, _egf_inverse
from .buildingset import (
    MAX_GROUND,
    Graph,
    _closure,
    _induced_adj,
    graph_spec,
    twin_classes,
)

__all__ = ["FPolyCache", "class_face_counts", "fpoly", "induced_fpolys"]


# bits per packed coefficient: the largest face count, the ordered Bell
# number (1 / (2 - e^z), the permutohedron's), and a sign bit
_WIDTH = _egf_inverse((0,) + (1,) * MAX_GROUND)[-1].bit_length() + 1
_ONE_PLUS_ALPHA = 1 << _WIDTH | 1


def class_face_counts(n: int) -> list[list[int]]:
    """Face counts f_0 ... f_(n-1) = 1 of the connected classes on n nodes, 1 <= n <= 7.

    One list per class, in the atlas order of ``_classes.CONNECTED[n]``,
    which ``CLASSES[n]`` keeps: read by position, with no key, one
    _WIDTH-bit field per count.
    """
    if not 1 <= n <= 7:
        raise ValueError("the atlas covers 1..7 nodes")
    shifts, field = range(0, _WIDTH * n, _WIDTH), (1 << _WIDTH) - 1
    return [[f >> shift & field for shift in shifts] for f in CLASSES[n].values()]


class FPolyCache(dict):
    """Packed face counts of connected graphs on eight or more nodes.

    A key is the adjacency tuple of a labelled graph, and ``Graph(key)`` is
    that graph; graphs of at most seven nodes are read from ``CLASSES``.
    Shared across ``induced_fpolys`` calls, and so across graphs.
    """

    lookup = dict.get
    store = dict.__setitem__


def _key(adj: tuple[int, ...], mask: int) -> int:
    """The isomorphism class of the connected induced subgraph on mask, 1-7 nodes.

    Each node of degree d in it adds 1 << 4 * d, a histogram of degrees
    with a 4-bit count each, and that is the key when it is a key of
    ``CLASSES[n]``, n the node count: when no other class of n nodes
    shares it.  Otherwise each node v has the code
    deg(v) << 11 | t << 6 | s, where t sums |N(u) & N(v)| over the
    neighbours u of v, twice the triangles at v, and s sums deg(u) over
    them, all inside mask; t is at most 30 and s at most 36, so the fields
    never overlap.  The key is then the sorted codes, 14 bits each, the
    largest lowest.  Only classes of five or more nodes share histograms,
    and their codes lie at or above 2^67, where no histogram reaches, since
    those lie below 2^28.  Both are the same for every labelling, and the
    995 connected classes on 2-7 nodes take 995 keys, which the tests
    check.
    """
    key, left = 0, mask
    while left:
        low = left & -left
        left ^= low
        key += 1 << 4 * (adj[low.bit_length() - 1] & mask).bit_count()
    if key in CLASSES[mask.bit_count()]:
        return key
    codes, left = [], mask
    while left:
        low = left & -left
        left ^= low
        row = rest = adj[low.bit_length() - 1] & mask
        t = s = 0
        while rest:
            u = rest & -rest
            rest ^= u
            r = adj[u.bit_length() - 1] & mask
            t += (r & row).bit_count()
            s += r.bit_count()
        codes.append(row.bit_count() << 11 | t << 6 | s)
    key = 0
    for code in sorted(codes):
        key = key << 14 | code
    return key


class _NestedSets:
    """The recursion on the twin-canonical node masks of one graph.

    A mask is twin-canonical when it holds the first nodes of each twin
    class.  ``expand`` first moves each class's masked nodes onto its
    first ones, which keeps the induced subgraph's class, so the masks it
    builds all are, and so are their components: a component holds every
    masked node of each class it meets, unless the class is independent
    and its node is on its own, which is one node.  So a class is named by
    its first node, the lowest node of a mask is the first node of its
    class, and a class has several nodes in a mask exactly when its second
    node is in it.  The masks asked for from outside may be any.

    Only ``expand`` reads the twin classes, so they and the per-node tables
    built from them wait for its first call.  A graph whose components
    all have at most seven nodes is read from ``CLASSES`` whole and never
    builds them.
    """

    def __init__(self, g: Graph, cache: FPolyCache):
        self.g, self.adj, self.cache = g, g.adj, cache
        self.quotient: list[int] | None = None
        self.memo: dict[int, int] = {}
        self.products: dict[int, int] = {}

    def _twin_tables(self) -> None:
        """The twin classes' first and second nodes, and the per-node tables of ``expand``."""
        g = self.g
        classes = twin_classes(g)
        self.reps = sum(1 << c[0] for c in classes)
        self.seconds = sum(1 << c[1] for c in classes if len(c) > 1)
        # per node, of its class: prefix[v][c], the first c nodes; clique[v];
        # reach[v], the nodes outside it joined to it; quotient[v], their
        # classes' first nodes
        self.prefix: list[list[int]] = [[]] * g.n
        self.clique = [False] * g.n
        self.reach = [0] * g.n
        # the prefix lists of the classes of several nodes, for expand's
        # move of a mask onto each class's first nodes
        self.several: list[list[int]] = []
        for nodes in classes:
            masks = [0]
            for v in nodes:
                masks.append(masks[-1] | 1 << v)
            if len(nodes) > 1:
                self.several.append(masks)
            clique = len(nodes) > 1 and g.adj[nodes[0]] >> nodes[1] & 1
            for v in nodes:
                self.prefix[v], self.clique[v] = masks, clique
                self.reach[v] = g.adj[v] & ~masks[-1]
        self.quotient = [r & self.reps for r in self.reach]

    def face_counts(self, mask: int) -> int:
        """Packed F of a connected mask: memo, tables, shared cache, formula."""
        f = self.memo.get(mask)
        if f is not None:
            return f
        n = mask.bit_count()
        if n <= 7:
            f = CLASSES[n][_key(self.adj, mask)]
        else:
            key = _induced_adj(self.adj, mask)
            f = self.cache.lookup(key)
            if f is None:
                f = self.expand(mask)
                if f >> _WIDTH * (n - 1) != 1:
                    raise ArithmeticError(
                        f"face counts of {graph_spec(Graph(key))} are {_digits(f, _WIDTH)}, "
                        f"not {n} entries ending in 1"
                    )
                self.cache.store(key, f)
        self.memo[mask] = f
        return f

    def components(self, mask: int) -> Iterator[int]:
        left = mask
        while left:
            part = _closure(self.adj, left & -left, mask)
            left ^= part
            yield part

    def components_product(self, mask: int) -> int:
        """Packed S(mask): (1 + alpha) F_D multiplied over the components D."""
        out = self.products.get(mask)
        if out is None:
            out = 1
            for part in self.components(mask):
                out *= _ONE_PLUS_ALPHA * self.face_counts(part)
            self.products[mask] = out
        return out

    def expand(self, mask: int) -> int:
        """The formula for packed F_W, W = mask, before any check.

        W is first made twin-canonical, each class's masked nodes moved
        onto its first ones, which an automorphism does.

        v is the first node of a class with the fewest neighbouring classes
        in W, the lowest such.  Walks the connected C that hold v, one class
        at a time: C grows by one quotient neighbour of its classes, and the
        neighbours tried before it are banned from that branch, so each set
        of classes comes once.  C takes the masked nodes of every class it
        meets; counts are chosen only in classes with several nodes of W.
        """
        if self.quotient is None:
            self._twin_tables()
        for masks in self.several:
            mask = mask & ~masks[-1] | masks[(mask & masks[-1]).bit_count()]
        prefix, reach, quotient, seconds = self.prefix, self.reach, self.quotient, self.seconds
        memo, face_counts = self.memo, self.face_counts
        support = mask & self.reps
        # v: the lowest first node of a class with the fewest neighbouring
        # classes, which are fewer than W's classes
        v, fewest, left = 0, support.bit_count(), support
        while left:
            low = left & -left
            left ^= low
            i = low.bit_length() - 1
            k = (quotient[i] & support).bit_count()
            if k < fewest:
                v, fewest = i, k
        # S(W - v): v is the first node of its class, so drop the class's last
        own = prefix[v]
        w0 = (mask & own[-1]).bit_count()
        out = self.components_product(mask ^ own[w0] ^ own[w0 - 1])
        # per remainder X: the sum of weight * F_C * alpha^(|N_W(C)| - 1)
        sums: dict[int, int] = {}
        # C's masked nodes, the classes left to try, the banned ones, and
        # the nodes joined to C's classes
        stack = [(mask & own[-1], quotient[v] & support, 0, reach[v])]
        while stack:
            part, frontier, banned, joined = stack.pop()
            # classes outside C go whole to N_W(C) (rim, counted) or to X (rest)
            rim = (mask & joined & ~part).bit_count()
            rest = mask & ~(part | joined)
            twins = part & seconds
            if not twins:
                if part != mask:
                    # a packed F is never 0, so `or` falls through only on a memo miss
                    f = memo.get(part) or face_counts(part)
                    sums[rest] = sums.get(rest, 0) + (f << _WIDTH * (rim - 1))
            else:
                # partial terms (C's nodes, the ways to pick them with v among
                # them, |N_W(C)|, X), one per count c in each class of several
                # nodes met so far; C takes the one masked node of each other class
                terms = [(part, 1, rim, rest)]
                while twins:
                    second = twins & -twins
                    twins ^= second
                    i = second.bit_length() - 1
                    masks = prefix[i]
                    w = (mask & masks[-1]).bit_count()
                    # the class's nodes left out of C are joined to C, unless the
                    # class is independent and C lies inside it (then C is one node)
                    to_rim = self.clique[i] or part & support != masks[1]
                    terms = [
                        (
                            c_part ^ masks[w] ^ masks[c],
                            weight * (comb(w - 1, c - 1) if masks is own else comb(w, c)),
                            size + w - c if to_rim else size,
                            left if to_rim else left | masks[w - c],
                        )
                        for c_part, weight, size, left in terms
                        for c in range(1, w + 1 if to_rim else 2)
                    ]
                for c_part, weight, size, left in terms:
                    if c_part != mask:
                        f = memo.get(c_part) or face_counts(c_part)
                        sums[left] = sums.get(left, 0) + (weight * f << _WIDTH * (size - 1))
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                i = low.bit_length() - 1
                grown = part | mask & prefix[i][-1]
                new = quotient[i] & support & ~grown & ~banned
                stack.append((grown, frontier | new, banned, joined | reach[i]))
                banned |= low
        for left, acc in sums.items():
            out += acc * self.components_product(left)
        return out


def induced_fpolys(g: Graph, masks: list[int], cache: FPolyCache | None = None) -> list[Poly2]:
    """Face polynomials of the induced subgraphs of g on the given node masks.

    Each is the product over its mask's components of the nested-set
    recursion's face counts, and every mask runs through one memo, so a
    subproblem that several masks share is solved and keyed once.  Without
    a caller's cache the shared one lives for this call only.  A mask that
    holds a node outside g, or more than MAX_GROUND nodes, raises
    ValueError before anything is built; g itself may have more.  A
    subproblem whose face counts do not have one entry per node, ending in
    the single top face, is the recursion's fault, not the input's, and
    raises ArithmeticError naming that induced subgraph.
    """
    for mask in masks:
        if mask >> g.n:  # a negative mask too: its sign bits run past every node
            raise ValueError(f"mask {mask} holds a node outside the {g.n}-node graph")
        if mask.bit_count() > MAX_GROUND:
            raise ValueError(f"graph larger than {MAX_GROUND} nodes")
    nested = _NestedSets(g, cache if cache is not None else FPolyCache())
    out = []
    for mask in masks:
        f = 1
        for part in nested.components(mask):
            f *= nested.face_counts(part)
        out.append(Poly2.from_coeffs(_digits(f, _WIDTH)))
    return out


def fpoly(g: Graph) -> Poly2:
    """Face polynomial of the nestohedron of g's building set: ``induced_fpolys`` on all of g."""
    return induced_fpolys(g, [(1 << g.n) - 1])[0]

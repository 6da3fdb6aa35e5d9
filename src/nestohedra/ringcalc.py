"""The nested-set recursion: face polynomials of graph nestohedra.

A face of the nestohedron of a connected graph on W is a nested set of
tubes (node sets inducing connected subgraphs) that holds W.  Dropping W
leaves a node set U, a proper subset of W, whose components carry nested
sets of their own (Postnikov, arXiv:math/0507163, section 7; Carr and
Devadoss, arXiv:math/0407229).  So, with F_W the sum of alpha^dim over the
faces, (1 + alpha) F_W is the sum over every U inside W of
alpha^|W - U| times the F of each component of U.  Splitting on whether U
holds the lowest node v of W, and on the component C of v in U, gives

    F_W = S(W - v) + sum over C of F_C alpha^(|N_W(C)| - 1) S(W - C - N_W(C))

over the connected C that hold v, other than W itself.  N_W(C) is the set
of nodes of W outside C with a neighbour in C, and S(X) is the product of
(1 + alpha) F_D over the components D of X, with S of nothing 1.  Every
subproblem is an induced subgraph of the input, so the recursion runs on
node masks of the one graph, and every term is a nonnegative integer.

Twin nodes of a graph (``twin_classes``) stay twins in every induced
subgraph, so F_W depends only on how many nodes W takes from each class.
The memo is keyed on the twin-canonical mask, the first nodes of each
class.  A class is named by its first node, so v is the first node of
its class and the classes W meets are W's first nodes.  ``expand`` walks
the C inline, one class at a time through the class quotient, and
chooses counts only inside classes whose second node is in W.  On a
twin-free graph this is plain connected-set extension, with one memo
read and one addition per C.

Every face polynomial, product S(X) and partial sum is one int, packed
at W = _WIDTH as the ``algebra`` module docstring describes.  Multiplying
by (1 + alpha) or by alpha^k, adding and convolving are then single
integer operations.  Every coefficient built is a partial sum of the face
counts of a nestohedron on at most MAX_GROUND nodes, so it is at most the
face count of the permutohedron, the ordered Bell number, which stays
below 2^(W-1) and never carries into the next field.

``FPolyCache`` shares results between graphs: each subproblem missed by
the per-call mask memo is looked up, and stored, under a key of its induced
subgraph.  Up to five nodes the key is the int ``_shape``, which names the
isomorphism class, so isomorphic subgraphs share whatever their labels;
above five it is the adjacency tuple of the labelled induced subgraph.  The
recursion takes graphs only: nestohedra of building sets that do not come
from a graph are out of scope.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .algebra import Poly2, _digits, _egf_inverse
from .buildingset import (
    MAX_GROUND,
    Graph,
    _closure,
    _induced_adj,
    graph_spec,
    twin_classes,
)

__all__ = ["FPolyCache", "fpoly"]


# bits per packed coefficient: the largest face count, the ordered Bell
# number (1 / (2 - e^z), the permutohedron's), and a sign bit
_WIDTH = _egf_inverse((0,) + (1,) * MAX_GROUND)[-1].bit_length() + 1
_ONE_PLUS_ALPHA = 1 << _WIDTH | 1


class FPolyCache(dict):
    """Packed face counts of connected graphs, under two kinds of key.

    An int key is the ``_shape`` of a graph on 2-5 nodes, one per
    isomorphism class; a tuple key is the adjacency tuple of a labelled
    graph on six or more, and ``Graph(key)`` is that graph.  Shared across
    ``fpoly`` calls.
    """

    lookup = dict.get
    store = dict.__setitem__


def _shape(adj: tuple[int, ...], mask: int) -> int:
    """The isomorphism class of the connected induced subgraph on mask, 2-5 nodes.

    Each node of degree d in it adds 1 << 4 * d, a histogram of degrees
    with a 4-bit count each; on five nodes the sum over nodes v and their
    neighbours u of |N(u) & N(v)|, six times the triangle count, goes above
    it at bit 24.  The degrees tell apart the connected graphs on 2-4
    nodes; on five nodes two pairs share degrees, a triangle with a
    two-edge tail and a 4-cycle with a pendant, and the house and K_{2,3},
    and the triangles tell each pair apart.  So the 771 labelled connected
    graphs on 2-5 nodes take 30 shapes, one per class, which the tests
    check against a canonical form.
    """
    five = mask.bit_count() == 5
    shape, left = 0, mask
    while left:
        low = left & -left
        left ^= low
        row = adj[low.bit_length() - 1] & mask
        shape += 1 << 4 * row.bit_count()
        if five:
            rest = row
            while rest:
                u = rest & -rest
                rest ^= u
                shape += (adj[u.bit_length() - 1] & row).bit_count() << 24
    return shape


class _NestedSets:
    """The recursion on the twin-canonical node masks of one graph.

    A mask is twin-canonical when it holds the first nodes of each twin
    class.  The masks built below all are, and so are their components: a
    component holds every masked node of each class it meets, unless the
    class is independent and its node is on its own, which is one node.
    So a class is named by its first node, the lowest node of a mask is
    the first node of its class, and a class has several nodes in a mask
    exactly when its second node is in it.
    """

    def __init__(self, g: Graph, cache: FPolyCache):
        self.adj, self.cache = g.adj, cache
        classes = twin_classes(g)
        self.reps = sum(1 << c[0] for c in classes)
        self.seconds = sum(1 << c[1] for c in classes if len(c) > 1)
        # per node, of its class: prefix[v][c], the first c nodes; clique[v];
        # reach[v], the nodes outside it joined to it; quotient[v], their
        # classes' first nodes
        self.prefix: list[list[int]] = [[]] * g.n
        self.clique = [False] * g.n
        self.reach = [0] * g.n
        for nodes in classes:
            masks = [0]
            for v in nodes:
                masks.append(masks[-1] | 1 << v)
            clique = len(nodes) > 1 and g.adj[nodes[0]] >> nodes[1] & 1
            for v in nodes:
                self.prefix[v], self.clique[v] = masks, clique
                self.reach[v] = g.adj[v] & ~masks[-1]
        self.quotient = [r & self.reps for r in self.reach]
        self.memo: dict[int, int] = {}
        self.products: dict[int, int] = {}

    def face_counts(self, mask: int) -> int:
        """Packed F of a connected twin-canonical mask: memo, shared cache, formula."""
        f = self.memo.get(mask)
        if f is not None:
            return f
        if not mask & (mask - 1):
            return 1
        n = mask.bit_count()
        key = _shape(self.adj, mask) if n <= 5 else _induced_adj(self.adj, mask)
        f = self.cache.lookup(key)
        if f is None:
            f = self.expand(mask)
            if f >> _WIDTH * (n - 1) != 1:
                labelled = Graph(_induced_adj(self.adj, mask))
                raise ArithmeticError(
                    f"face counts of {graph_spec(labelled)} are {_digits(f, _WIDTH)}, "
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

        Walks the connected C that hold v = the lowest node of W, one class
        at a time: C grows by one quotient neighbour of its classes, and the
        neighbours tried before it are banned from that branch, so each set
        of classes comes once.  C takes the masked nodes of every class it
        meets; counts are chosen only in classes with several nodes of W.
        """
        prefix, reach, quotient, seconds = self.prefix, self.reach, self.quotient, self.seconds
        memo, face_counts = self.memo, self.face_counts
        v = (mask & -mask).bit_length() - 1
        # S(W - v): v is the first node of its class, so drop the class's last
        own = prefix[v]
        w0 = (mask & own[-1]).bit_count()
        out = self.components_product(mask ^ own[w0] ^ own[w0 - 1])
        support = mask & self.reps
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


def fpoly(g: Graph, cache: FPolyCache | None = None) -> Poly2:
    """Face polynomial of the nestohedron of a graph's building set.

    The product over the components of the nested-set recursion's face
    counts; without a caller's cache the shared memo lives for this call
    only.  Graphs with more than MAX_GROUND nodes raise ValueError.  A
    subproblem whose face counts do not have one entry per node, ending in
    the single top face, is the recursion's fault, not the input's, and
    raises ArithmeticError naming that induced subgraph.
    """
    if g.n > MAX_GROUND:
        raise ValueError(f"graph larger than {MAX_GROUND} nodes")
    nested = _NestedSets(g, cache if cache is not None else FPolyCache())
    f = 1
    for part in nested.components((1 << g.n) - 1):
        f *= nested.face_counts(part)
    return Poly2.from_coeffs(_digits(f, _WIDTH))

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
class, and C is grown one class at a time through the class quotient,
with counts chosen only inside classes of two or more nodes of W.  On a
twin-free graph this is plain connected-set extension.

``FPolyCache`` shares results between graphs: each subproblem missed by
the per-call mask memo is looked up, and stored, under its labelled
induced subgraph.  The recursion takes graphs only: nestohedra of building
sets that do not come from a graph are out of scope.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Iterator, Optional

from .algebra import Poly2
from .buildingset import (
    MAX_GROUND,
    Graph,
    _closure,
    _mask_nodes,
    graph_spec,
    induced_subgraph,
    twin_classes,
)

__all__ = ["FPolyCache", "fpoly"]

Coeffs = tuple[int, ...]  # entry i counts the faces of dimension i


class FPolyCache:
    """Face polynomials keyed on labelled graphs, shared across ``fpoly`` calls."""

    def __init__(self) -> None:
        self._polys: dict[Graph, Poly2] = {}

    def lookup(self, g: Graph) -> Optional[Poly2]:
        return self._polys.get(g)

    def store(self, g: Graph, value: Poly2) -> None:
        self._polys[g] = value

    def __len__(self) -> int:
        return len(self._polys)


class _NestedSets:
    """The recursion on the twin-canonical node masks of one graph.

    A mask is twin-canonical when it holds the first nodes of each twin
    class.  The masks built below all are, and so are their components: a
    component holds every masked node of each class it meets, unless the
    class is independent and its node is on its own, which is one node.
    """

    def __init__(self, g: Graph, cache: FPolyCache):
        self.g, self.cache = g, cache
        classes = twin_classes(g)
        self.node_class = [0] * g.n
        # prefix[i][c]: the first c nodes of class i
        self.prefix: list[list[int]] = []
        for i, nodes in enumerate(classes):
            masks = [0]
            for v in nodes:
                masks.append(masks[-1] | 1 << v)
                self.node_class[v] = i
            self.prefix.append(masks)
        self.clique = [len(c) > 1 and g.adj[c[0]] >> c[1] & 1 for c in classes]
        # reach[i]: the nodes outside class i joined to it; quotient[i]: their classes
        self.reach = [g.adj[c[0]] & ~p[-1] for c, p in zip(classes, self.prefix)]
        self.quotient = [
            sum(1 << i for i, p in enumerate(self.prefix) if r & p[1]) for r in self.reach
        ]
        self.memo: dict[int, Coeffs] = {}
        self.products: dict[int, list[int]] = {}

    def face_counts(self, mask: int) -> Coeffs:
        """F of a connected twin-canonical mask: memo, shared cache, formula."""
        f = self.memo.get(mask)
        if f is not None:
            return f
        if not mask & (mask - 1):
            return (1,)
        sub = induced_subgraph(self.g, mask)
        cached = self.cache.lookup(sub)
        if cached is not None:
            f = cached.coeffs
        else:
            f = self.expand(mask)
            n = mask.bit_count()
            if len(f) != n or f[-1] != 1:
                raise ArithmeticError(
                    f"face counts of {graph_spec(sub)} are {list(f)}, "
                    f"not {n} entries ending in 1"
                )
            self.cache.store(sub, Poly2.from_coeffs(f))
        self.memo[mask] = f
        return f

    def components(self, mask: int) -> Iterator[int]:
        left = mask
        while left:
            part = _closure(self.g.adj, left & -left, mask)
            left ^= part
            yield part

    def components_product(self, mask: int) -> list[int]:
        """S(mask): (1 + alpha) F_D multiplied over the components D."""
        out = self.products.get(mask)
        if out is None:
            out = [1]
            for part in self.components(mask):
                out = _convolve(_convolve(out, (1, 1)), self.face_counts(part))
            self.products[mask] = out
        return out

    def expand(self, mask: int) -> Coeffs:
        """The formula for F_W, W = mask, before any check."""
        prefix = self.prefix
        counts = [(mask & p[-1]).bit_count() for p in prefix]
        first = self.node_class[(mask & -mask).bit_length() - 1]
        w0 = counts[first]
        # S(W - v): v is the first node of its class, so drop the class's last
        out = list(self.components_product(mask ^ prefix[first][w0] ^ prefix[first][w0 - 1]))
        support = sum(1 << i for i, w in enumerate(counts) if w)
        multi = sum(1 << i for i, w in enumerate(counts) if w > 1)
        # per remainder X: the sum of weight * F_C * alpha^(|N_W(C)| - 1)
        sums: dict[int, list[int]] = {}
        for classes, nodes, reach in self.supports(first, support):
            # classes outside the support go whole to N_W(C) (rim, counted)
            # or to X (rest); C takes the one node of each class holding one
            outside = mask & ~nodes
            rim, rest = (outside & reach).bit_count(), outside & ~reach
            fixed = mask & nodes
            # per class of several nodes, per count c: C's nodes, the ways to
            # pick them with v among them, and what is left to N_W(C) and X
            choices = []
            for i in _mask_nodes(classes & multi):
                w = counts[i]
                fixed &= ~prefix[i][w]
                # the class's nodes left out of C are joined to C, unless the
                # class is independent and C lies inside it (then C is one node)
                to_rim = self.clique[i] or classes != 1 << i
                choices.append([
                    (
                        prefix[i][c],
                        comb(w - 1, c - 1) if i == first else comb(w, c),
                        w - c if to_rim else 0,
                        0 if to_rim else prefix[i][w - c],
                    )
                    for c in range(1, w + 1 if to_rim else 2)
                ])
            for picks in product(*choices):
                part, weight, size, left = fixed, 1, rim, rest
                for bits, ways, rim_add, rest_add in picks:
                    part |= bits
                    weight *= ways
                    size += rim_add
                    left |= rest_add
                if part != mask:
                    acc = sums.get(left)
                    if acc is None:
                        acc = sums[left] = [0] * (len(out) - left.bit_count() - 1)
                    for k, c in enumerate(self.face_counts(part), size - 1):
                        acc[k] += weight * c
        for left, acc in sums.items():
            for k, c in enumerate(_convolve(acc, self.components_product(left))):
                out[k] += c
        return tuple(out)

    def supports(self, first: int, allowed: int):
        """The connected class sets inside ``allowed`` that hold ``first``, once each.

        Yields each with its nodes and the nodes outside it joined to it.
        Extension search: a set grows by one quotient neighbour at a time,
        and the neighbours tried before it are banned from that branch.
        """
        quotient, reach = self.quotient, self.reach
        stack = [(1 << first, quotient[first] & allowed, 0, self.prefix[first][-1], reach[first])]
        while stack:
            grown, frontier, banned, nodes, joined = stack.pop()
            yield grown, nodes, joined
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                i = low.bit_length() - 1
                new = quotient[i] & allowed & ~grown & ~banned & ~low
                stack.append((
                    grown | low, frontier | new, banned,
                    nodes | self.prefix[i][-1], joined | reach[i],
                ))
                banned |= low


def _convolve(p, q) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
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
    f = [1]
    for part in nested.components((1 << g.n) - 1):
        f = _convolve(f, nested.face_counts(part))
    return Poly2.from_coeffs(f)

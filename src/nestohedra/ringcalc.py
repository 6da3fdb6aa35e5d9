"""The facet recursion: boundaries of graph nestohedra and their face polynomials.

For the building set of a connected graph g, the boundary of the
nestohedron decomposes, facet by facet, as the sum over proper node subsets
S that induce a connected subgraph of the product of two smaller graph
nestohedra: the one of the induced subgraph on S (the restriction of the
building set to S) and the one of the contraction of g through S (the
removal of S).  ``boundary`` records that sum as a ``PolyExpr``: a term is
a sorted tuple of graphs (the product of their nestohedra), point factors
are dropped since a point is the multiplicative identity, and the empty
product therefore denotes the point itself.

Swapping twin nodes (same neighbours apart from each other) is an
automorphism, so subsets that take equally many nodes from each twin class
give isomorphic facets.  ``boundary`` visits one representative subset per
such orbit and weights its facet by the orbit size, so it does polynomial
work on complete, star and complete bipartite graphs and on the many twins
that contractions create, and the same 2^n subsets as a plain sweep on
twin-free graphs.  The representative fixes the labelling of the factors,
so a term's graph is one labelled copy of its facet class.

Integrating the boundary's face polynomial in t and pinning the t-free
coefficient to alpha^n recovers the face polynomial of the polytope, which
is what ``fpoly`` computes, memoized across the whole recursion on each
labelled graph and on its canonical relabelling (``canonical_graph``), so
the boundary is computed once per isomorphism class.

The recursion takes graphs only: nestohedra of building sets that do not
come from a graph are out of scope.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .algebra import Poly2, exact_div, homogeneous_degree
from .buildingset import (
    MAX_GROUND,
    Graph,
    canonical_graph,
    connected_subset_orbits,
    contraction,
    graph_components,
    graph_spec,
    induced_subgraph,
    is_connected_graph,
)

__all__ = [
    "PolyExpr",
    "boundary",
    "integrate_t",
    "FPolyCache",
    "fpoly",
]

Product = tuple[Graph, ...]


class PolyExpr:
    """Integer combination of products of connected graph nestohedra."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Product, int]):
        acc: dict[Product, int] = {}
        for product, c in terms.items():
            product = tuple(sorted(product))
            acc[product] = acc.get(product, 0) + c
        self._terms = {p: c for p, c in acc.items() if c}

    def terms(self) -> list[tuple[Product, int]]:
        return sorted(self._terms.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyExpr):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "PolyExpr") -> "PolyExpr":
        out = dict(self._terms)
        for p, c in other._terms.items():
            out[p] = out.get(p, 0) + c
        return PolyExpr(out)

    def total_mass(self) -> int:
        """Sum of all coefficients; counts facets when terms came from a boundary."""
        return sum(self._terms.values())


def boundary(g: Graph) -> PolyExpr:
    """Facet decomposition of the nestohedron of a connected graph.

    One facet per proper node subset S inducing a connected subgraph: the
    induced subgraph on S times the contraction through S.  The subsets are
    taken up to permutations inside the twin classes
    (``connected_subset_orbits``): each orbit's representative S contributes
    its facet with the orbit size as multiplicity, so the total mass still
    counts every facet.  A product holds the facet's factors as graphs,
    point factors dropped.  The point (one node) has no facets and maps to
    zero.
    """
    if not is_connected_graph(g):
        raise ValueError("boundary needs a connected graph")
    counts: dict[Product, int] = {}
    for s, size in connected_subset_orbits(g):
        facet = (induced_subgraph(g, s), contraction(g, s))
        product = tuple(f for f in facet if f.n > 1)
        counts[product] = counts.get(product, 0) + size
    return PolyExpr(counts)


def integrate_t(g: Poly2, n: int) -> Poly2:
    """Solve dF/dt = g for the degree-n face polynomial with F|_{t=0} = alpha^n.

    g must be homogeneous of degree n-1, or zero when n = 0 (the point).
    Face counts are integers, so a coefficient of g whose integral is not an
    integer means the boundary was wrong and raises ``ArithmeticError``.
    """
    if n < 0:
        raise ValueError("negative dimension")
    if g.is_zero():
        if n == 0:
            return Poly2.one()
        raise ValueError(f"zero boundary polynomial for dimension {n}")
    degree = homogeneous_degree(g)
    if degree != n - 1:
        raise ValueError(f"boundary polynomial has degree {degree}, expected {n - 1}")
    # alpha^i t^(n-1-i) integrates to alpha^i t^(n-i) / (n-i)
    return Poly2.from_coeffs(
        [exact_div(c, n - i) for i, c in enumerate(g.coeffs)] + [1]
    )


class FPolyCache:
    """Memo table for the face-polynomial recursion, keyed on graphs.

    ``fpoly`` stores each value under every labelled graph it was asked
    for and under their shared canonical relabelling.  The face polynomial
    does not depend on the labelling, so any key isomorphic to the graph is
    exact.
    """

    def __init__(self) -> None:
        self._polys: dict[Graph, Poly2] = {}

    def lookup(self, g: Graph) -> Optional[Poly2]:
        return self._polys.get(g)

    def store(self, g: Graph, value: Poly2) -> None:
        self._polys[g] = value

    def __len__(self) -> int:
        return len(self._polys)


def fpoly(g: Graph, cache: FPolyCache | None = None) -> Poly2:
    """Face polynomial of the nestohedron of a graph's building set.

    Disconnected graphs give the product over components.  Connected ones
    recurse through the facet decomposition: integrate the boundary's face
    polynomial in t and pin the t-free part to alpha^(n-1).  A graph found
    in the memo neither as labelled nor as its canonical relabelling has
    its own boundary computed, so errors name the graph as the caller
    labelled it.  Without a caller's cache the memo lives for this call
    only.  Graphs with more than MAX_GROUND nodes raise ValueError.  A
    boundary whose terms mix degrees, has the wrong degree or does not
    integrate to integer face counts is the recursion's fault, not the
    input's, and raises ArithmeticError naming the graph.
    """
    if g.n > MAX_GROUND:
        raise ValueError(f"graph larger than {MAX_GROUND} nodes")
    cache = cache if cache is not None else FPolyCache()
    if not is_connected_graph(g):
        out = Poly2.one()
        for part in graph_components(g):
            out = out * fpoly(part, cache)
        return out
    if g.n == 1:
        return Poly2.one()
    cached = cache.lookup(g)
    if cached is not None:
        return cached
    key = canonical_graph(g)
    cached = cache.lookup(key)
    if cached is not None:
        cache.store(g, cached)
        return cached
    terms = []
    for product, c in boundary(g).terms():
        term = Poly2.constant(c)
        for factor in product:
            term = term * fpoly(factor, cache)
        terms.append(term)
    try:
        value = integrate_t(sum(terms, Poly2.zero()), g.n - 1)
    except (ArithmeticError, ValueError) as exc:
        raise ArithmeticError(f"integrating the boundary of {graph_spec(g)}: {exc}") from exc
    cache.store(g, value)
    cache.store(key, value)
    return value


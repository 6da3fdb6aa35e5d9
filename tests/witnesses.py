"""Brute-force witnesses shared by the facet-recursion tests.

A facet product is a tuple of graphs.  These helpers build products from
graphs and from building sets, and compare sums of them factor by
isomorphism class, under a canonical form found by trying every
relabelling (fine for the <= 7-node factors the tests use).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from nestohedra.buildingset import (
    BuildingSet,
    Graph,
    graph_from_edges,
    removal,
    restriction,
)
from nestohedra.ringcalc import PolyExpr


def term_of(graphs: list[Graph], c: int = 1) -> PolyExpr:
    """c times the product of the graphs' nestohedra; single nodes drop out."""
    return PolyExpr({tuple(g for g in graphs if g.n > 1): c})


def graph_of(b: BuildingSet) -> Graph:
    """The graph a graphical building set comes from: its 2-element members."""
    edges = []
    for m in b.sets:
        if bin(m).count("1") == 2:
            low = m & -m
            edges.append((low.bit_length() - 1, (m ^ low).bit_length() - 1))
    return graph_from_edges(len(b.ground), edges)


def facets_from_building_set(b: BuildingSet) -> PolyExpr:
    """restriction(b, S) x removal(b, S) over the proper members S, as graphs."""
    facets: dict = {}
    for s in b.sets - {b.full_mask}:
        factors = (graph_of(restriction(b, s)), graph_of(removal(b, s)))
        product = tuple(f for f in factors if f.n > 1)
        facets[product] = facets.get(product, 0) + 1
    return PolyExpr(facets)


@lru_cache(maxsize=None)
def canonical(g: Graph) -> Graph:
    """Least relabelled copy of g over every node permutation: one per class."""
    return min(
        graph_from_edges(g.n, ((p[u], p[v]) for u, v in g.edges))
        for p in permutations(range(g.n))
    )


def up_to_iso(e: PolyExpr) -> dict:
    """The terms of e with every factor replaced by its isomorphism class."""
    out: dict = {}
    for product, c in e.terms():
        classes = tuple(sorted(canonical(g) for g in product))
        out[classes] = out.get(classes, 0) + c
    return out

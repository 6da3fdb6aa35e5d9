"""Brute-force witnesses shared by the tests.

A facet product is a tuple of graphs.  These helpers build products from
graphs and from building sets, and compare sums of them factor by
isomorphism class, under a canonical form found by trying every
relabelling (fine for the <= 7-node factors the tests use).

The sparse polynomial arithmetic at the end is the reference for the dense
``Poly2``: a polynomial is a dict from exponent pairs (i, j) to nonzero
coefficients of alpha^i t^j, with no notion of degree.  On top of it, the
raw series arithmetic is the reference for ``Series2``: it multiplies and
inverts the plain coefficients [x^k y^l] as ordinary power series over
``Fraction``, with no binomial weights and no notion of degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

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


# ---------------------------------------------------------------------------
# sparse polynomial arithmetic

Sparse = dict  # (i, j) -> nonzero coefficient of alpha^i t^j


def _pruned(terms: dict) -> Sparse:
    return {e: c for e, c in terms.items() if c}


def sparse_add(p: Sparse, q: Sparse) -> Sparse:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return _pruned(out)


def sparse_neg(p: Sparse) -> Sparse:
    return {e: -c for e, c in p.items()}


def sparse_mul(p: Sparse, q: Sparse) -> Sparse:
    out: dict = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return _pruned(out)


def sparse_deriv_t(p: Sparse) -> Sparse:
    return _pruned({(i, j - 1): c * j for (i, j), c in p.items() if j})


def sparse_h_from_f(p: Sparse) -> Sparse:
    """alpha -> alpha - t, expanded term by term with binomial coefficients."""
    out: dict = {}
    for (i, j), c in p.items():
        for k in range(i + 1):
            e = (k, i - k + j)
            out[e] = out.get(e, 0) + c * comb(i, k) * (-1) ** (i - k)
    return _pruned(out)


def sparse_integrate_t(g: Sparse, n: int) -> Sparse:
    """The F with dF/dt = g and F|_{t=0} = alpha^n; ArithmeticError off the integers."""
    out = {}
    for (i, j), c in g.items():
        q = Fraction(c) / (j + 1)
        if q.denominator != 1:
            raise ArithmeticError(f"{c} is not divisible by {j + 1}")
        out[(i, j + 1)] = q
    out[(n, 0)] = 1
    return out


def sparse_gamma_basis(i: int, n: int) -> Sparse:
    """(alpha t)^i (alpha + t)^(n - 2i) as a product of sparse factors."""
    out = {(0, 0): 1}
    for _ in range(i):
        out = sparse_mul(out, {(1, 1): 1})
    for _ in range(n - 2 * i):
        out = sparse_mul(out, {(1, 0): 1, (0, 1): 1})
    return out


def sparse_h_from_gamma(n: int, gammas) -> Sparse:
    out: Sparse = {}
    for i, g in enumerate(gammas):
        out = sparse_add(out, {e: g * c for e, c in sparse_gamma_basis(i, n).items()})
    return out


def sparse_gamma_from_h(p: Sparse, n: int) -> list:
    """Peel the basis off a symmetric degree-n polynomial, highest alpha first."""
    residual = dict(p)
    gammas = []
    for i in range(n // 2 + 1):
        g = residual.get((n - i, i), 0)
        gammas.append(g)
        basis = sparse_gamma_basis(i, n)
        residual = sparse_add(residual, {e: -g * c for e, c in basis.items()})
    if residual:
        raise ArithmeticError(f"residual {residual}")
    return gammas


# ---------------------------------------------------------------------------
# raw series arithmetic

Raw = dict  # (k, l) -> nonzero sparse polynomial, the plain [x^k y^l]


def raw_from_series(s) -> Raw:
    """The plain coefficients of a Series2: each stored slot over k! l!."""
    return {
        (k, l): {e: Fraction(c) / (factorial(k) * factorial(l)) for e, c in p.terms()}
        for (k, l), p in s.items()
    }


def raw_mul(a: Raw, b: Raw, order: int) -> Raw:
    """The ordinary product of two series in x and y, truncated at total degree order."""
    out: dict = {}
    for (k1, l1), p in a.items():
        for (k2, l2), q in b.items():
            if k1 + k2 + l1 + l2 <= order:
                slot = (k1 + k2, l1 + l2)
                out[slot] = sparse_add(out.get(slot, {}), sparse_mul(p, q))
    return {slot: p for slot, p in out.items() if p}


def raw_inv(a: Raw, order: int) -> Raw:
    """1 / a for a constant coefficient 1: b[k,l] = -sum a[k1,l1] b[k-k1,l-l1]."""
    assert a.get((0, 0)) == {(0, 0): 1}
    out: Raw = {(0, 0): {(0, 0): Fraction(1)}}
    for degree in range(1, order + 1):
        for k in range(degree + 1):
            l = degree - k
            acc: Sparse = {}
            for (k1, l1), p in a.items():
                rest = out.get((k - k1, l - l1))
                if (k1, l1) != (0, 0) and rest is not None:
                    acc = sparse_add(acc, sparse_neg(sparse_mul(p, rest)))
            if acc:
                out[(k, l)] = acc
    return out

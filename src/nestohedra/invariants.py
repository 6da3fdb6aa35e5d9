"""Face vectors, h-polynomials, gamma vectors, and nonnegativity scans.

For a simple polytope the h-polynomial is symmetric (Dehn-Sommerville), so
it has a gamma vector; a polytope or series coefficient "passes" when every
gamma entry is nonnegative.  ``gal_check_poly`` is the one check: it
returns the gamma vector of one polynomial, which reports its own first
negative entry, and it raises on a polynomial that has no gamma vector.
``gal_check_series`` runs it on the h-polynomial of every coefficient of a
family's face series.
A negative entry is a finding; a missing gamma vector is a fault.
"""

from __future__ import annotations

from .algebra import (
    GammaVector,
    Poly2,
    gamma_from_h,
    h_from_f,
    homogeneous_degree,
)
from .buildingset import Graph
from .ringcalc import FPolyCache, fpoly
from .series import FamilySpec, Series2, _family

__all__ = [
    "fvector",
    "hpoly",
    "gamma",
    "gal_check_poly",
    "gal_check_series",
]


def fvector(g: Graph, cache: FPolyCache | None = None) -> list[int]:
    """Face counts by dimension; the last entry (the polytope itself) is 1."""
    return list(fpoly(g, cache).coeffs)


def hpoly(g: Graph, cache: FPolyCache | None = None) -> Poly2:
    return h_from_f(fpoly(g, cache))


def gamma(g: Graph, cache: FPolyCache | None = None) -> GammaVector:
    return gamma_from_h(hpoly(g, cache))


def gal_check_poly(p: Poly2, n: int) -> GammaVector:
    """The gamma vector of a symmetric homogeneous degree-n polynomial.

    A polynomial with no gamma vector (zero, of another degree, or not
    symmetric) raises ``ValueError``, and a gamma extraction that leaves a
    residual raises ``ArithmeticError``; a negative gamma entry is a
    finding, which the vector reports as its ``first_negative``.
    """
    degree = homogeneous_degree(p)
    if degree != n:
        raise ValueError(f"expected degree {n}, got {degree}")
    return gamma_from_h(p)


def gal_check_series(
    series_f: Series2, fam: "FamilySpec | str"
) -> dict[tuple[int, int], GammaVector]:
    """``gal_check_poly`` on the h-polynomial of each family coefficient of a face series.

    Returns, for each family index (k, l) with k + l <= series_f.order in
    index order, the gamma vector of h_from_f of the stored coefficient
    k! l! [x^k y^l], checked against the family dimension.  Only those
    slots are decoded, each once.  Every coefficient of a family's
    h-series has a gamma vector, so one without, or a slot that does not
    decode, is the series' failure, not bad input: it raises
    ``ArithmeticError`` naming the family and index.
    """
    spec = _family(fam)
    results: dict[tuple[int, int], GammaVector] = {}
    for k, l in spec.indices(series_f.order):
        try:
            results[(k, l)] = gal_check_poly(h_from_f(series_f.coeff(k, l)), spec.dim(k, l))
        except (ValueError, ArithmeticError) as exc:
            raise ArithmeticError(f"h-series of {spec.id} at ({k}, {l}): {exc}") from exc
    return results

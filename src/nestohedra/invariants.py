"""Face vectors, h-polynomials, gamma vectors, and nonnegativity scans.

For a simple polytope the h-polynomial is symmetric (Dehn-Sommerville), so
it has a gamma vector; a polytope or series coefficient "passes" when every
gamma entry is nonnegative.  ``gal_check_poly`` decides that for one
polynomial, ``gal_check_series`` sweeps a family's h-series and aggregates
violations of nonvanishing, symmetry, homogeneity and gamma nonnegativity
per index.
"""

from __future__ import annotations

from typing import Optional

from ._record import Record
from .algebra import (
    GammaVector,
    Poly2,
    gamma_from_h,
    h_from_f,
    homogeneous_degree,
    is_symmetric,
)
from .buildingset import Graph
from .ringcalc import FPolyCache, fpoly
from .series import FamilySpec, Series2, _family

__all__ = [
    "fvector",
    "hpoly",
    "gamma",
    "dehn_sommerville",
    "euler_relation_holds",
    "GalPolyResult",
    "gal_check_poly",
    "ScanViolation",
    "SeriesScanReport",
    "gal_check_series",
]


def fvector(g: Graph, cache: FPolyCache | None = None) -> list[int]:
    """Face counts by dimension; the last entry (the polytope itself) is 1."""
    return list(fpoly(g, cache).coeffs)


def hpoly(g: Graph, cache: FPolyCache | None = None) -> Poly2:
    return h_from_f(fpoly(g, cache))


def gamma(g: Graph, cache: FPolyCache | None = None) -> GammaVector:
    return gamma_from_h(hpoly(g, cache))


def dehn_sommerville(g: Graph, cache: FPolyCache | None = None) -> bool:
    """Symmetry of the h-polynomial."""
    return is_symmetric(hpoly(g, cache))


def euler_relation_holds(face_counts: list[int]) -> bool:
    """Alternating codimension sum: sum_i (-1)^(n-i) f_i = (-1)^n."""
    n = len(face_counts) - 1
    total = sum((-1) ** (n - i) * f for i, f in enumerate(face_counts))
    return total == (-1) ** n


class GalPolyResult(Record):
    __slots__ = ("passed", "gammas", "first_negative")

    def __init__(
        self,
        passed: bool,
        gammas: GammaVector,
        first_negative: Optional[tuple[int, int]],
    ):
        self._set(passed, gammas, first_negative)


def gal_check_poly(p: Poly2, n: int) -> GalPolyResult:
    """Gamma-nonnegativity of a symmetric homogeneous degree-n polynomial.

    Asymmetric or wrong-degree input is a caller error and raises; a
    negative gamma entry is a finding and is reported in the result.
    """
    degree = homogeneous_degree(p)
    if degree != n:
        raise ValueError(f"expected degree {n}, got {degree}")
    if not is_symmetric(p):
        raise ValueError(f"not symmetric in alpha and t: {p}")
    gv = gamma_from_h(p)
    for i, g in enumerate(gv.gammas):
        if g < 0:
            return GalPolyResult(passed=False, gammas=gv, first_negative=(i, g))
    return GalPolyResult(passed=True, gammas=gv, first_negative=None)


class ScanViolation(Record):
    __slots__ = ("index", "condition", "witness")

    def __init__(self, index: tuple[int, int], condition: str, witness: str):
        self._set(index, condition, witness)

    def to_json_obj(self) -> dict[str, object]:
        return {
            "k": self.index[0],
            "l": self.index[1],
            "condition": self.condition,
            "witness": self.witness,
        }


class SeriesScanReport(Record):
    """One family's scan: its violations and the gamma vectors it read off."""

    __slots__ = ("family", "order", "checked", "violations", "gammas")

    def __init__(
        self,
        family: str,
        order: int,
        checked: int,
        violations: tuple[ScanViolation, ...],
        gammas: dict[tuple[int, int], GammaVector],
    ):
        self._set(family, order, checked, tuple(violations), gammas)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict[str, object]:
        return {
            "family": self.family,
            "order": self.order,
            "checked": self.checked,
            "violations": [v.to_json_obj() for v in self.violations],
        }


def gal_check_series(series_h: Series2, fam: "FamilySpec | str") -> SeriesScanReport:
    """Sweep a family's h-series up to its order and collect per-index violations.

    At each family index (k, l) with k + l <= series_h.order the series'
    stored coefficient, k! l! [x^k y^l], is checked for: being nonzero,
    symmetry, the degree of the family dimension, and gamma
    nonnegativity.  A ``Poly2`` is homogeneous, so the right degree is the
    uniform grading 2*(k+l) - 2*(i+j) = 2*offset of every term.
    """
    spec = _family(fam)
    indices = spec.indices(series_h.order)
    violations: list[ScanViolation] = []
    gammas: dict[tuple[int, int], GammaVector] = {}
    for k, l in indices:
        p = series_h.coeff(k, l)
        if p.is_zero():
            violations.append(ScanViolation((k, l), "nonzero", "coefficient is zero"))
            continue
        ok = True
        if not is_symmetric(p):
            violations.append(ScanViolation((k, l), "symmetry", str(p)))
            ok = False
        degree = homogeneous_degree(p)
        if degree != spec.dim(k, l):
            violations.append(
                ScanViolation(
                    (k, l),
                    "homogeneity",
                    f"degree {degree}, expected {spec.dim(k, l)}",
                )
            )
            ok = False
        if not ok:
            continue
        gv = gamma_from_h(p)
        gammas[(k, l)] = gv
        for i, g in enumerate(gv.gammas):
            if g < 0:
                violations.append(
                    ScanViolation((k, l), "gamma-nonnegativity", f"gamma_{i} = {g}")
                )
                break
    return SeriesScanReport(spec.id, series_h.order, len(indices), violations, gammas)

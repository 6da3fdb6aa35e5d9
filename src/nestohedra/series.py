"""Truncated exponential generating functions for nestohedron families.

A ``Series2`` is a formal power series in x and y, truncated at a fixed
total degree, whose coefficients are exact polynomials in alpha and t.  The
coefficient of x^k y^l, rescaled by k! l!, is the face polynomial of one
polytope in a family; which (k, l) carries which polytope is recorded by a
``FamilySpec``.  That rescaled coefficient is what a ``Series2`` stores, so
the families' coefficients are integer polynomials, and the product is the
labelled (binomial) product of exponential generating functions.

The five families are built from closed forms that avoid division by alpha
by expanding eta(z) = (e^{alpha z} - 1)/alpha termwise.  Their other
factors are exponentials of linear series, e^{a x + b y}, whose stored
coefficient at (k, l) is just a^k b^l, so no step of the module divides:

* pe:               eta(x) / (1 - t eta(x)), permutohedra at x^(n+1)/(n+1)!
* st:               e^{(alpha+t)x} / (1 - t eta(x)), stellohedra at x^n/n!
* starmarked:       y times the st series
* nabla-because:    e^{(alpha+t)y} eta(x) / (1 - t eta(x+y)), the nestohedra
                    of a complete graph on k nodes joined to l isolated nodes
* because-because:  complete bipartite nestohedra, with the two isolated-node
                    point terms x and y added separately

``identity_suite`` checks the eight exact differential identities these
series satisfy, in both the face and h normalizations; they are the
series-level image of the facet decomposition and double as a deep consistency
check between the closed forms and the polytope recursion.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional

from ._record import Record
from .algebra import Poly2, _convolve, h_from_f
from .buildingset import (
    Graph,
    bipartite_graph,
    complete_graph,
    empty_graph,
    join_graphs,
    star_graph,
)

__all__ = [
    "DEFAULT_ORDER",
    "Series2",
    "exp_series",
    "inv_series",
    "eta_linear",
    "deriv_x",
    "deriv_y",
    "deriv_t",
    "swap_xy",
    "truncate",
    "restrict_y0",
    "subst_h_series",
    "first_mismatch",
    "FamilySpec",
    "FAMILIES",
    "NotInFamilyError",
    "family_f",
    "family_h",
    "pe_f_xplusy",
    "phi_h",
    "coeff_normalized",
    "IdentityResult",
    "IdentityReport",
    "identity_suite",
    "IDENTITY_NAMES",
]

DEFAULT_ORDER = 8

Slot = tuple[int, int]


class Series2:
    """Power series in x and y truncated at a total degree, Poly2 coefficients.

    The slot (k, l) holds k! l! [x^k y^l], the normalized coefficient of the
    exponential generating function, and ``coeff`` returns it as stored.
    Instances are treated as immutable.  Binary operations require equal
    truncation orders; mixing orders silently would hide lost precision, so
    it raises instead (use ``truncate`` first).
    """

    __slots__ = ("order", "_coeffs")

    def __init__(
        self,
        order: int,
        coeffs: Mapping[Slot, Poly2] | Iterable[tuple[Slot, Poly2]] = (),
    ):
        if order < 0:
            raise ValueError("negative truncation order")
        self.order = order
        data: dict[Slot, Poly2] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for (k, l), p in items:
            if k < 0 or l < 0:
                raise ValueError(f"negative exponent pair {(k, l)}")
            if k + l > order:
                raise ValueError(f"slot {(k, l)} beyond truncation order {order}")
            if p:
                data[(k, l)] = data[(k, l)] + p if (k, l) in data else p
        self._coeffs = {s: p for s, p in data.items() if p}

    @classmethod
    def _built(cls, order: int, coeffs: dict[Slot, Poly2]) -> "Series2":
        """A series from slots this module built: in range, nonzero, unchecked."""
        s = cls.__new__(cls)
        s.order = order
        s._coeffs = coeffs
        return s

    @classmethod
    def one(cls, order: int) -> "Series2":
        return cls(order, {(0, 0): Poly2.one()})

    @classmethod
    def monomial(cls, order: int, k: int, l: int, p: Poly2 | int = 1) -> "Series2":
        """The series whose only normalized coefficient is p, at (k, l).

        A slot above the truncation order truncates to the zero series.
        """
        if k >= 0 and l >= 0 and k + l > order:
            return cls(order)
        p = p if isinstance(p, Poly2) else Poly2.constant(p)
        return cls(order, {(k, l): p})

    def coeff(self, k: int, l: int) -> Poly2:
        return self._coeffs.get((k, l), Poly2.zero())

    def items(self) -> list[tuple[Slot, Poly2]]:
        return sorted(self._coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series2):
            return NotImplemented
        return self.order == other.order and self._coeffs == other._coeffs

    __hash__ = None  # type: ignore[assignment]

    def _require_same_order(self, other: "Series2") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "Series2") -> "Series2":
        self._require_same_order(other)
        out = dict(self._coeffs)
        for s, p in other._coeffs.items():
            out[s] = out[s] + p if s in out else p
        return Series2(self.order, out)

    def __sub__(self, other: "Series2") -> "Series2":
        self._require_same_order(other)
        return self + (other * -1)

    def __neg__(self) -> "Series2":
        return self * -1

    def __mul__(self, other: "Series2 | Poly2 | int") -> "Series2":
        """Coefficientwise by a scalar or Poly2; the binomial product by a series."""
        if not isinstance(other, Series2):
            return Series2(
                self.order, {s: p * other for s, p in self._coeffs.items()}
            )
        return Series2._built(
            self.order,
            {
                s: p
                for s, c in _slot_products(self, other).items()
                if (p := Poly2.from_coeffs(c))
            },
        )

    def __rmul__(self, other: "Poly2 | int") -> "Series2":
        return self.__mul__(other)

    def to_json_obj(self) -> dict[str, object]:
        return {
            "order": self.order,
            "coeffs": [
                {"k": k, "l": l, "poly": p.to_records()}
                for (k, l), p in self.items()
            ],
        }

    def __repr__(self) -> str:
        return f"Series2(order={self.order}, slots={len(self._coeffs)})"


def _accumulate(acc: list | None, p: tuple, q: tuple, weight: int) -> list:
    """acc + weight * p * q, for the dense coefficient tuples of two nonzero Poly2s.

    acc is a slot's running coefficient list, or None for a slot nothing has
    landed in yet; it is updated in place and returned.  A product of
    another degree goes through Poly2 addition, which raises
    InhomogeneousError unless the slot has cancelled to zero.
    """
    n = len(p) + len(q) - 1
    if acc is None:
        acc = [0] * n
    elif len(acc) != n:
        product = Poly2.from_coeffs(p) * Poly2.from_coeffs(q) * weight
        return list((Poly2.from_coeffs(acc) + product).coeffs)
    return _convolve(acc, p, q, weight)


def _slot_products(a: Series2, b: Series2) -> dict[Slot, list]:
    """The binomial product a b as one coefficient list per slot.

    b's slots are walked in order of total degree, so each slot of a stops
    at the first one that would land beyond the truncation order.
    """
    a._require_same_order(b)
    order = a.order
    right = sorted(
        ((k2 + l2, k2, l2, p2.coeffs) for (k2, l2), p2 in b._coeffs.items()),
        key=itemgetter(0),
    )
    out: dict[Slot, list] = {}
    for (k1, l1), p1 in a._coeffs.items():
        p = p1.coeffs
        room = order - k1 - l1
        for degree, k2, l2, q in right:
            if degree > room:
                break
            k, l = k1 + k2, l1 + l2
            weight = comb(k, k1) * comb(l, l1)
            out[(k, l)] = _accumulate(out.get((k, l)), p, q, weight)
    return out


def truncate(s: Series2, order: int) -> Series2:
    """Drop coefficients above a lower truncation order."""
    if order > s.order:
        raise ValueError("cannot raise the truncation order of a computed series")
    return Series2._built(order, {slot: p for slot, p in s._coeffs.items() if sum(slot) <= order})


def swap_xy(s: Series2) -> Series2:
    return Series2._built(s.order, {(l, k): p for (k, l), p in s._coeffs.items()})


def restrict_y0(s: Series2) -> Series2:
    """The y = 0 slice, kept as a series in x."""
    return Series2(s.order, {slot: p for slot, p in s._coeffs.items() if slot[1] == 0})


def deriv_x(s: Series2) -> Series2:
    """d/dx, a shift of normalized coefficients; reliable only one order lower."""
    if s.order == 0:
        raise ValueError("cannot differentiate an order-0 truncation in x")
    return Series2._built(s.order - 1, {(k - 1, l): p for (k, l), p in s._coeffs.items() if k})


def deriv_y(s: Series2) -> Series2:
    if s.order == 0:
        raise ValueError("cannot differentiate an order-0 truncation in y")
    return Series2._built(s.order - 1, {(k, l - 1): p for (k, l), p in s._coeffs.items() if l})


def deriv_t(s: Series2) -> Series2:
    """d/dt acts on coefficients and keeps the truncation order."""
    return Series2._built(
        s.order, {slot: dp for slot, p in s._coeffs.items() if (dp := p.deriv_t())}
    )


def exp_series(s: Series2) -> Series2:
    """exp(a x + b y) for a linear series s = a x + b y, in closed form.

    The families exponentiate nothing else, and for a linear series the
    stored coefficient k! l! [x^k y^l] is a^k b^l: two running power lists
    give every slot, and nothing divides.  A series with a slot other than
    (1, 0) and (0, 1), a constant one included, raises ValueError.
    """
    stray = sorted(s._coeffs.keys() - {(1, 0), (0, 1)})
    if stray:
        raise ValueError(f"exp needs a linear series a x + b y, not one with slot {stray[0]}")
    powers = []
    for slot in ((1, 0), (0, 1)):
        run = [Poly2.one()]
        base = s._coeffs.get(slot)
        if base is not None:
            for _ in range(s.order):
                run.append(run[-1] * base)
        powers.append(run)
    xs, ys = powers
    return Series2._built(
        s.order,
        {
            (k, l): a * b if k and l else a if k else b
            for k, a in enumerate(xs)
            for l, b in enumerate(ys[: s.order + 1 - k])
        },
    )


def inv_series(s: Series2) -> Series2:
    """Multiplicative inverse of a series with constant coefficient 1.

    With r = 1 - s, the inverse b solves b = 1 + r b.  r has no constant
    term, so each slot of b needs only slots of lower total degree, and one
    pass in order of total degree fills them all:
    b[k,l] = [k=l=0] + sum C(k,k1) C(l,l1) r[k1,l1] b[k-k1,l-l1].
    Off the constant slot r is -s, so each slot of s enters with the
    negated binomial weight.
    """
    if s.coeff(0, 0) != Poly2.one():
        raise ValueError("inverse needs constant coefficient 1")
    r = [(k1, l1, p.coeffs) for (k1, l1), p in s._coeffs.items() if (k1, l1) != (0, 0)]
    inv: dict[Slot, tuple] = {(0, 0): (1,)}
    for degree in range(1, s.order + 1):
        for k in range(degree + 1):
            l = degree - k
            acc = None
            for k1, l1, p in r:
                rest = inv.get((k - k1, l - l1))
                if rest is not None:
                    acc = _accumulate(acc, p, rest, -comb(k, k1) * comb(l, l1))
            if acc is not None and any(acc):
                inv[(k, l)] = tuple(acc)
    return Series2._built(s.order, {slot: Poly2.from_coeffs(c) for slot, c in inv.items()})


def eta_linear(u: int, v: int, order: int) -> Series2:
    """eta(u x + v y) with eta(z) = sum_{d>=1} alpha^(d-1) z^d / d!.

    Built termwise, so nothing ever divides by alpha: the normalized
    coefficient at (a, b) is alpha^(a+b-1) u^a v^b.
    """
    coeffs: dict[Slot, Poly2] = {}
    for d in range(1, order + 1):
        for a in range(d + 1):
            b = d - a
            scale = u**a * v**b
            if scale:
                coeffs[(a, b)] = Poly2.monomial(d - 1, 0, scale)
    return Series2(order, coeffs)


def subst_h_series(s: Series2) -> Series2:
    """Apply the alpha -> alpha - t substitution to every coefficient."""
    return Series2(s.order, {slot: h_from_f(p) for slot, p in s._coeffs.items()})


def first_mismatch(a: Series2, b: Series2) -> Optional[tuple[int, int, Poly2]]:
    """Smallest slot, in (k+l, k) order, where two series differ.

    The difference returned is that of the stored k! l! coefficients.
    """
    a._require_same_order(b)
    slots = sorted(set(a._coeffs) | set(b._coeffs), key=lambda s: (sum(s), s))
    for k, l in slots:
        diff = a.coeff(k, l) - b.coeff(k, l)
        if diff:
            return (k, l, diff)
    return None


# ---------------------------------------------------------------------------
# families


class NotInFamilyError(ValueError):
    """An (k, l) index that carries no polytope of the requested family."""


class FamilySpec(Record):
    """Where a family's polytopes sit in its generating function.

    ``member`` decides which monomials x^k y^l carry a polytope, ``graph_at``
    builds that polytope's graph, and the dimension at (k, l) is always
    k + l - offset, so the grading degree 2(k+l) - 2(deg alpha + deg t) is
    the constant 2*offset across the whole series.
    """

    __slots__ = ("id", "offset", "description", "member", "graph_at")

    def __init__(
        self,
        id: str,
        offset: int,
        description: str,
        member: Callable[[int, int], bool],
        graph_at: Callable[[int, int], Graph],
    ):
        self._set(id, offset, description, member, graph_at)

    def contains(self, k: int, l: int) -> bool:
        return k >= 0 and l >= 0 and self.member(k, l)

    def dim(self, k: int, l: int) -> int:
        return k + l - self.offset

    def indices(self, bound: int) -> list[tuple[int, int]]:
        """Family indices with k + l <= bound, in (k+l, k) order."""
        out = [
            (k, l)
            for k in range(bound + 1)
            for l in range(bound + 1 - k)
            if self.contains(k, l)
        ]
        out.sort(key=lambda s: (sum(s), s))
        return out


FAMILIES: dict[str, FamilySpec] = {
    spec.id: spec
    for spec in (
        FamilySpec(
            id="pe",
            offset=1,
            description="permutohedra; x^(n+1) carries the complete graph on n+1 nodes",
            member=lambda k, l: k >= 1 and l == 0,
            graph_at=lambda k, l: complete_graph(k),
        ),
        FamilySpec(
            id="st",
            offset=0,
            description="stellohedra; x^n carries the star with n leaves",
            member=lambda k, l: l == 0,
            graph_at=lambda k, l: star_graph(k),
        ),
        FamilySpec(
            id="starmarked",
            offset=1,
            description="stellohedra with a marking variable; x^n y carries the star with n leaves",
            member=lambda k, l: l == 1,
            graph_at=lambda k, l: star_graph(k),
        ),
        FamilySpec(
            id="nabla-because",
            offset=1,
            description="complete graph on k nodes joined to l isolated nodes",
            member=lambda k, l: k >= 1,
            graph_at=lambda k, l: join_graphs(complete_graph(k), empty_graph(l)),
        ),
        FamilySpec(
            id="because-because",
            offset=1,
            description="complete bipartite graphs, plus the two single-node terms",
            member=lambda k, l: (k >= 1 and l >= 1) or (k, l) in ((1, 0), (0, 1)),
            graph_at=lambda k, l: bipartite_graph(k, l),
        ),
    )
}


def _family(fam: "FamilySpec | str") -> FamilySpec:
    if isinstance(fam, FamilySpec):
        return fam
    try:
        return FAMILIES[fam]
    except KeyError:
        raise NotInFamilyError(f"unknown family {fam!r}") from None


def _x(order: int) -> Series2:
    return Series2.monomial(order, 1, 0)


def _y(order: int) -> Series2:
    return Series2.monomial(order, 0, 1)


_A = Poly2.alpha()
_T = Poly2.t()


@lru_cache(maxsize=None)
def _denominator(u: int, v: int, order: int) -> Series2:
    """1 / (1 - t eta(u x + v y)), shared by every series built at this order."""
    return inv_series(Series2.one(order) - eta_linear(u, v, order) * _T)


@lru_cache(maxsize=None)
def _family_f_cached(fam_id: str, order: int) -> Series2:
    eta_x = eta_linear(1, 0, order)
    if fam_id == "pe":
        return eta_x * _denominator(1, 0, order)
    if fam_id == "st":
        grow = exp_series(Series2.monomial(order, 1, 0, _A + _T))
        return grow * _denominator(1, 0, order)
    if fam_id == "starmarked":
        return _family_f_cached("st", order) * _y(order)
    denom = _denominator(1, 1, order)
    if fam_id == "nabla-because":
        grow_y = exp_series(Series2.monomial(order, 0, 1, _A + _T))
        return grow_y * eta_x * denom
    if fam_id == "because-because":
        eta_y = eta_linear(0, 1, order)
        grow_x = exp_series(Series2.monomial(order, 1, 0, _A + _T))
        grow_y = exp_series(Series2.monomial(order, 0, 1, _A + _T))
        bare_x = exp_series(Series2.monomial(order, 1, 0, _A))
        bare_y = exp_series(Series2.monomial(order, 0, 1, _A))
        bracket = (
            grow_x * eta_y
            + grow_y * eta_x
            + eta_x * eta_y * _A
            - bare_x * eta_y
            - bare_y * eta_x
        )
        return bracket * denom + _x(order) + _y(order)
    raise NotInFamilyError(f"unknown family {fam_id!r}")


def family_f(fam: "FamilySpec | str", order: int = DEFAULT_ORDER) -> Series2:
    """Face-polynomial generating function of a family, truncated at order."""
    return _family_f_cached(_family(fam).id, order)


def family_h(fam: "FamilySpec | str", order: int = DEFAULT_ORDER) -> Series2:
    """h-polynomial generating function: the face series under alpha -> alpha - t."""
    return subst_h_series(family_f(fam, order))


def pe_f_xplusy(order: int = DEFAULT_ORDER) -> Series2:
    """The permutohedron series evaluated at x + y."""
    return eta_linear(1, 1, order) * _denominator(1, 1, order)


def phi_h(order: int = DEFAULT_ORDER) -> Series2:
    """The h-level two-variable kernel appearing in the x-derivatives.

    Computed at the face level as
    exp(-t y) (exp(alpha x) + t eta(x)) / (1 - t eta(x+y)) and then pushed
    through alpha -> alpha - t, which keeps every intermediate free of
    division by alpha.  Its constant coefficient is 1 and its y = 0 slice is
    1 + (alpha + t) Pe_h(x).
    """
    eta_x = eta_linear(1, 0, order)
    shrink_y = exp_series(Series2.monomial(order, 0, 1, -_T))
    bare_x = exp_series(Series2.monomial(order, 1, 0, _A))
    f_level = shrink_y * (bare_x + eta_x * _T) * _denominator(1, 1, order)
    return subst_h_series(f_level)


def coeff_normalized(
    fam: "FamilySpec | str",
    k: int,
    l: int = 0,
    *,
    order: int | None = None,
    series: Series2 | None = None,
) -> Poly2:
    """k! l! times the (k, l) coefficient of the family's face series.

    That is the coefficient a ``Series2`` stores.

    Equals the face polynomial of the polytope the family places at
    x^k y^l.  Without ``order`` or ``series`` the series is built at order
    k + l, the least that holds the coefficient.  Raises
    ``NotInFamilyError`` for indices outside the family and ``ValueError``
    for indices beyond the truncation order.
    """
    spec = _family(fam)
    if not spec.contains(k, l):
        raise NotInFamilyError(f"({k}, {l}) carries no polytope of family {spec.id!r}")
    if series is None:
        series = family_f(spec, order if order is not None else k + l)
    if k + l > series.order:
        raise ValueError(f"index ({k}, {l}) beyond truncation order {series.order}")
    return series.coeff(k, l)


# ---------------------------------------------------------------------------
# the identity suite


IDENTITY_NAMES = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8")


class IdentityResult(Record):
    __slots__ = ("name", "passed", "mismatch")

    def __init__(
        self, name: str, passed: bool, mismatch: Optional[tuple[int, int, Poly2]]
    ):
        self._set(name, passed, mismatch)

    def to_json_obj(self) -> dict[str, object]:
        obj: dict[str, object] = {"identity": self.name, "passed": self.passed}
        if self.mismatch is not None:
            k, l, diff = self.mismatch
            obj["mismatch"] = {"k": k, "l": l, "difference": diff.to_records()}
        return obj


class IdentityReport(Record):
    __slots__ = ("order", "results")

    def __init__(self, order: int, results: tuple[IdentityResult, ...]):
        self._set(order, results)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def first_failure(self) -> Optional[IdentityResult]:
        for r in self.results:
            if not r.passed:
                return r
        return None

    def to_json_obj(self) -> dict[str, object]:
        return {
            "order": self.order,
            "passed": self.all_passed,
            "results": [r.to_json_obj() for r in self.results],
        }


def _drop_one_term(s: Series2) -> Series2:
    """Remove the smallest slot of total degree >= 2; a test corruption."""
    slots = [slot for slot, _ in s.items() if sum(slot) >= 2]
    if not slots:
        raise ValueError("series has no slot of total degree >= 2 to drop")
    victim = min(slots, key=lambda slot: (sum(slot), slot))
    return Series2(s.order, {slot: p for slot, p in s.items() if slot != victim})


def identity_suite(order: int = DEFAULT_ORDER, corrupt: str | None = None) -> IdentityReport:
    """Check the eight differential identities at a truncation order.

    I1-I4 differentiate in t and are compared at the full order; I5-I8
    differentiate in x or y, which costs one order of reliability, so they
    are compared at order - 1.  ``corrupt`` names a family whose face series
    gets one term dropped first, for negative-control testing.
    """
    if order < 2:
        raise ValueError("the identity suite needs truncation order >= 2")
    series_f = {fam_id: family_f(fam_id, order) for fam_id in ("pe", "st", "nabla-because", "because-because")}
    if corrupt is not None:
        if corrupt not in series_f:
            raise NotInFamilyError(f"cannot corrupt unknown family {corrupt!r}")
        series_f[corrupt] = _drop_one_term(series_f[corrupt])
    pe, st = series_f["pe"], series_f["st"]
    nb, bb = series_f["nabla-because"], series_f["because-because"]
    pe_sum = pe_f_xplusy(order)
    pe_h, st_h = subst_h_series(pe), subst_h_series(st)
    nb_h, bb_h = subst_h_series(nb), subst_h_series(bb)
    pe_sum_h = subst_h_series(pe_sum)
    phi = phi_h(order)
    grow_y = exp_series(Series2.monomial(order, 0, 1, _A + _T))
    x, y = _x(order), _y(order)
    at = _A * _T
    apt = _A + _T
    # d/dx and d/dy cost I5-I8 one order, so their right-hand sides are
    # built from operands truncated to order - 1
    low = order - 1
    st_l, pe_l, nb_l, bb_l, sum_l, phi_l, grow_l = (
        truncate(s, low) for s in (st_h, pe_h, nb_h, bb_h, pe_sum_h, phi, grow_y)
    )
    x_l, y_l = _x(low), _y(low)

    checks: list[tuple[str, Series2, Series2]] = [
        ("I1", deriv_t(pe), pe * pe),
        ("I2", deriv_t(st), (x + pe) * st),
        ("I3", deriv_t(nb), nb * (y + pe_sum)),
        (
            "I4",
            deriv_t(bb),
            x * swap_xy(nb) + y * nb + bb * pe_sum - (x + y) * pe_sum,
        ),
        ("I5", deriv_x(st_h), st_l * apt + pe_l * st_l * at),
        ("I6", deriv_x(nb_h), grow_l * phi_l + nb_l * sum_l * at),
        ("I7", deriv_y(phi), sum_l * phi_l * at),
        (
            "I8",
            deriv_x(bb_h),
            bb_l * sum_l * at
            + swap_xy(nb_l) * apt
            - sum_l * apt
            - (x_l + y_l) * sum_l * at
            + grow_l * phi_l,
        ),
    ]
    results = []
    for name, lhs, rhs in checks:
        diff = first_mismatch(lhs, rhs)
        if diff is not None:
            # report the raw [x^k y^l] difference, not the stored k! l! multiple
            from fractions import Fraction

            k, l, p = diff
            diff = (k, l, p * Fraction(1, factorial(k) * factorial(l)))
        results.append(IdentityResult(name=name, passed=diff is None, mismatch=diff))
    return IdentityReport(order=order, results=tuple(results))

"""Truncated exponential generating functions for nestohedron families.

A ``Series2`` is a formal power series in x and y, truncated at a fixed
total degree, whose coefficients are exact polynomials in alpha and t.  The
coefficient of x^k y^l, rescaled by k! l!, is the face polynomial of one
polytope in a family; which (k, l) carries which polytope is recorded by a
``FamilySpec``.  That rescaled coefficient is what a ``Series2`` stores, so
the families' coefficients are integer polynomials, and the product is the
labelled (binomial) product of exponential generating functions.

A slot holds its polynomial as one int, packed at a width W as the
``algebra`` module docstring describes, and a series holds its slots in
one list: slot (k, l) at d (d + 1)/2 + k with d = k + l, so the list runs
by total degree and then by k, the order slots are compared in, and a
zero slot holds 0.  The constructor takes such a list as it stands.  A
truncation is a prefix of the list, ``swap_xy`` a permutation of it, d/dx
and d/dy are per-degree slices, sums are elementwise, a ``Poly2`` scalar
multiplies each slot by its value at alpha = 2^W, and d/dt scales each
slot's digits in one pass.  A product at order N works in divided
powers: it scales each nonzero slot (k, l) of both operands by
N!/(k! l!), runs the left operand outside and the right one inside, by
degree, adds each plain product into a flat (N + 1)^2 table at
k (N + 1) + l, where the indices of two factors add, and reads the table
back into a list once, each slot divided exactly by N!^2/(k! l!).  Every
series is graded, slot (k, l) of degree k + l - offset with one offset
per series, so a slot's digit count follows from its index.  The kernel is int arithmetic, whose scaled slots and sums
may leave their fields, as evaluation at alpha = 2^W is a ring map; a slot
is decoded only where it is read or differentiated in t, or differs from
another.  Each series bounds, per total degree, its slots' absolute
coefficient sums and raises ArithmeticError where a bound reaches
2^(W-1), beyond which decoding could be wrong.  Bounds multiply as
exponential generating functions in z = x + y, by the binomial sum.
With E = e^z and R = 1 / (2 - E) (ordered Bell numbers a(n)), every
face series of a family is at most F = 5 E^3 R, and so is phi's face
series, at most 2 E^2 R (as e^{-t y} <= E and e^{alpha x} + t eta(x) <=
2 E).  A d/dt, and every sum of products the identity suite forms, is at
most 10 F^2: as F <= F^2 / 5, z <= F, e^{(alpha + 2t) y} <= E^3 <= F / 5
and the scalars alpha + 2t and (alpha + t) t have absolute sums 3 and 2,
the largest, I8's right-hand side, is at most 7.4 F^2.  W at order N is
one bit above the N-th coefficient of 10 F^2 = 250 E^5 R' (R' = E R^2),
250 sum_j C(N, j) 5^(N-j) a(j + 1).  A truncation or derivative keeps its
operand's fields, and an operation on series of two widths raises
ValueError.  h-polynomials are read one coefficient at a time, through
``h_from_f``, and never packed.

The five families are built from closed forms in series of x alone, with
eta(x) = (e^{alpha x} - 1)/alpha expanded termwise and exponentials e^{p x},
whose stored coefficient at (k, 0) is just p^k, so no closed form
divides.  A factor in y is the ``swap_xy`` of one in x, and a factor in
x + y is a copy: (x + y)^n/n! = sum x^k y^l/(k! l!), so F(x + y) stores F's
slot (n, 0) at every (k, l) with k + l = n.  Only 1 - t eta(x), a series
in x alone, is inverted:

* pe:               eta(x) / (1 - t eta(x)), permutohedra at x^(n+1)/(n+1)!
* st:               e^{(alpha+t)x} / (1 - t eta(x)), stellohedra at x^n/n!
* starmarked:       y times the st series
* nabla-because:    e^{(alpha+t)y} eta(x) / (1 - t eta(x+y)), the nestohedra
                    of a complete graph on k nodes joined to l isolated nodes
* because-because:  complete bipartite nestohedra, with the two isolated-node
                    point terms x and y added separately

A polytope's face polynomial is read as ``family_f(fam, order).coeff(k, l)``
at any order from k + l up, since a coefficient is the same at every
order that holds it.

``identity_suite`` checks the eight exact differential identities these
series satisfy, I5-I8 between h-series, compared through alpha -> alpha - t
between face series; they are the series-level image of the facet
decomposition and double as a deep consistency check between the closed
forms and the polytope recursion.  The suite forms each product once and
multiplies the sparsest factors first: nabla-because and phi multiply
their factor in x by the denominator at x + y before the factor in y,
and I5, I6 and I8 read truncations of products I2, I3 and I4 form at the
full order.  Products of exact slots are associative and bilinear,
``swap_xy`` is a ring map, a truncated product is the product of the
truncations, and the bounds' binomial product is exact, so every series
the suite compares holds the same slots, bounds and offset in any
association, and its reports do not depend on the order chosen.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import comb, factorial
from operator import add, sub
from typing import Callable, Iterable, Optional

from .algebra import Poly2, _digits, _egf_inverse, _pack, h_from_f
from .buildingset import (
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
    "first_mismatch",
    "FamilySpec",
    "FAMILIES",
    "family_f",
    "identity_suite",
    "IDENTITY_NAMES",
    "IDENTITY_FAMILIES",
]

DEFAULT_ORDER = 8

Slot = tuple[int, int]
Slots = list[int]  # slot (k, l) at _index(k, l): its polynomial's value at alpha = 2^W and t = 1
Bounds = tuple[int, ...]  # per total degree, bounds on slots' absolute coefficient sums


def _index(k: int, l: int) -> int:
    """Where slot (k, l) sits in a series' list; slot (0, d) opens degree d."""
    d = k + l
    return d * (d + 1) // 2 + k


@lru_cache(maxsize=None)
def _layout(order: int) -> tuple[Slot, ...]:
    """The slots up to a truncation order in list order: by total degree, then by k."""
    return tuple((k, d - k) for d in range(order + 1) for k in range(d + 1))


@lru_cache(maxsize=None)
def _scales(order: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """N!/(k! l!) and N!^2/(k! l!) at k (N + 1) + l for k, l <= N; k + l > N is never read."""
    top, facts = factorial(order), [factorial(i) for i in range(order + 1)]
    up = tuple([top // (k_fact * l_fact) for k_fact in facts for l_fact in facts])
    return up, tuple([top * scale for scale in up])


def _egf_product(p: Bounds, q: Bounds) -> Bounds:
    """The binomial product of two bounds: entry d is sum_j C(d, j) p_j q_(d-j)."""
    return tuple([sum(comb(d, j) * p[j] * q[d - j] for j in range(d + 1)) for d in range(len(p))])


@lru_cache(maxsize=None)
def _width(order: int) -> int:
    """Bits per packed coefficient at a truncation order; see the module docstring."""
    if order < 0:
        raise ValueError("negative truncation order")
    bell = _egf_inverse((0,) + (1,) * (order + 1))
    top = sum(comb(order, j) * 5 ** (order - j) * bell[j + 1] for j in range(order + 1))
    return (250 * top).bit_length() + 1


def _in_x(order: int, values: Iterable[int]) -> Slots:
    """The list of a series in x alone whose slot (k, 0) holds values[k]."""
    coeffs = [0] * _index(0, order + 1)
    for k, v in enumerate(values):
        coeffs[_index(k, 0)] = v
    return coeffs


class Series2:
    """Power series in x and y truncated at a total degree, Poly2 coefficients.

    The slot (k, l) holds k! l! [x^k y^l], the normalized coefficient of the
    exponential generating function, and ``coeff`` returns it as stored.
    Coefficients are integers, packed as the module docstring describes,
    and slot (k, l) has degree k + l - ``offset``.  The slots sit in one
    list, by total degree and then by k, with 0 for a zero slot.  The one
    constructor takes that list as it stands, with the offset, the
    per-degree bounds and the width W it was packed at, and raises
    ArithmeticError where a bound reaches 2^(W-1); ``monomial`` and ``one``
    build x^k y^l/(k! l!) and 1 through it, and every other series comes
    from operations on those and the closed forms.  Instances are treated
    as immutable.  Binary operations raise ValueError on two truncation
    orders, which would hide lost precision, or on two packings (truncate
    both from one order); sums and ``first_mismatch`` also refuse nonzero
    series of two offsets.  A scalar factor is a ``Poly2``.
    """

    __slots__ = ("order", "offset", "_coeffs", "_bounds", "_width")

    def __init__(self, order: int, offset: int, coeffs: Slots, bounds: Bounds, width: int):
        """Take the packed slots of an order, refused where they may not decode."""
        if max(bounds) >> width - 1:
            raise ArithmeticError(f"coefficients outgrow the {width}-bit fields of order {order}")
        self.order, self.offset, self._coeffs = order, offset, coeffs
        self._bounds, self._width = bounds, width

    @classmethod
    def monomial(cls, order: int, k: int, l: int) -> "Series2":
        """x^k y^l/(k! l!): normalized coefficient 1 at (k, l), and offset k + l.

        A slot above the truncation order truncates to the zero series of
        that offset.
        """
        width = _width(order)  # refuses a negative order before the list is built
        if k < 0 or l < 0:
            raise ValueError(f"negative exponent pair {(k, l)}")
        coeffs, bounds = [0] * _index(0, order + 1), [0] * (order + 1)
        if k + l <= order:
            coeffs[_index(k, l)] = bounds[k + l] = 1
        return cls(order, k + l, coeffs, tuple(bounds), width)

    def coeff(self, k: int, l: int) -> Poly2:
        """Slot (k, l)'s polynomial, of degree k + l - offset."""
        # an empty slot below the grading has no digits, and reads as zero
        count = k + l - self.offset + 1
        held = min(k, l) >= 0 and k + l <= self.order
        digits = _digits(self._coeffs[_index(k, l)] if held else 0, self._width)
        if len(digits) > max(count, 0):
            raise ArithmeticError(f"slot {(k, l)} does not fit {self._width}-bit fields")
        return Poly2.from_coeffs(digits + [0] * (count - len(digits)))

    def items(self) -> list[tuple[Slot, Poly2]]:
        return [(s, self.coeff(*s)) for s, v in zip(_layout(self.order), self._coeffs) if v]

    def __bool__(self) -> bool:
        return any(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series2):
            return NotImplemented
        return self.order == other.order and self.items() == other.items()

    __hash__ = None  # type: ignore[assignment]

    def _aligned(self, other: "Series2") -> None:
        """Refuse an operand of another order or packed at another width."""
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")
        if self._width != other._width:
            raise ValueError(f"packing mismatch: {self._width}-bit vs {other._width}-bit fields")

    def _graded_with(self, other: "Series2") -> int:
        """The offset of self + other; nonzero series of two gradings are refused."""
        self._aligned(other)
        if self and other and self.offset != other.offset:
            raise ValueError(f"grading offsets {self.offset} and {other.offset} do not add")
        return (self or other).offset

    def _slotwise(self, other: "Series2", op: Callable[[int, int], int]) -> "Series2":
        """self + other or self - other, slot by slot; the bounds add either way."""
        offset = self._graded_with(other)
        coeffs = list(map(op, self._coeffs, other._coeffs))
        bounds = tuple(map(add, self._bounds, other._bounds))
        return Series2(self.order, offset, coeffs, bounds, self._width)

    def __add__(self, other: "Series2") -> "Series2":
        return self._slotwise(other, add)

    def __sub__(self, other: "Series2") -> "Series2":
        return self._slotwise(other, sub)

    def __mul__(self, other: "Series2 | Poly2") -> "Series2":
        """Coefficientwise by a Poly2, zero included; the binomial product by a series."""
        order = self.order
        if isinstance(other, Series2):
            self._aligned(other)
            coeffs = _product(self._coeffs, other._coeffs, order)
            bounds = _egf_product(self._bounds, other._bounds)
            offset = self.offset + other.offset
            return Series2(order, offset, coeffs, bounds, self._width)
        if not isinstance(other, Poly2):
            return NotImplemented
        c, rate = _pack(other.coeffs, self._width), sum(map(abs, other.coeffs))
        coeffs = [v * c for v in self._coeffs]
        bounds = tuple(b * rate for b in self._bounds)
        return Series2(order, self.offset - len(other.coeffs) + 1, coeffs, bounds, self._width)

    def __repr__(self) -> str:
        return f"Series2(order={self.order}, slots={len(self._coeffs) - self._coeffs.count(0)})"


@lru_cache(maxsize=None)
def _cells(order: int) -> tuple[tuple[int, int], ...]:
    """(k + l, k (order + 1) + l) per slot up to an order, in list order."""
    return tuple((k + l, k * (order + 1) + l) for k, l in _layout(order))


def _product(a: Slots, b: Slots, order: int) -> Slots:
    """The binomial product of two series' lists at a truncation order N, in divided powers.

    With each nonzero slot (k, l) of both lists scaled by N!/(k! l!), the
    products that land in slot (k, l) sum to N!^2/(k! l!) times it, one
    exact division.  The second list's nonzero slots come by total degree,
    so each slot of the first stops at the first one beyond the order.
    Slot (k, l) sums in a table at k (N + 1) + l, the sum of its factors'
    table indices, read back once.
    """
    cells, (up, down) = _cells(order), _scales(order)
    inner = [(d, index, q * up[index]) for (d, index), q in zip(cells, b) if q]
    vals = [0] * (order + 1) ** 2
    for (d1, base), p in zip(cells, a):
        if p:
            room, p = order - d1, p * up[base]
            for d2, index, q in inner:
                if d2 > room:
                    break
                vals[base + index] += p * q
    return [vals[index] // down[index] for _, index in cells]


def truncate(s: Series2, order: int) -> Series2:
    """Drop coefficients above a lower truncation order: a prefix of the list."""
    if order < 0:
        raise ValueError("negative truncation order")
    if order > s.order:
        raise ValueError("cannot raise the truncation order of a computed series")
    kept = s._coeffs[: _index(0, order + 1)]
    return Series2(order, s.offset, kept, s._bounds[: order + 1], s._width)


@lru_cache(maxsize=None)
def _mirror(order: int) -> tuple[int, ...]:
    """Per slot (k, l) up to an order, in list order, the index of slot (l, k)."""
    return tuple(_index(l, k) for k, l in _layout(order))


def swap_xy(s: Series2) -> Series2:
    """s(y, x): the list read through its order's mirror permutation."""
    swapped = [s._coeffs[i] for i in _mirror(s.order)]
    return Series2(s.order, s.offset, swapped, s._bounds, s._width)


def _shifted(s: Series2, first: int, variable: str) -> Series2:
    """d/dx (first = 1) or d/dy (first = 0): d of the d + 1 slots of each degree d >= 1."""
    if s.order == 0:
        raise ValueError(f"cannot differentiate an order-0 truncation in {variable}")
    shifted: Slots = []
    for d in range(1, s.order + 1):
        start = _index(0, d) + first
        shifted += s._coeffs[start : start + d]
    return Series2(s.order - 1, s.offset - 1, shifted, s._bounds[1:], s._width)


def deriv_x(s: Series2) -> Series2:
    """d/dx, a shift of normalized coefficients; reliable only one order lower."""
    return _shifted(s, 1, "x")


def deriv_y(s: Series2) -> Series2:
    return _shifted(s, 0, "y")


def deriv_t(s: Series2) -> Series2:
    """d/dt in one pass over each slot's digits; keeps the truncation order.

    Digit i of a slot of degree n, the coefficient of alpha^i t^(n - i), is
    peeled, scaled by n - i and packed back in place.  A digit past i = n
    is refused, as decoding the slot would refuse it.
    """
    width, offset = s._width, s.offset
    half, mask = 1 << width - 1, (1 << width) - 1
    coeffs, bounds = [], [0] * (s.order + 1)
    for (k, l), value in zip(_layout(s.order), s._coeffs):
        scale = k + l - offset
        packed = total = shift = 0
        while value:
            if scale < 0:
                raise ArithmeticError(f"slot {(k, l)} does not fit {width}-bit fields")
            digit = ((value + half) & mask) - half
            value = (value - digit) >> width
            packed += digit * scale << shift
            total += abs(digit) * scale
            shift += width
            scale -= 1
        coeffs.append(packed)
        if total > bounds[k + l]:
            bounds[k + l] = total
    return Series2(s.order, offset + 1, coeffs, tuple(bounds), width)


def exp_series(p: Poly2, order: int) -> Series2:
    """e^{p x} for a Poly2 p, zero or of degree 1 in alpha and t, in closed form.

    Its stored coefficient k! [x^k] is p^k, of degree k (offset 0), so
    nothing divides.  The families' other exponentials are its ``swap_xy``
    (e^{p y}) and its products (e^{a x + b y} = e^{a x} e^{b y}).
    """
    if not isinstance(p, Poly2):
        raise TypeError(f"exp_series takes a Poly2, not {p!r}")
    if p and len(p.coeffs) != 2:
        raise ValueError(f"exp_series takes p = 0 or p of degree 1, not {p}")
    width = _width(order)
    base = _pack(p.coeffs, width)
    coeffs = _in_x(order, (base**k for k in range(order + 1 if p else 1)))
    rate = sum(map(abs, p.coeffs))
    return Series2(order, 0, coeffs, tuple(rate**d for d in range(order + 1)), width)


def inv_series(s: Series2) -> Series2:
    """Multiplicative inverse of a series in x alone, of offset 0 and constant coefficient 1.

    With r = 1 - s, the inverse b solves b = 1 + r b, a recurrence that
    runs on the packed slots (k, 0) as on the per-degree bounds.  A
    constant coefficient other than 1, or a slot that holds y, raises
    ValueError.
    """
    if s.offset or s._coeffs[0] != 1:
        raise ValueError("inverse needs constant coefficient 1")
    held = [slot for slot, v in zip(_layout(s.order), s._coeffs) if v and slot[1]]
    if held:
        raise ValueError(f"inverse needs a series in x alone, not one with slot {min(held)}")
    r = [0] + [-s._coeffs[_index(k, 0)] for k in range(1, s.order + 1)]
    bounds = tuple(_egf_inverse(s._bounds))
    return Series2(s.order, 0, _in_x(s.order, _egf_inverse(r)), bounds, s._width)


def eta_linear(order: int) -> Series2:
    """eta(x) with eta(z) = sum_{d>=1} alpha^(d-1) z^d / d!.

    Built termwise, so nothing ever divides by alpha: the normalized
    coefficient at (d, 0) is alpha^(d-1), of offset 1.  eta(y) is its ``swap_xy``.
    """
    width = _width(order)
    coeffs = _in_x(order, [0] + [1 << width * (d - 1) for d in range(1, order + 1)])
    return Series2(order, 1, coeffs, (0,) + (1,) * order, width)


def _diagonal(s: Series2) -> Series2:
    """s(x + y) for a series s in x alone: slot (k, l) is s's slot (k + l, 0).

    The copy keeps s's per-degree bounds, which bound each slot of a degree.
    """
    coeffs: Slots = []
    for d in range(s.order + 1):
        coeffs += [s._coeffs[_index(d, 0)]] * (d + 1)
    return Series2(s.order, s.offset, coeffs, s._bounds, s._width)


def first_mismatch(a: Series2, b: Series2) -> Optional[tuple[int, int, Poly2]]:
    """Smallest slot, in (k+l, k) order, where two series differ.

    The difference returned is that of the stored k! l! coefficients.  Like
    a sum, it refuses two nonzero series of different offsets.  Lists run
    in that order, so the first entry where they differ is the slot.
    """
    a._graded_with(b)
    if a._coeffs == b._coeffs:
        return None
    k, l = next(s for s, p, q in zip(_layout(a.order), a._coeffs, b._coeffs) if p != q)
    return (k, l, a.coeff(k, l) - b.coeff(k, l))


# ---------------------------------------------------------------------------
# families


class FamilySpec(namedtuple("FamilySpec", "id offset member graph_at nodes_at")):
    """Where a family's polytopes sit in its generating function.

    ``member`` decides which monomials x^k y^l carry a polytope, ``graph_at``
    builds that polytope's graph, and the dimension at (k, l) is always
    k + l - offset, so the grading degree 2(k+l) - 2(deg alpha + deg t) is
    the constant 2*offset across the whole series.  ``nodes_at(k, l, n)``
    is the node mask, inside ``graph_at(n, n)``, whose induced subgraph is
    ``graph_at(k, l)`` with its labels, for k + l <= n: so one recursion
    on the family's largest graph serves every member up to order n.
    """

    __slots__ = ()

    def dim(self, k: int, l: int) -> int:
        return k + l - self.offset

    def indices(self, bound: int) -> list[tuple[int, int]]:
        """Family indices with k + l <= bound, in (k+l, k) order."""
        return [(k, d - k) for d in range(bound + 1) for k in range(d + 1) if self.member(k, d - k)]


FAMILIES: dict[str, FamilySpec] = {
    spec.id: spec
    for spec in (
        FamilySpec(
            id="pe",
            offset=1,
            member=lambda k, l: k >= 1 and l == 0,
            graph_at=lambda k, l: complete_graph(k),
            nodes_at=lambda k, l, n: (1 << k) - 1,
        ),
        FamilySpec(
            id="st",
            offset=0,
            member=lambda k, l: l == 0,
            graph_at=lambda k, l: star_graph(k),
            nodes_at=lambda k, l, n: (1 << k + 1) - 1,
        ),
        FamilySpec(
            id="starmarked",
            offset=1,
            member=lambda k, l: l == 1,
            graph_at=lambda k, l: star_graph(k),
            nodes_at=lambda k, l, n: (1 << k + 1) - 1,
        ),
        FamilySpec(
            id="nabla-because",
            offset=1,
            member=lambda k, l: k >= 1,
            graph_at=lambda k, l: join_graphs(complete_graph(k), empty_graph(l)),
            nodes_at=lambda k, l, n: (1 << k) - 1 | ((1 << l) - 1) << n,
        ),
        FamilySpec(
            id="because-because",
            offset=1,
            member=lambda k, l: (k >= 1 and l >= 1) or (k, l) in ((1, 0), (0, 1)),
            graph_at=lambda k, l: bipartite_graph(k, l),
            nodes_at=lambda k, l, n: (1 << k) - 1 | ((1 << l) - 1) << n,
        ),
    )
}


def _family(fam: str) -> FamilySpec:
    """The registered family of an id; a family is named by its id only."""
    if not isinstance(fam, str):
        raise TypeError(f"a family is named by its id, not by a {type(fam).__name__}")
    try:
        return FAMILIES[fam]
    except KeyError:
        raise ValueError(f"unknown family {fam!r}") from None


_A = Poly2.from_coeffs((0, 1))
_T = Poly2.from_coeffs((1, 0))


@lru_cache(maxsize=None)
def _denominator(order: int) -> Series2:
    """1 / (1 - t eta(x)), shared by every series built at this order."""
    return inv_series(Series2.monomial(order, 0, 0) - eta_linear(order) * _T)


@lru_cache(maxsize=None)
def _family_f_cached(fam_id: str, order: int) -> Series2:
    eta_x = eta_linear(order)
    if fam_id == "pe":
        return eta_x * _denominator(order)
    if fam_id == "st":
        return exp_series(_A + _T, order) * _denominator(order)
    if fam_id == "starmarked":
        return _family_f_cached("st", order) * Series2.monomial(order, 0, 1)
    denom = _diagonal(_denominator(order))
    if fam_id == "nabla-because":
        return swap_xy(exp_series(_A + _T, order)) * (eta_x * denom)
    if fam_id == "because-because":
        # (e^{(alpha+t)x} - e^{alpha x}) eta(y), its mirror, and alpha eta(x) eta(y)
        half = (exp_series(_A + _T, order) - exp_series(_A, order)) * swap_xy(eta_x)
        bracket = half + swap_xy(half) + eta_x * swap_xy(eta_x) * _A
        return bracket * denom + Series2.monomial(order, 1, 0) + Series2.monomial(order, 0, 1)
    raise ValueError(f"unknown family {fam_id!r}")


def family_f(fam: str, order: int = DEFAULT_ORDER) -> Series2:
    """Face-polynomial generating function of the family with id fam, truncated at order."""
    return _family_f_cached(_family(fam).id, order)


def _phi_f(order: int) -> Series2:
    """phi, the kernel of I6-I8: exp(-t y) (exp(alpha x) + t eta(x)) / (1 - t eta(x+y))."""
    shrink_y = swap_xy(exp_series(-_T, order))
    bare_x = exp_series(_A, order)
    return shrink_y * ((bare_x + eta_linear(order) * _T) * _diagonal(_denominator(order)))


# ---------------------------------------------------------------------------
# the identity suite


IDENTITY_NAMES = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8")
# the families whose face series the identities relate, in the order
# ``--corrupt`` lists them
IDENTITY_FAMILIES = ("pe", "st", "nabla-because", "because-because")


def _drop_one_term(s: Series2) -> Series2:
    """Remove the smallest slot of total degree >= 2; a test corruption."""
    victim = next((i for i in range(_index(0, 2), len(s._coeffs)) if s._coeffs[i]), None)
    if victim is None:
        raise ValueError("series has no slot of total degree >= 2 to drop")
    kept = s._coeffs.copy()
    kept[victim] = 0
    return Series2(s.order, s.offset, kept, s._bounds, s._width)


def identity_suite(
    order: int = DEFAULT_ORDER, corrupt: str | None = None
) -> dict[str, Optional[tuple[int, int, Poly2]]]:
    """Check the eight differential identities at a truncation order.

    I1-I4 differentiate in t and are compared at the full order; I5-I8
    differentiate in x or y, which costs one order of reliability, so they
    are compared at order - 1.  ``corrupt`` names a family whose face series
    gets one term dropped first, for negative-control testing.  Returns
    each identity's mismatch keyed by its name, in ``IDENTITY_NAMES``
    order: None when its two sides agree, else ``first_mismatch``'s
    (k, l, difference) at the first index where they differ, the
    difference of the stored k! l! coefficients.

    I5-I8 relate h-series; as alpha -> alpha - t is a ring automorphism
    acting on each slot alone, they are compared between face series with
    alpha + t for alpha in their scalars, and only a reported difference is
    substituted.

    Eight products form the right-hand sides: pe pe, x st, pe st,
    y nb, nb pe(x + y), (bb - x - y) pe(x + y), I7's pe(x + y) phi and
    the e^{(alpha + 2t) y} phi that I6 and I8 share (nb and bb the
    nabla-because and because-because series).  I3 and I4 share y nb,
    whose mirror is I4's x nb(y, x), and I5, I6 and I8 truncate pe st,
    nb pe(x + y) and (bb - x - y) pe(x + y) to order - 1 and scale them,
    so no series is multiplied twice.  The module docstring says why the
    reports equal those of each term multiplied on its own.  An order below
    2 or an unknown family to corrupt is refused first; any later failure
    is the arithmetic's, an ``ArithmeticError`` naming the order.
    """
    if order < 2:
        raise ValueError("the identity suite needs truncation order >= 2")
    if corrupt is not None and corrupt not in IDENTITY_FAMILIES:
        raise ValueError(f"cannot corrupt unknown family {corrupt!r}")
    try:
        series_f = {fam_id: family_f(fam_id, order) for fam_id in IDENTITY_FAMILIES}
        if corrupt is not None:
            series_f[corrupt] = _drop_one_term(series_f[corrupt])
        pe, st, nb, bb = (series_f[fam_id] for fam_id in IDENTITY_FAMILIES)
        pe_sum = _diagonal(family_f("pe", order))
        phi = _phi_f(order)
        x, y = Series2.monomial(order, 1, 0), Series2.monomial(order, 0, 1)
        at, apt = (_A + _T) * _T, _A + 2 * _T  # alpha t and alpha + t at the h level
        # each product is formed once (pe at x + y is the uncorrupted pe's
        # copy): I3 and I4 share y nb, and I4's x nb(y, x) is its mirror
        nb_sum, bb_sum, pe_st, y_nb = nb * pe_sum, (bb - x - y) * pe_sum, pe * st, y * nb
        # d/dx and d/dy cost I5-I8 one order, so their right-hand sides are
        # compared at order - 1, where I5, I6 and I8 read truncations of the
        # products above: a truncated product is the product of the truncations
        low = order - 1
        st_l, phi_l, sum_l = (truncate(s, low) for s in (st, phi, pe_sum))
        grow_phi = truncate(swap_xy(exp_series(apt, order)), low) * phi_l

        # each identity's two sides, in IDENTITY_NAMES order
        checks: list[tuple[Series2, Series2]] = [
            (deriv_t(pe), pe * pe),
            (deriv_t(st), x * st + pe_st),
            (deriv_t(nb), y_nb + nb_sum),
            (deriv_t(bb), swap_xy(y_nb) + y_nb + bb_sum),
            (deriv_x(st), st_l * apt + truncate(pe_st, low) * at),
            (deriv_x(nb), grow_phi + truncate(nb_sum, low) * at),
            (deriv_y(phi), sum_l * phi_l * at),
            (
                deriv_x(bb),
                truncate(bb_sum, low) * at - sum_l * apt + truncate(swap_xy(nb), low) * apt
                + grow_phi,
            ),
        ]
        found = [first_mismatch(lhs, rhs) for lhs, rhs in checks]
        found[4:] = [m and (m[0], m[1], h_from_f(m[2])) for m in found[4:]]  # I5-I8's at h level
        return dict(zip(IDENTITY_NAMES, found, strict=True))
    except (ValueError, ArithmeticError) as exc:
        raise ArithmeticError(f"identities at order {order}: {exc}") from exc

"""Exact homogeneous polynomials in the face-counting variables alpha and t.

The face polynomial of a simple n-dimensional polytope is homogeneous of
degree n: the coefficient of alpha^i t^(n-i) counts the i-dimensional faces,
so a segment is alpha + 2t and a hexagon is alpha^2 + 6 alpha t + 6 t^2.
Every polynomial the library builds is homogeneous, so a ``Poly2`` is
stored densely: a nonzero polynomial of degree n is the tuple of its n + 1
coefficients, entry i being that of alpha^i t^(n-i), and the zero
polynomial is the empty tuple.  ``Poly2.from_coeffs`` builds one from that
tuple, and alpha is ``Poly2.from_coeffs((0, 1))``.  Products are packed
(below), sums are elementwise, and mixing total degrees raises
``ValueError``.

Two changes of basis matter downstream.  Substituting alpha -> alpha - t
turns a face polynomial into the corresponding h-polynomial, which is
symmetric in alpha and t for every simple polytope.  A symmetric homogeneous
polynomial of degree n can in turn be rewritten over the basis
(alpha t)^i (alpha + t)^(n-2i); the coefficients of that rewrite form the
gamma vector, the object whose nonnegativity is checked elsewhere.

Coefficients are ints.  Face counts are integers, and the series module
stores k! l! times each coefficient of an exponential generating function,
an integer face polynomial too, and builds a ``Poly2`` only where one is
read, so no step of the library divides.  The one rational any command
prints, the [x^k y^l] difference a failed identity reports, is formed
where it is written, by the ``identities`` command in ``cli``.

The recursion in ``ringcalc``, the series slots and ``Poly2`` products
hold a polynomial as one int, its value at alpha = 2^W and t = 1
(Kronecker substitution, Harvey, arXiv:0712.4046): the coefficient of
alpha^i sits in bits [i W, (i + 1) W).  Evaluation commutes with sums and
products, so a product of polynomials is one product of ints, and an
inverse of exponential generating functions is one recurrence on ints.
The coefficients are read back as balanced digits in [-2^(W-1), 2^(W-1)),
exact while every coefficient's absolute value stays below 2^(W-1); each
caller picks W from a bound on its coefficients.  ``_pack``, ``_digits``
and ``_egf_inverse`` are that format, shared by the three callers.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb
from operator import add
from typing import Iterable, Optional, Sequence

__all__ = [
    "Poly2",
    "GammaVector",
    "h_from_f",
    "homogeneous_degree",
    "is_symmetric",
    "gamma_from_h",
]

Exponents = tuple[int, int]


def _pack(coeffs: Sequence[int], width: int) -> int:
    """The value at alpha = 2^width of the coefficients, lowest first."""
    value = 0
    for c in reversed(coeffs):
        if type(c) is not int:
            raise TypeError(f"packed coefficients are integers, not {c!r}")
        value = (value << width) + c
    return value


def _digits(value: int, width: int) -> list[int]:
    """The balanced width-bit digits of value, lowest first, up to the top nonzero one.

    A width below 2 raises ``ValueError``: a 1-bit field holds only the
    digits -1 and 0, so the remainder of a positive value never shrinks.
    """
    if width < 2:
        raise ValueError(f"balanced digits need fields of at least 2 bits, not {width}")
    half, mask = 1 << width - 1, (1 << width) - 1
    out = []
    while value:
        out.append(((value + half) & mask) - half)
        value = (value - out[-1]) >> width
    return out


def _egf_inverse(r: Sequence[int]) -> list[int]:
    """The b that solves b = 1 + r b, for exponential generating functions.

    Entry n of r and of b is n! times its coefficient of z^n, and r[0] is
    taken as zero.  Entries may be packed polynomials, since the
    recurrence only adds and multiplies.
    """
    b = [1]
    for n in range(1, len(r)):
        b.append(sum(comb(n, j) * r[j] * b[n - j] for j in range(1, n + 1)))
    return b


class Poly2:
    """Homogeneous polynomial in alpha and t with int coefficients.

    ``Poly2.from_coeffs`` is the one constructor.  ``coeffs`` holds the
    n + 1 coefficients of a degree-n polynomial, entry i being that of
    alpha^i t^(n-i); the zero polynomial has no entries and adds to a
    polynomial of any degree.  Sums, differences and comparisons take two
    ``Poly2``s, and adding nonzero polynomials of different degrees raises
    ``ValueError``; only a product also takes an int.  Instances
    are treated as immutable.
    """

    __slots__ = ("_terms",)

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "Poly2":
        """The polynomial whose coefficient of alpha^i t^(n-i) is coeffs[i].

        n is len(coeffs) - 1; all-zero coefficients give the zero polynomial.
        """
        coeffs = tuple(coeffs)
        p = cls.__new__(cls)
        p._terms = coeffs if any(coeffs) else ()
        return p

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._terms

    def terms(self) -> list[tuple[Exponents, int]]:
        """Nonzero terms sorted by exponent pair, for deterministic iteration."""
        n = len(self._terms) - 1
        return [((i, n - i), c) for i, c in enumerate(self._terms) if c]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "Poly2") -> "Poly2":
        if not isinstance(other, Poly2):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        if len(self._terms) != len(other._terms):
            n, m = len(self._terms) - 1, len(other._terms) - 1
            raise ValueError(f"mixed total degrees {n} and {m}")
        return Poly2.from_coeffs(map(add, self._terms, other._terms))

    def __sub__(self, other: "Poly2") -> "Poly2":
        if not isinstance(other, Poly2):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Poly2":
        return Poly2.from_coeffs(-c for c in self._terms)

    def __mul__(self, other: "Poly2 | int") -> "Poly2":
        if not isinstance(other, Poly2):
            if isinstance(other, int):
                return Poly2.from_coeffs([c * other for c in self._terms])
            return NotImplemented
        a, b = self._terms, other._terms
        # no product coefficient exceeds the product of the absolute sums;
        # balanced digits need two bits even when that is 0
        width = max(2, (sum(map(abs, a)) * sum(map(abs, b))).bit_length() + 1)
        out = _digits(_pack(a, width) * _pack(b, width), width)
        return Poly2.from_coeffs(out + [0] * (len(a) + len(b) - 1 - len(out)))

    def __rmul__(self, other: int) -> "Poly2":
        return self.__mul__(other)

    def __repr__(self) -> str:
        return f"Poly2.from_coeffs({self._terms!r})"

    def __str__(self) -> str:
        parts = []
        for (i, j), c in reversed(self.terms()):
            factors = []
            if c != 1 or (i, j) == (0, 0):
                factors.append(str(c))
            if i:
                factors.append("a" if i == 1 else f"a^{i}")
            if j:
                factors.append("t" if j == 1 else f"t^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts) or "0"

    def to_records(self) -> list[dict[str, object]]:
        """Serialize as sorted ``{"i", "j", "c"}`` records with decimal strings."""
        return [{"i": i, "j": j, "c": str(c)} for (i, j), c in self.terms()]


def homogeneous_degree(p: Poly2) -> int:
    """Total degree of a polynomial; ``ValueError`` on the zero polynomial."""
    if not p:
        raise ValueError("zero polynomial has no homogeneous degree")
    return len(p.coeffs) - 1


def is_symmetric(p: Poly2) -> bool:
    """True when p(alpha, t) == p(t, alpha).  The zero polynomial qualifies."""
    return p.coeffs == p.coeffs[::-1]


def h_from_f(p: Poly2) -> Poly2:
    """Substitute alpha -> alpha - t, the face-to-h change of variables.

    With t = 1 this is the Taylor shift f(alpha) -> f(alpha - 1), done in
    place by repeated synthetic division.
    """
    h = list(p.coeffs)
    n = len(h) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            h[k] -= h[k + 1]
    return Poly2.from_coeffs(h)


class GammaVector(namedtuple("GammaVector", "n gammas")):
    """Coefficients of h over the basis (alpha t)^i (alpha + t)^(n-2i)."""

    __slots__ = ()

    def __new__(cls, n: int, gammas: tuple[int, ...]) -> GammaVector:
        expected = n // 2 + 1
        if n < 0:
            raise ValueError("negative degree")
        if len(gammas) != expected:
            raise ValueError(
                f"degree {n} needs {expected} gamma entries, got {len(gammas)}"
            )
        return super().__new__(cls, n, tuple(gammas))

    @property
    def first_negative(self) -> Optional[tuple[int, int]]:
        """``(i, gamma_i)`` of the first negative entry, None when there is none."""
        return next(((i, g) for i, g in enumerate(self.gammas) if g < 0), None)

    @property
    def passed(self) -> bool:
        """Gamma-nonnegativity: no entry is negative (there is always one entry)."""
        return min(self.gammas) >= 0

    def as_strings(self) -> list[str]:
        return [str(g) for g in self.gammas]


def gamma_from_h(p: Poly2) -> GammaVector:
    """Extract the gamma vector of a symmetric homogeneous polynomial.

    Peels basis elements off one by one: gamma_i is the coefficient of
    alpha^(n-i) t^i left in the residual, which is then cleared, binomial
    by binomial.  A nonzero residual after the last step would mean the
    symmetric basis failed, so it is reported as an internal error rather
    than a bad input.
    """
    n = homogeneous_degree(p)
    if not is_symmetric(p):
        raise ValueError(f"not symmetric in alpha and t: {p}")
    residual = list(p.coeffs)
    gammas = []
    for i in range(n // 2 + 1):
        g = residual[n - i]
        gammas.append(g)
        if g:
            m = n - 2 * i
            for k in range(m + 1):
                residual[i + k] -= g * comb(m, k)
    if any(residual):
        raise ArithmeticError(f"gamma extraction left a residual: {Poly2.from_coeffs(residual)}")
    return GammaVector(n, tuple(gammas))

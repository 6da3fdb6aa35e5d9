"""Truncated two-variable series, family generating functions, identities."""

from __future__ import annotations

import hashlib
import json
import re
from math import comb
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestohedra import cli, series
from nestohedra.cli import MAX_ORDER, main
from nestohedra.algebra import Poly2, _egf_inverse, _pack, h_from_f
from nestohedra.buildingset import Graph, _induced_adj
from nestohedra.ringcalc import fpoly
from nestohedra.series import (
    DEFAULT_ORDER,
    FAMILIES,
    IDENTITY_FAMILIES,
    IDENTITY_NAMES,
    FamilySpec,
    Series2,
    deriv_t,
    deriv_x,
    eta_linear,
    exp_series,
    family_f,
    first_mismatch,
    identity_suite,
    inv_series,
    swap_xy,
    truncate,
)
from witnesses import (
    eta_termwise,
    family_face_counts,
    family_h,
    h_level_identities,
    list_inv_series,
    list_product,
    list_slot_products,
    phi_h,
    poly_deriv_t,
    power,
    power_sum_exp,
    raw_from_series,
    raw_inv,
    raw_mul,
    restrict_y0,
    series_of,
    subst_h_series,
)

A = Poly2.from_coeffs((0, 1))
T = Poly2.from_coeffs((1, 0))
ZERO = Poly2.from_coeffs(())


def _const(c: int) -> Poly2:
    """The constant polynomial c."""
    return Poly2.from_coeffs((c,))


# ---------------------------------------------------------------------------
# series arithmetic


def test_monomial_and_coeff() -> None:
    s = Series2.monomial(4, 1, 2) * A
    assert s.coeff(1, 2) == A
    assert not s.coeff(0, 0)


def test_monomial_above_the_order_truncates_to_zero() -> None:
    assert Series2.monomial(0, 1, 0) * (A + T) == series_of(0)
    assert not Series2.monomial(2, 2, 1)
    assert Series2.monomial(2, 2, 1).offset == 3
    with pytest.raises(ValueError):
        series_of(2, {(2, 1): _const(1)})
    with pytest.raises(ValueError):
        Series2.monomial(2, -1, 0)


def test_multiplication_truncates() -> None:
    x = Series2.monomial(2, 1, 0)
    cube_truncated = x * x * x
    assert not cube_truncated


def test_mixed_orders_raise() -> None:
    with pytest.raises(ValueError):
        Series2.monomial(3, 0, 0) + Series2.monomial(4, 0, 0)
    with pytest.raises(ValueError, match="order mismatch: 3 vs 4"):
        Series2.monomial(3, 0, 0) * Series2.monomial(4, 0, 0)
    with pytest.raises(ValueError, match="order mismatch: 4 vs 3"):
        eta_linear(4) * family_f("pe", 3)
    # a truncation keeps its order's fields, so it does not add to a
    # series built at the lower order
    widths = f"{series._width(4)}-bit vs {series._width(3)}-bit"
    with pytest.raises(ValueError, match=f"^packing mismatch: {widths} fields$"):
        truncate(Series2.monomial(4, 0, 0), 3) + Series2.monomial(3, 0, 0)
    with pytest.raises(ValueError):
        truncate(Series2.monomial(3, 0, 0), 5)


def test_scalars_are_poly2s_and_the_constructor_takes_packed_slots() -> None:
    # a constant scalar is a constant Poly2, and series_of sums the
    # polynomials given for one slot
    assert series_of(2, {(0, 0): _const(5)}) == Series2.monomial(2, 0, 0) * _const(5)
    assert not series_of(2, [((1, 0), _const(2)), ((1, 0), _const(-2))])
    # an int scalar, on either side, and the mapping form are refused
    pe = family_f("pe", 4)
    for refused in (
        lambda: pe * 2,
        lambda: 2 * pe,
        lambda: A * pe,
        lambda: exp_series(0, 3),
        lambda: Series2(2, {(0, 0): _const(1)}),
    ):
        with pytest.raises(TypeError):
            refused()


@pytest.mark.parametrize(
    "build",
    [
        lambda: series_of(-1),
        lambda: series_of(-1, {(0, 0): _const(1)}),
        lambda: Series2.monomial(-1, k=0, l=0),
        lambda: Series2.monomial(-1, 0, 0),
        lambda: Series2.monomial(-1, 1, 0),
        lambda: exp_series(A + T, -1),
        lambda: eta_linear(-1),
        lambda: family_f("pe", -1),
        lambda: truncate(Series2.monomial(3, 0, 0), -1),
    ],
    ids=[
        "Series2", "Series2-with-slot", "one", "monomial-in-range", "monomial-above",
        "exp_series", "eta_linear", "family_f", "truncate",
    ],
)
def test_a_negative_truncation_order_is_refused(build) -> None:
    with pytest.raises(ValueError, match="negative truncation order"):
        build()


def test_eta_linear_frozen_coefficients() -> None:
    # coefficients are stored as k! l! [x^k y^l]
    eta = eta_linear(3)
    assert eta.coeff(1, 0).coeffs == (1,)
    assert eta.coeff(2, 0) == A
    assert eta.coeff(3, 0) == power(A, 2)
    assert eta == eta_termwise(1, 0, 3)
    # eta(x + y) weights x^a y^b by alpha^(a+b-1) binom(a+b, a) / (a+b)!,
    # which a! b! turns into alpha^(a+b-1).
    eta_xy = series._diagonal(eta_linear(2))
    assert eta_xy.coeff(1, 1) == A
    assert eta_xy == eta_termwise(1, 1, 2)


def test_exp_series_frozen_coefficients() -> None:
    grow = exp_series(A + T, 3)
    assert grow.coeff(0, 0).coeffs == (1,)
    assert grow.coeff(2, 0) == power(A + T, 2)
    assert [slot for slot, _ in grow.items()] == [(0, 0), (1, 0), (2, 0), (3, 0)]
    assert exp_series(-T, 3).coeff(3, 0) == -power(T, 3)
    assert exp_series(ZERO, 3) == Series2.monomial(3, 0, 0)
    assert grow.offset == exp_series(ZERO, 3).offset == 0
    # e^{p x} stores p^k at (k, 0): of degree k only when p has degree 1
    for p in (_const(-2), _const(1), A * T):
        message = f"exp_series takes p = 0 or p of degree 1, not {p}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            exp_series(p, 3)


def _homogeneous(degree: int) -> st.SearchStrategy[Poly2]:
    """A random homogeneous polynomial of the given degree, zero included."""
    return st.lists(st.integers(-3, 3), min_size=degree + 1, max_size=degree + 1).map(
        Poly2.from_coeffs
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exp_series_equals_the_power_sum_witness(data) -> None:
    # e^{a x} e^{b y}, each in closed form, against the sum of
    # (a x + b y)^m / m!, for a and b of degree 1, either of them zero
    order = data.draw(st.integers(0, 10))
    a = data.draw(_homogeneous(1))
    b = data.draw(_homogeneous(1))
    s = Series2.monomial(order, 1, 0) * a + Series2.monomial(order, 0, 1) * b
    assert exp_series(a, order) * swap_xy(exp_series(b, order)) == power_sum_exp(s)


def test_inv_series_frozen_coefficients() -> None:
    order = 3
    denom = Series2.monomial(order, 0, 0) - eta_linear(order) * T
    inv = inv_series(denom)
    assert inv.coeff(0, 0).coeffs == (1,)
    assert inv.coeff(1, 0) == T
    assert inv.coeff(2, 0) == A * T + 2 * power(T, 2)
    assert (inv * denom) == Series2.monomial(order, 0, 0)
    with pytest.raises(ValueError):
        inv_series(Series2.monomial(3, 1, 0))
    # t at (0, 0) packs to 1 as the constant 1 does, but its offset is -1
    with pytest.raises(ValueError, match="^inverse needs constant coefficient 1$"):
        inv_series(Series2.monomial(3, 0, 0) * T)


@pytest.mark.parametrize("order", range(2, 11))
def test_inv_series_inverts_every_family_denominator(order: int) -> None:
    # 1 - t eta(x) (pe, st) by the library; its mirror 1 - t eta(y) and
    # its copy at x + y (the two-variable families, pe at x + y and
    # phi) by the list kernel, as the library refuses a slot in y
    denom = Series2.monomial(order, 0, 0) - eta_linear(order) * T
    assert denom * inv_series(denom) == Series2.monomial(order, 0, 0)
    for s in (swap_xy(denom), series._diagonal(denom)):
        assert s * list_inv_series(s) == Series2.monomial(order, 0, 0)
        refused = r"^inverse needs a series in x alone, not one with slot \(0, 1\)$"
        with pytest.raises(ValueError, match=refused):
            inv_series(s)


@pytest.mark.parametrize("order", range(17))
def test_the_diagonal_denominator_equals_the_two_variable_inverse(order: int) -> None:
    # 1 / (1 - t eta(x + y)) inverted in two variables from the termwise
    # eta(x + y), against the copy of the one-variable inverse; and
    # eta(x + y) over it is pe at x + y
    eta_xy = eta_termwise(1, 1, order)
    inverse = list_inv_series(Series2.monomial(order, 0, 0) - eta_xy * T)
    assert inverse == series._diagonal(series._denominator(order))
    assert eta_xy * inverse == series._diagonal(family_f("pe", order))


@st.composite
def graded_series(draw, order: int, offset: int) -> Series2:
    """A random series whose slot (k, l) is homogeneous of degree k + l - offset."""
    coeffs = {}
    for k in range(order + 1):
        for l in range(order + 1 - k):
            n = k + l - offset
            if n >= 0 and draw(st.booleans()):
                coeffs[(k, l)] = Poly2.from_coeffs(
                    draw(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1))
                )
    s = series_of(order, coeffs)
    assert s.offset == (offset if s else 0)
    return s


_OFFSETS = st.integers(-2, 2)


def _mirror_x(s: Series2) -> Series2:
    """s(-x, y): odd powers of x change sign."""
    return series_of(s.order, {(k, l): p * (-1) ** k for (k, l), p in s.items()})


def _unit(order: int, tail: Series2) -> Series2:
    """tail with its constant slot set to 1."""
    return series_of(order, {**dict(tail.items()), (0, 0): _const(1)})


def _rogue_slot_is_refused(data, s: Series2, offset: int) -> None:
    """s with one slot redrawn a degree above the grading of offset is refused.

    ``series_of`` reads the grading off the first slot in (k + l, k)
    order, so it names the rogue slot, or the slot after it when the rogue
    slot comes first; a rogue slot alone is a series of its own grading.
    """
    order = s.order
    slots = [(k, l) for k in range(order + 1) for l in range(order + 1 - k) if k + l >= offset - 1]
    if not slots:
        return
    k, l = data.draw(st.sampled_from(slots))
    n = k + l - offset + 1
    rogue = Poly2.from_coeffs(
        data.draw(st.lists(st.integers(1, 3), min_size=n + 1, max_size=n + 1))
    )
    polys = {**dict(s.items()), (k, l): rogue}
    first, *rest = sorted(polys, key=lambda slot: (sum(slot), slot))
    if not rest:
        assert series_of(s.order, polys).offset == offset - 1
        return
    named = rest[0] if first == (k, l) else (k, l)
    with pytest.raises(ValueError, match=rf"^slot \({named[0]}, {named[1]}\) of degree "):
        series_of(s.order, polys)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_product_and_inverse_agree_with_the_raw_series_witness(data) -> None:
    # The binomial product of the stored k! l! coefficients against the
    # plain product of [x^k y^l] over Fraction, and the same for the
    # inverse; the witness knows no degrees, so a slot decoded with a wrong
    # digit count shows.  s(x) s(-x) is even in x, so its odd slots cancel,
    # and inverting an inverse cancels every slot the sparse unit lacks.
    order = data.draw(st.integers(0, 4))
    left = data.draw(graded_series(order, data.draw(_OFFSETS)))
    right = data.draw(graded_series(order, data.draw(_OFFSETS)))
    for a, b in ((left, right), (left, _mirror_x(left))):
        product = a * b
        assert raw_from_series(product) == raw_mul(raw_from_series(a), raw_from_series(b), order)
        assert product.offset == a.offset + b.offset
    # the library inverts a unit in x alone, the list kernel one in x and y
    unit = _unit(order, data.draw(graded_series(order, 0)))
    for invert, s in ((inv_series, restrict_y0(unit)), (list_inv_series, unit)):
        inverse = invert(s)
        assert raw_from_series(inverse) == raw_inv(raw_from_series(s), order)
        assert raw_from_series(invert(inverse)) == raw_inv(raw_from_series(inverse), order)
        assert invert(inverse) == s


def _all_pairs_product(a: Series2, b: Series2) -> dict:
    """The binomial product's slots, by Poly2 arithmetic over every slot pair."""
    out: dict = {}
    for (k1, l1), p in a.items():
        for (k2, l2), q in b.items():
            k, l = k1 + k2, l1 + l2
            if k + l <= a.order:
                out[(k, l)] = out.get((k, l), Poly2.from_coeffs(())) + p * q * (
                    comb(k, k1) * comb(l, l1)
                )
    return {slot: p for slot, p in out.items() if p}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_slot_products_equal_the_all_pairs_product(data) -> None:
    # The product walks the denser operand by total degree and stops each
    # outer slot at the truncation order; the reference visits every pair.
    # A factor with a rogue slot one degree off its grading is refused
    # where it is built, so no product ever sees it.
    order = data.draw(st.integers(0, 5))
    offset = data.draw(_OFFSETS)
    left = data.draw(graded_series(order, offset))
    right = data.draw(graded_series(order, data.draw(_OFFSETS)))
    assert dict((left * right).items()) == _all_pairs_product(left, right)
    _rogue_slot_is_refused(data, left, offset)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_packed_kernel_equals_the_list_kernel(data) -> None:
    # Products of random signed graded series, s(x) s(-x) among them, whose
    # odd slots cancel, and inverses: of a unit in x alone against the
    # list kernel, and of one in x and y by the list kernel against the
    # raw witness, so that the two references check each other.  A rogue
    # slot one degree off the grading of a factor, or of the series
    # inverted, is refused where the series is built.
    order = data.draw(st.integers(0, 4))
    offset = data.draw(_OFFSETS)
    left = data.draw(graded_series(order, offset))
    right = data.draw(graded_series(order, data.draw(_OFFSETS)))
    for a, b in ((left, right), (left, _mirror_x(left)), (right, left)):
        assert a * b == list_product(a, b)
    unit = _unit(order, data.draw(graded_series(order, 0)))
    assert inv_series(restrict_y0(unit)) == list_inv_series(restrict_y0(unit))
    assert raw_from_series(list_inv_series(unit)) == raw_inv(raw_from_series(unit), order)
    _rogue_slot_is_refused(data, left, offset)
    _rogue_slot_is_refused(data, unit, 0)


@st.composite
def wide_slots(draw, order: int, offset: int) -> dict:
    """Up to 8 slots graded by offset, as coefficient tuples that may outgrow the fields.

    Coefficients are small and signed, zero, or up to 2^(W+8) in size, so a
    slot may be all zeros or carry digits no field of width W holds.
    """
    wide = 1 << series._width(order) + 8
    coeff = st.one_of(st.integers(-3, 3), st.just(0), st.integers(-wide, wide))
    graded = [(k, l) for k, l in series._layout(order) if k + l >= offset]
    chosen = draw(st.lists(st.sampled_from(graded), max_size=8, unique=True)) if graded else []
    counts = {(k, l): k + l - offset + 1 for k, l in chosen}
    return {sl: tuple(draw(st.lists(coeff, min_size=n, max_size=n))) for sl, n in counts.items()}


def _as_series(order: int, held: dict) -> SimpleNamespace:
    """What the list kernel reads of a series: its order and nonzero slots, of any size."""
    items = [(sl, Poly2.from_coeffs(c)) for sl, c in held.items() if any(c)]
    return SimpleNamespace(order=order, items=lambda: items)


@pytest.mark.parametrize("order", range(17))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_divided_power_kernel_equals_the_list_kernel(order: int, data) -> None:
    # Orders 13 and above scale by N!^2 past 2^64.  Slots may be negative,
    # zero or wider than their fields: evaluation at alpha = 2^W is a ring
    # map, so the packed product is the list product packed, whatever the
    # digits.  Monomials and the zero series are among the operands.
    width = series._width(order)
    a, b = (data.draw(wide_slots(order, data.draw(_OFFSETS))) for _ in range(2))
    if data.draw(st.booleans()):
        b = dict(list(b.items())[:1])  # a monomial, or the zero series
    packed = [[_pack(held.get(sl, ()), width) for sl in series._layout(order)] for held in (a, b)]
    products = list_slot_products(_as_series(order, a), _as_series(order, b))
    expected = [_pack(products.get(sl, ()), width) for sl in series._layout(order)]
    assert series._product(*packed, order) == series._product(*packed[::-1], order) == expected
    # within the fields, the series product decodes to the list kernel's
    left, right = (
        series_of(order, {sl: Poly2.from_coeffs(c) for sl, c in held.items() if max(map(abs, c)) < 4})
        for held in (a, b)
    )
    assert left * right == list_product(left, right)


def test_series_off_one_grading_are_refused() -> None:
    # 1 + x: the constant sets offset 0, so x of degree 0 is off it
    with pytest.raises(ValueError, match=r"^slot \(1, 0\) of degree 0 is off grading offset 0$"):
        series_of(2, {(0, 0): _const(1), (1, 0): _const(1)})
    # the first slot in (k + l, k) order sets the grading, in any input order
    with pytest.raises(ValueError, match=r"^slot \(1, 1\) of degree 0 is off grading offset 0$"):
        series_of(3, {(1, 1): _const(1), (1, 0): A, (0, 1): T})
    # nonzero series of two gradings do not add, nor compare slot by slot
    with pytest.raises(ValueError, match="^grading offsets 1 and 0 do not add$"):
        eta_linear(2) + Series2.monomial(2, 0, 0)
    with pytest.raises(ValueError, match="^grading offsets 0 and 1 do not add$"):
        Series2.monomial(2, 0, 0) - eta_linear(2)
    # 1 and t pack alike at (0, 0); their offsets tell them apart, and
    # first_mismatch refuses them as a sum does
    assert Series2.monomial(2, 0, 0) != Series2.monomial(2, 0, 0) * T
    with pytest.raises(ValueError, match="^grading offsets 1 and 0 do not add$"):
        first_mismatch(eta_linear(2), Series2.monomial(2, 0, 0))
    with pytest.raises(ValueError, match="^grading offsets 0 and -1 do not add$"):
        first_mismatch(Series2.monomial(2, 0, 0), Series2.monomial(2, 0, 0) * T)
    with pytest.raises(ValueError, match="^grading offsets 0 and -1 do not add$"):
        first_mismatch(Series2.monomial(3, 1, 0) * A, Series2.monomial(3, 1, 0) * (A * T))
    # the zero series matches any grading
    assert (series_of(2) + eta_linear(2)).offset == (eta_linear(2) - series_of(2)).offset == 1
    assert eta_linear(2) + series_of(2) == eta_linear(2)


def test_each_operation_derives_its_offset() -> None:
    # slot (k, l) has degree k + l - offset: a product adds offsets, a
    # scalar of degree d subtracts d (the zero polynomial, of no entries,
    # adds 1), d/dx subtracts 1, d/dt adds 1, and the monomial at (k, l)
    # has offset k + l
    pe = family_f("pe", 4)
    assert (pe * pe).offset == 2
    assert (pe * (A * T)).offset == -1
    assert (pe * _const(3)).offset == 1
    assert (pe * ZERO).offset == 2
    assert deriv_x(pe).offset == 0
    assert series.deriv_y(swap_xy(pe)).offset == 0
    assert deriv_t(pe).offset == 2
    assert Series2.monomial(4, 2, 1).offset == 3
    assert (Series2.monomial(4, 2, 1) * (A * T)).offset == 1
    assert (Series2.monomial(4, 5, 0) * A).offset == 4
    for same in (truncate(pe, 2), swap_xy(pe), series._diagonal(pe), subst_h_series(pe)):
        assert same.offset == 1
    assert series._drop_one_term(pe).offset == 1
    assert inv_series(Series2.monomial(4, 0, 0) - eta_linear(4) * T).offset == 0


def test_the_fields_hold_every_coefficient_of_the_largest_order(
    monkeypatch, cold_series_caches
) -> None:
    # Every series the identity suite and the five family series build at
    # the command line's largest order, decoded: the largest coefficient
    # has 56 bits (a slot of d/dt of the st series), and each series keeps
    # at least 14 bits between its largest coefficient and its fields.
    # Each passes through the one constructor, the two sides of every
    # identity and the family series among them.
    built, compared = [], []
    plain, plain_mismatch = Series2.__init__, series.first_mismatch

    def recorded(self, *args) -> None:
        plain(self, *args)
        built.append(self)

    monkeypatch.setattr(Series2, "__init__", recorded)
    monkeypatch.setattr(
        series, "first_mismatch", lambda a, b: compared.extend((a, b)) or plain_mismatch(a, b)
    )
    assert all(m is None for m in identity_suite(MAX_ORDER).values())
    families = [family_f(fam, MAX_ORDER) for fam in FAMILIES]
    assert len(compared) == 2 * len(IDENTITY_NAMES)
    assert {id(s) for s in compared + families} <= {id(s) for s in built}
    largest = [
        (s._width, max(abs(c) for _, p in s.items() for c in p.coeffs).bit_length())
        for s in built
        if s
    ]
    assert max(bits for _, bits in largest) == 56
    assert min(width - 1 - bits for width, bits in largest) == 14


def _dense_egf_product(p: tuple, q: tuple) -> tuple:
    return tuple(sum(comb(n, j) * p[j] * q[n - j] for j in range(n + 1)) for n in range(len(p)))


def test_the_bound_product_matches_the_dense_sum() -> None:
    # one packed product gives the dense sum's tuples, on the bounds the
    # library forms and on entries that fill each field to its N term:
    # with every entry 2^b - 1, field 1 of the product is 2 N!^2 (2^b - 1)^2;
    # the family series' bounds are built up to the command line's ceiling
    # only, the others at orders above it too
    for order in (*range(17), 24, 32, 40):
        bounds = [eta_linear(order)._bounds, Series2.monomial(order, 1, 0)._bounds]
        if order <= MAX_ORDER:
            bounds += [family_f(fam, order)._bounds for fam in FAMILIES]
        for p in bounds:
            for q in bounds:
                assert series._egf_product(p, q) == _dense_egf_product(p, q)
        for bits in (1, 5, 13, series._width(order) + 3):
            full = ((1 << bits) - 1,) * (order + 1)
            assert series._egf_product(full, full) == _dense_egf_product(full, full)
    # E^6 R^2 as E^5 R', one sum over the ordered Bell numbers
    for order in range(41):
        bell = _egf_inverse((0,) + (1,) * order)
        e6 = tuple(6**m for m in range(order + 1))
        dense = _dense_egf_product(_dense_egf_product(bell, bell), e6)[-1]
        assert series._width(order) == (250 * dense).bit_length() + 1


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_packed_bound_product_matches_the_dense_sum(data) -> None:
    # zero entries, order 0, and entries at and above 2^W
    order = data.draw(st.integers(0, 40))
    wide = 1 << series._width(order) + 4
    entry = st.one_of(st.just(0), st.integers(0, 9), st.integers(0, wide), st.just(wide - 1))
    p, q = (tuple(data.draw(st.lists(entry, min_size=order + 1, max_size=order + 1))) for _ in "pq")
    assert series._egf_product(p, q) == series._egf_product(q, p) == _dense_egf_product(p, q)


def test_coefficients_that_outgrow_the_fields_raise() -> None:
    width = series._width(2)
    with pytest.raises(ArithmeticError, match=f"^coefficients outgrow the {width}-bit fields of order 2"):
        series_of(2, {(0, 0): _const(1 << width - 1)})
    with pytest.raises(ArithmeticError, match=f"^coefficients outgrow the {width}-bit fields of order 2"):
        Series2.monomial(2, 1, 0) * _const(1 << width - 1)
    half = series_of(2, {(1, 0): _const(1 << width // 2)})
    with pytest.raises(ArithmeticError, match="outgrow"):
        half * half
    # a packed slot with a digit beyond its count names itself on decoding
    s = Series2.monomial(4, 2, 1) * (A + T)
    s._coeffs[series._index(2, 1)] = 1 << 2 * series._width(4)
    with pytest.raises(ArithmeticError, match=r"^slot \(2, 1\) does not fit"):
        s.coeff(2, 1)


def test_a_slot_that_cancels_is_dropped() -> None:
    # (1 + t x)(1 - t x) = 1 - t^2 x^2, stored as 1 - 2 t^2 x^2/2!
    one_plus = series_of(2, {(0, 0): _const(1), (1, 0): T})
    one_minus = series_of(2, {(0, 0): _const(1), (1, 0): -T})
    product = one_plus * one_minus
    assert [slot for slot, _ in product.items()] == [(0, 0), (2, 0)]
    assert not product.coeff(1, 0)
    assert product.coeff(2, 0) == -2 * power(T, 2)
    # 1 / (1 + z + z^2) = (1 - z) / (1 - z^3) = 1 - z + z^3 - ... at
    # z = t x, with no x^2
    one = Poly2.from_coeffs((1,))
    inv = inv_series(series_of(3, {(0, 0): one, (1, 0): T, (2, 0): 2 * power(T, 2)}))
    assert inv.items() == [((0, 0), one), ((1, 0), -T), ((3, 0), 6 * power(T, 3))]
    assert not inv.coeff(2, 0)


def test_series_the_module_builds_hold_no_zero_slot() -> None:
    # results of the module's operations still drop a slot whose
    # coefficient is zero, so they compare equal to series_of's
    one = Series2.monomial(3, 0, 0)
    assert deriv_t(one) == series_of(3)
    alpha_plus = Series2.monomial(3, 0, 0) * A + Series2.monomial(3, 1, 0) * (A * T)
    assert deriv_t(alpha_plus).items() == [((1, 0), A)]
    assert exp_series(ZERO, 3) == one
    assert truncate(series._diagonal(eta_linear(3)), 0) == series_of(0)
    assert deriv_x(Series2.monomial(3, 0, 2) * A) == series_of(2)


def test_every_series_shares_one_denominator_per_order(monkeypatch, cold_series_caches) -> None:
    # 1/(1 - t eta(x)) is the one inversion, of a series in x alone;
    # y and x + y take its mirror and its copy
    inverted, inverses = [], []
    plain = series.inv_series

    def counted(s: Series2) -> Series2:
        inverted.append(s)
        inverses.append(plain(s))
        return inverses[-1]

    monkeypatch.setattr(series, "inv_series", counted)
    assert all(m is None for m in identity_suite(8).values())
    assert len(inverses) == 1
    order = 6
    inverted.clear()
    inverses.clear()
    family_f("nabla-because", order)
    family_f("because-because", order)
    series._phi_f(order)
    assert len(inverses) == 1
    assert series._denominator(order) is inverses[0]
    assert all(l == 0 for (_, l), _ in inverted[0].items())


def test_operands_of_two_packings_raise(cold_series_caches) -> None:
    # a truncation keeps its order's fields, so it is refused beside a
    # series built at the lower order; the identity suite truncates every
    # low-order operand from its own order, so it never meets two packings
    low, built = truncate(family_f("pe", 6), 4), family_f("pe", 4)
    widths = f"{series._width(6)}-bit vs {series._width(4)}-bit"
    for op in (Series2.__add__, Series2.__sub__, Series2.__mul__, first_mismatch):
        with pytest.raises(ValueError, match=f"^packing mismatch: {widths} fields$"):
            op(low, built)
    assert low == built
    assert all(m is None for m in identity_suite(8).values())


def test_a_zero_scalar_keeps_the_operands_packing() -> None:
    # a truncation keeps its parent order's fields, and so does its product
    # with the zero polynomial, so the product adds back onto it
    for parent, order in ((8, 5), (8, 0), (6, 4), (10, 7), (5, 5)):
        t = truncate(family_f("pe", parent), order)
        product = t * ZERO
        assert not product and product._width == t._width == series._width(parent)
        assert product.order == order
        assert t * ZERO + t == t
        assert t - t * ZERO == t


def test_subst_h_series_matches_coefficientwise_substitution() -> None:
    s = Series2.monomial(2, 1, 0) * power(A, 2) + Series2.monomial(2, 0, 1) * (A * T)
    h = subst_h_series(s)
    assert h.coeff(1, 0) == power(A - T, 2)
    assert h.coeff(0, 1) == (A - T) * T
    # a truncation keeps the wider fields of its order, and so does its
    # substitution, so it meets other truncations of that order
    low = truncate(family_f("pe", 6), 4)
    assert subst_h_series(low)._width == low._width == series._width(6) > series._width(4)


def test_first_mismatch_reports_the_smallest_slot() -> None:
    a = Series2.monomial(3, 2, 1) * A
    b = Series2.monomial(3, 2, 1) * T
    k, l, diff = first_mismatch(a, b)
    assert (k, l) == (2, 1)
    assert diff == A - T
    assert first_mismatch(a, a) is None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_equality_holds_exactly_where_first_mismatch_finds_none(data) -> None:
    # b is a, a one-slot change of it, the zero series or a fresh draw at
    # a's grading; == reads decoded coefficients, first_mismatch packed ones
    order = data.draw(st.integers(0, 4))
    offset = data.draw(_OFFSETS)
    a = data.draw(graded_series(order, offset))
    slots = [(k, l) for k in range(order + 1) for l in range(order + 1 - k) if k + l >= offset]
    k, l = data.draw(st.sampled_from(slots)) if slots else (0, 0)
    changed = dict(a.items())
    changed[(k, l)] = data.draw(_homogeneous(k + l - offset)) if slots else Poly2.from_coeffs(())
    b = data.draw(
        st.sampled_from(
            [a, series_of(order, changed), series_of(order), data.draw(graded_series(order, offset))]
        )
    )
    assert (a == b) == (first_mismatch(a, b) is None) == (b == a)
    found = first_mismatch(a, b)
    if found is not None:
        assert found[2] == a.coeff(*found[:2]) - b.coeff(*found[:2])
        assert found[2]


def _same(s: Series2, order: int, polys: dict, offset: int) -> None:
    """s holds exactly polys, at an order and, where nonzero, an offset."""
    assert s == series_of(order, polys)
    assert s.order == order
    assert s.offset == offset or not s
    assert len(s._coeffs) == (order + 1) * (order + 2) // 2


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_list_operations_equal_slot_by_slot_references(data) -> None:
    # Each operation on the list, against the same operation written over
    # items(): a prefix, a reversal per degree, per-degree slices, digits
    # scaled in place, a copy per degree, elementwise differences and one
    # placed slot.
    order = data.draw(st.integers(0, 6))
    offset = data.draw(_OFFSETS)
    s = data.draw(graded_series(order, offset))
    polys = dict(s.items())
    low = data.draw(st.integers(0, order))
    _same(truncate(s, low), low, {sl: p for sl, p in polys.items() if sum(sl) <= low}, offset)
    _same(swap_xy(s), order, {(l, k): p for (k, l), p in polys.items()}, offset)
    if order:
        shifted_x = {(k - 1, l): p for (k, l), p in polys.items() if k}
        shifted_y = {(k, l - 1): p for (k, l), p in polys.items() if l}
        _same(deriv_x(s), order - 1, shifted_x, offset - 1)
        _same(series.deriv_y(s), order - 1, shifted_y, offset - 1)
    dt = {sl: poly_deriv_t(p) for sl, p in polys.items()}
    _same(deriv_t(s), order, dt, offset + 1)
    assert deriv_t(s)._bounds == series_of(order, dt)._bounds  # exact, as series_of's
    in_x = restrict_y0(s)
    copies = {(k, n - k): p for (n, _), p in in_x.items() for k in range(n + 1)}
    _same(series._diagonal(in_x), order, copies, in_x.offset)
    other = data.draw(graded_series(order, offset))
    differences = dict(polys)
    for sl, p in other.items():
        differences[sl] = differences[sl] - p if sl in differences else -p
    _same(s - other, order, differences, offset)
    k, l = data.draw(st.integers(0, order + 2)), data.draw(st.integers(0, order + 2))
    p = data.draw(_homogeneous(data.draw(st.integers(0, 3))))
    held = {(k, l): p} if k + l <= order else {}
    placed = Series2.monomial(order, k, l) * p
    _same(placed, order, held, k + l - len(p.coeffs) + 1)
    assert placed.offset == k + l - len(p.coeffs) + 1
    assert placed._bounds == series_of(order, held)._bounds
    # a slot outside the triangle reads as zero, never as another slot
    for outside in ((-1, 1), (1, -1), (order + 1, 0), (0, order + 1)):
        assert not s.coeff(*outside)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_products_commute_whichever_operand_is_sparser(data) -> None:
    # the kernel runs the operand with fewer nonzero slots outside, so
    # either order of the operands walks the same pairs
    order = data.draw(st.integers(0, 6))
    a = data.draw(graded_series(order, data.draw(_OFFSETS)))
    b = data.draw(graded_series(order, data.draw(_OFFSETS)))
    ab, ba = a * b, b * a
    assert (ab._coeffs, ab._bounds, ab.offset) == (ba._coeffs, ba._bounds, ba.offset)
    assert ab == ba == list_product(a, b)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_deriv_t_refuses_an_overlong_slot(data) -> None:
    # a digit one field above a slot's k + l - offset + 1 (any digit, for
    # a slot below the grading) is refused with the decoder's message
    order = data.draw(st.integers(0, 6))
    s = data.draw(graded_series(order, data.draw(_OFFSETS)))
    k, l = data.draw(st.sampled_from(series._layout(order)))
    count = k + l - s.offset + 1
    s._coeffs[series._index(k, l)] += 1 << s._width * max(count, 0)
    message = rf"^slot \({k}, {l}\) does not fit {s._width}-bit fields$"
    for read in (deriv_t, lambda s: s.coeff(k, l)):
        with pytest.raises(ArithmeticError, match=message):
            read(s)


@pytest.mark.parametrize("fam", list(FAMILIES))
@pytest.mark.parametrize("n", range(7))
def test_a_truncation_equals_the_series_built_at_its_order(fam: str, n: int) -> None:
    assert truncate(family_f(fam, n + 2), n) == family_f(fam, n)


# ---------------------------------------------------------------------------
# families


@pytest.mark.parametrize("fam", list(FAMILIES))
def test_each_member_is_the_induced_subgraph_of_its_mask_in_the_largest_graph(fam: str) -> None:
    # verify reads member (k, l) as the node mask nodes_at(k, l, n) of
    # graph_at(n, n), so that mask's induced subgraph, renumbered in node
    # order, must be graph_at(k, l) with its own labels: the shared cache
    # then keys each member as fpoly would key the member itself.
    spec = FAMILIES[fam]
    for n in range(MAX_ORDER + 1):
        adj = spec.graph_at(n, n).adj
        for k, l in spec.indices(n):
            assert Graph(_induced_adj(adj, spec.nodes_at(k, l, n))) == spec.graph_at(k, l), (n, k, l)


@pytest.mark.parametrize("fam", list(FAMILIES))
def test_indices_run_in_total_degree_then_k_order(fam: str) -> None:
    # the family's members in the order a series' slots are compared:
    # every (k, l) with k + l <= bound, sorted by (k + l, k)
    spec = FAMILIES[fam]
    for bound in range(MAX_ORDER + 1):
        grid = [(k, l) for k in range(bound + 1) for l in range(bound + 1 - k) if spec.member(k, l)]
        assert spec.indices(bound) == sorted(grid, key=lambda s: (sum(s), s)), bound


def test_pe_series_coefficients_are_permutohedra() -> None:
    pe = family_f("pe", 4)
    assert pe.coeff(1, 0).coeffs == (1,)
    assert pe.coeff(2, 0) == A + 2 * T
    assert pe.coeff(3, 0) == power(A, 2) + 6 * A * T + 6 * power(T, 2)


def test_pe_h_coefficient_is_the_hexagon_h_polynomial() -> None:
    pe_h = family_h("pe", 4)
    assert pe_h.coeff(3, 0) == power(A, 2) + 4 * A * T + power(T, 2)


def test_coeff_normalized_matches_the_recursion() -> None:
    # The normalized coefficient, k! l! times that of x^k y^l, is the one a
    # Series2 stores; read at order k + l, the least that holds it, it is
    # the face polynomial of the polytope the family places at x^k y^l.
    for fam_id, k, l in [
        ("pe", 3, 0),
        ("st", 2, 0),
        ("starmarked", 2, 1),
        ("nabla-because", 2, 1),
        ("because-because", 2, 2),
    ]:
        spec = FAMILIES[fam_id]
        expected = fpoly(spec.graph_at(k, l))
        assert family_f(fam_id, k + l).coeff(k, l) == expected


def test_coeff_normalized_builds_the_order_the_index_needs() -> None:
    # The coefficient is read from a series built at k + l, so indices above
    # the default order are within reach, and it is the same at every
    # order that holds it.
    for fam_id, k, l in [("pe", 9, 0), ("pe", 12, 0), ("because-because", 5, 6)]:
        expected = fpoly(FAMILIES[fam_id].graph_at(k, l))
        for order in (k + l, k + l + 1, k + l + 2):
            assert family_f(fam_id, order).coeff(k, l) == expected, (fam_id, k, l, order)


def test_a_family_is_named_by_its_id_only() -> None:
    # A spec object, registered or built by a caller under a registered id,
    # is refused: its other fields would otherwise be read by some calls
    # and ignored by others.
    registered = FAMILIES["pe"]
    homemade = FamilySpec("pe", 0, lambda k, l: l == 0, registered.graph_at, registered.nodes_at)
    for spec in (registered, homemade):
        with pytest.raises(TypeError, match="^a family is named by its id, not by a FamilySpec$"):
            family_f(spec, 3)


def test_family_coefficients_are_homogeneous_of_family_dimension() -> None:
    order = 6
    for fam_id, spec in FAMILIES.items():
        series = family_f(fam_id, order)
        for k, l in spec.indices(order):
            coeff = series.coeff(k, l)
            assert coeff and len(coeff.coeffs) - 1 == spec.dim(k, l), (fam_id, k, l)


@pytest.mark.parametrize("fam", list(FAMILIES))
def test_family_series_are_graded_by_the_family_offset(fam: str) -> None:
    # zero series included: family_f of pe at order 0 has no slot, yet the
    # operations that build it give it the family's offset
    for order in range(17):
        offsets = (family_f(fam, order).offset, family_h(fam, order).offset)
        assert offsets == (FAMILIES[fam].offset,) * 2, order


def test_family_coefficients_are_ints() -> None:
    for fam_id in FAMILIES:
        for series in (family_f(fam_id, 8), family_h(fam_id, 8)):
            for slot, p in series.items():
                assert all(type(c) is int for _, c in p.terms()), (fam_id, slot)


@pytest.mark.parametrize("fam", list(FAMILIES))
def test_order_zero_is_the_truncation_of_order_one(fam: str) -> None:
    assert family_f(fam, 0) == truncate(family_f(fam, 1), 0)
    assert family_h(fam, 0) == truncate(family_h(fam, 1), 0)


@pytest.mark.parametrize("fam", list(FAMILIES))
def test_coefficients_do_not_depend_on_the_truncation_order(fam: str) -> None:
    # A coefficient at k + l <= m is the same whether the series is
    # expanded to order m or beyond; the CLI computes at the order it is
    # asked for and relies on this.
    deep_f, deep_h = family_f(fam, 10), family_h(fam, 10)
    for m in range(10):
        f, h = family_f(fam, m), family_h(fam, m)
        for k, l in FAMILIES[fam].indices(m):
            assert f.coeff(k, l) == deep_f.coeff(k, l), (m, k, l)
            assert h.coeff(k, l) == deep_h.coeff(k, l), (m, k, l)


def test_because_because_series_is_symmetric_in_x_and_y() -> None:
    bb = family_f("because-because", 6)
    assert swap_xy(bb) == bb
    nb = family_f("nabla-because", 6)
    assert swap_xy(nb) != nb


def _digest(s: Series2) -> str:
    return hashlib.sha256(repr([(slot, p.coeffs) for slot, p in s.items()]).encode()).hexdigest()


# sha256 of each series' slots at order 24, above the command line's
# largest order, recorded while every two-variable factor was built and
# inverted in two variables; the h-series and phi_h are the witness
# copies, recorded while the library built them
_ORDER_24_DIGESTS = {
    "f:pe": "be613d5e2b76e1db365deb293e49c51e2cca6195fb36ead4c95c107a3b6a61c0",
    "h:pe": "6d5bc7bcd254257d9fc366c4eff0f986867a8194354e7060a56c8a5b378994c7",
    "f:st": "b2b33176827d08ced179e38775f183c39521e6d1a6e2983e9010ac07ea1384cf",
    "h:st": "b8f64fa663caf815cff740d54d1427b81e4259c672bf899b3a927b5f79ff9cab",
    "f:starmarked": "55bbd25128b692cc89f7b253bf702632553cdd6cb6687a33ca99226bf3893801",
    "h:starmarked": "7e2f961c53d1dc3a13ac6ac0a82c4d06286fc586bc3a5be0b4095e1346329671",
    "f:nabla-because": "22a1e8506a445e060b270332715c4c5199813ba3f70f5f35d602444cd8f1aced",
    "h:nabla-because": "71a11a1abdac8a2cf206eb8fb741630c845c8d52c2dd55fc88444bb26951d9d1",
    "f:because-because": "bd65170b22464f156e7802d873e1271fd198b1fa3fd0992425681793f5c3e0e4",
    "h:because-because": "d4222e9733c0cd5a0df67dd30852f55449d57702574cfc239d8296f80d8ffab3",
    "f:pe(x+y)": "23bc7bdf50a4cc0d66e5e417c3c4a0fc3fbb02cde341b492063ea372a88ff0aa",
    "phi_h": "6ec4ec08f12709586b45e51b33ab37e571ed76013cac394dceaf38fa6cdfb1d8",
}


def test_series_digests_above_the_command_line_ceiling() -> None:
    order = 24
    assert order > MAX_ORDER
    built = {"f:pe(x+y)": series._diagonal(family_f("pe", order)), "phi_h": phi_h(order)}
    for fam in FAMILIES:
        built[f"f:{fam}"] = family_f(fam, order)
        built[f"h:{fam}"] = family_h(fam, order)
    assert {name: _digest(s) for name, s in built.items()} == _ORDER_24_DIGESTS


def test_pe_at_x_plus_y_collapses_to_pe_on_y_0() -> None:
    order = 6
    two_var = restrict_y0(series._diagonal(family_f("pe", order)))
    pe = family_f("pe", order)
    assert two_var == pe


def test_phi_h_slices() -> None:
    order = 6
    phi = phi_h(order)
    assert phi.coeff(0, 0).coeffs == (1,)
    assert not phi.coeff(0, 1)
    pe_h = family_h("pe", order)
    assert restrict_y0(phi) == Series2.monomial(order, 0, 0) + pe_h * (A + T)


@pytest.mark.parametrize("fam", list(FAMILIES))
def test_family_coefficients_equal_the_denominator_sum(cold_series_caches, fam: str) -> None:
    # Every index of the family at order 16, against a sum over the
    # denominator in plain int lists: no packing, width, bound, inverse or
    # diagonal copy is shared with the series.
    f = family_f(fam, 16)
    for k, l in FAMILIES[fam].indices(16):
        assert list(f.coeff(k, l).coeffs) == family_face_counts(fam, k, l), (k, l)


# ---------------------------------------------------------------------------
# the identity suite


@pytest.mark.parametrize("order", [2, 3, 4, 6, 8, 10])
def test_identity_suite_passes(order: int) -> None:
    results = identity_suite(order)
    assert list(results) == list(IDENTITY_NAMES)
    assert all(m is None for m in results.values()), results


@pytest.mark.parametrize("corrupt", [None, *IDENTITY_FAMILIES])
def test_i5_to_i8_between_face_series_match_them_between_h_series(corrupt) -> None:
    # alpha -> alpha - t is a ring automorphism acting on each slot alone,
    # so the suite's face-level check reports what the h-level one does
    for order in range(2, 11):
        suite = identity_suite(order, corrupt)
        assert list(suite.items())[4:] == list(h_level_identities(order, corrupt).items())


def test_a_passing_suite_substitutes_nothing(monkeypatch, cold_series_caches) -> None:
    # I5-I8 are compared between face series; only the difference of a
    # failed one is pushed through alpha -> alpha - t
    calls = []

    def counted(name: str):
        plain = getattr(series, name)

        def call(arg):
            calls.append(name)
            return plain(arg)

        monkeypatch.setattr(series, name, call)

    counted("h_from_f")
    assert not hasattr(series, "subst_h_series")
    assert all(m is None for m in identity_suite(8).values())
    assert calls == []
    results = identity_suite(6, corrupt="pe")
    assert [name for name, m in list(results.items())[4:] if m is not None] == ["I5"]
    assert calls == ["h_from_f"]


def test_identity_suite_rejects_tiny_orders() -> None:
    with pytest.raises(ValueError):
        identity_suite(1)


def test_corrupted_series_fails_with_a_located_index() -> None:
    results = identity_suite(6, corrupt="pe")
    failure = next((name for name, m in results.items() if m is not None), None)
    assert failure == "I1"
    k, l, diff = results[failure]
    assert (k, l) == (2, 0)
    assert diff
    assert all(type(c) is int for c in diff.coeffs)


# the identities that read each family's series, and so fail once one term
# of that series is dropped; I7 reads none of them
CORRUPTED_FAILURES = {
    "pe": ["I1", "I2", "I5"],
    "st": ["I2", "I5"],
    "nabla-because": ["I3", "I4", "I6", "I8"],
    "because-because": ["I4", "I8"],
}


@pytest.mark.parametrize("order", [4, 6, 8])
@pytest.mark.parametrize("family", CORRUPTED_FAILURES)
def test_each_corruption_fails_exactly_its_identities(family: str, order: int) -> None:
    results = identity_suite(order, corrupt=family)
    assert [name for name, m in results.items() if m is not None] == CORRUPTED_FAILURES[family]


def _term_by_term_sides(order: int, corrupt: str | None) -> list[tuple[Series2, Series2]]:
    """The eight identities' two sides, each right-hand term its own product.

    nabla-because and phi are built in their first association, the dense
    two-variable product times the diagonal denominator, and every term of
    I5-I8 is a product of operands truncated to order - 1.
    """
    fams = {fam: family_f(fam, order) for fam in IDENTITY_FAMILIES}
    denom = series._diagonal(series._denominator(order))
    eta = eta_linear(order)
    fams["nabla-because"] = swap_xy(exp_series(A + T, order)) * eta * denom
    phi = swap_xy(exp_series(-T, order)) * (exp_series(A, order) + eta * T) * denom
    if corrupt is not None:
        fams[corrupt] = series._drop_one_term(fams[corrupt])
    pe, st, nb, bb = (fams[fam] for fam in IDENTITY_FAMILIES)
    pe_sum = series._diagonal(family_f("pe", order))
    x, y = Series2.monomial(order, 1, 0), Series2.monomial(order, 0, 1)
    at, apt, low = (A + T) * T, A + 2 * T, order - 1
    pe_l, st_l, nb_l, bb_l, sum_l, x_l, y_l, phi_l = (
        truncate(s, low) for s in (pe, st, nb, bb, pe_sum, x, y, phi)
    )
    grow_phi = truncate(swap_xy(exp_series(apt, order)), low) * phi_l
    i4 = x * swap_xy(nb) + y * nb + bb * pe_sum - (x + y) * pe_sum
    i8 = bb_l * sum_l * at + swap_xy(nb_l) * apt - sum_l * apt - (x_l + y_l) * sum_l * at
    return [
        (deriv_t(pe), pe * pe),
        (deriv_t(st), x * st + pe * st),
        (deriv_t(nb), nb * y + nb * pe_sum),
        (deriv_t(bb), i4),
        (deriv_x(st), st_l * apt + pe_l * st_l * at),
        (deriv_x(nb), grow_phi + nb_l * sum_l * at),
        (series.deriv_y(phi), sum_l * phi_l * at),
        (deriv_x(bb), i8 + grow_phi),
    ]


@pytest.mark.parametrize("corrupt", [None, *IDENTITY_FAMILIES])
def test_the_factored_right_hand_sides_equal_the_term_by_term_ones(monkeypatch, corrupt) -> None:
    # the suite shares its products, gathers them by pe at x + y (the
    # product is bilinear), reads I5, I6 and I8 off truncations of I2's,
    # I3's and I4's, and builds nabla-because and phi by their one-variable
    # factors first (the product is associative): both sides hold the same
    # slots, bounds and offset, and the first mismatch is the same under
    # every corruption
    compared = []
    plain = series.first_mismatch
    monkeypatch.setattr(series, "first_mismatch", lambda a, b: compared.append((a, b)) or plain(a, b))
    for order in range(2, 13):
        compared.clear()
        results = identity_suite(order, corrupt)
        for i, sides in enumerate(_term_by_term_sides(order, corrupt)):
            for held, expected in zip(compared[i], sides):
                assert (held._coeffs, held._bounds) == (expected._coeffs, expected._bounds), (order, i)
                assert held.offset == expected.offset, (order, i)
            found = plain(*sides)
            if found is not None and i >= 4:  # I5-I8 report their difference at the h level
                found = (found[0], found[1], h_from_f(found[2]))
            assert results[IDENTITY_NAMES[i]] == found, (order, i)


@pytest.mark.parametrize(("order", "pairs"), [(6, 788), (8, 1873), (16, 18653)])
def test_the_suite_forms_each_product_once(monkeypatch, cold_series_caches, order, pairs) -> None:
    # 17 products from cold caches: 9 build the family series and phi, 8
    # the right-hand sides.  A pair is two nonzero slots whose degrees add
    # to at most the order, one multiplication of the kernel's inner loop.
    counts = [0, 0]
    plain = series._product

    def counted(a: list, b: list, at: int) -> list:
        degrees = [[k + l for (k, l), v in zip(series._layout(at), s) if v] for s in (a, b)]
        counts[0] += 1
        counts[1] += sum(d1 + d2 <= at for d1 in degrees[0] for d2 in degrees[1])
        return plain(a, b, at)

    monkeypatch.setattr(series, "_product", counted)
    assert all(m is None for m in identity_suite(order).values())
    assert counts == [17, pairs]
    # I8 mirrors nabla-because at the full order, so no order - 1 mirror is built
    assert series._mirror.cache_info().currsize == 1
    series._mirror(order)
    assert series._mirror.cache_info().currsize == 1


def test_corrupting_an_unknown_family_raises() -> None:
    with pytest.raises(ValueError, match="^cannot corrupt unknown family 'starmarked'$"):
        identity_suite(4, corrupt="starmarked")


def test_identity_report_serialization(capsys) -> None:
    assert main(["identities", "--order", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["order"] == 3
    assert obj["passed"] is True
    assert [r["identity"] for r in obj["results"]] == list(IDENTITY_NAMES)
    assert all(r == {"identity": r["identity"], "passed": True} for r in obj["results"])


def test_identity_result_reports_the_raw_difference(capsys, monkeypatch) -> None:
    # the stored k! l! difference at (2, 1), written divided by 2! 1! = 2
    stored = Poly2.from_coeffs((4, 0, -3, 1))
    monkeypatch.setattr(cli, "identity_suite", lambda order, corrupt=None: {"I5": (2, 1, stored)})
    assert main(["identities", "--order", "3"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "order": 3,
        "passed": False,
        "results": [
            {
                "identity": "I5",
                "passed": False,
                "mismatch": {
                    "k": 2,
                    "l": 1,
                    "difference": [
                        {"i": 0, "j": 3, "c": "2"},
                        {"i": 2, "j": 1, "c": "-3/2"},
                        {"i": 3, "j": 0, "c": "1/2"},
                    ],
                },
            }
        ],
    }


# ---------------------------------------------------------------------------
# derivatives at the series level


def test_deriv_x_of_pe_equals_boundary_identity_shape() -> None:
    # d/dt Pe_f = Pe_f^2 is identity I1; spot-check it directly at order 5.
    order = 5
    pe = family_f("pe", order)
    lhs = deriv_t(pe)
    rhs = pe * pe
    assert first_mismatch(lhs, rhs) is None


def test_deriv_x_loses_one_order() -> None:
    s = family_f("pe", 4)
    assert deriv_x(s).order == 3


def test_default_order_is_used_when_unspecified() -> None:
    assert family_f("pe").order == DEFAULT_ORDER

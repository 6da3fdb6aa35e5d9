"""Exact polynomial arithmetic, the f -> h substitution, and gamma vectors."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

import nestohedra
from nestohedra.algebra import (
    GammaVector,
    Poly2,
    _digits,
    _pack,
    gamma_from_h,
    h_from_f,
)
from witnesses import (
    f_from_h,
    h_from_gamma,
    integrate_t,
    poly_deriv_t,
    poly_from_records,
    power,
    sparse_add,
    sparse_deriv_t,
    sparse_gamma_from_h,
    sparse_h_from_f,
    sparse_h_from_gamma,
    sparse_integrate_t,
    sparse_mul,
    sparse_neg,
)

A = Poly2.from_coeffs((0, 1))
T = Poly2.from_coeffs((1, 0))

# zero often, so that dense coefficient tuples carry zeros inside
COEFFICIENTS = st.one_of(
    st.just(0),
    st.integers(min_value=-1000, max_value=1000),
)


@st.composite
def homogeneous(draw, degree: int | None = None, coefficients=COEFFICIENTS):
    """A homogeneous polynomial of degree 0..8, as a Poly2 and as sparse terms."""
    d = draw(st.integers(min_value=0, max_value=8)) if degree is None else degree
    coeffs = draw(st.lists(coefficients, min_size=d + 1, max_size=d + 1))
    return Poly2.from_coeffs(coeffs), {(i, d - i): c for i, c in enumerate(coeffs) if c}


def test_ring_arithmetic_basics() -> None:
    square = (A + T) * (A + T)
    assert square == A * A + 2 * A * T + T * T
    assert power(A + T, 2) == square
    assert power(A + T, 0) == Poly2.from_coeffs((1,))
    assert square.coeffs == (1, 2, 1)
    assert not square - square
    assert (A + T) * Poly2.from_coeffs(()) == Poly2.from_coeffs(())


def test_deriv_t() -> None:
    p = power(A, 2) * power(T, 3) + 2 * power(A, 4) * T
    assert poly_deriv_t(p) == 3 * power(A, 2) * power(T, 2) + 2 * power(A, 4)
    assert not poly_deriv_t(power(A, 3))
    assert not poly_deriv_t(Poly2.from_coeffs((5,)))


def test_records_round_trip() -> None:
    p = power(A, 2) - 7 * A * T + power(T, 2)
    records = p.to_records()
    assert records == [
        {"i": 0, "j": 2, "c": "1"},
        {"i": 1, "j": 1, "c": "-7"},
        {"i": 2, "j": 0, "c": "1"},
    ]
    assert poly_from_records(records) == p


def test_gamma_from_h_reads_the_degree_and_refuses_zero() -> None:
    assert gamma_from_h(power(A, 2) + 4 * A * T + power(T, 2)).n == 2
    assert gamma_from_h(Poly2.from_coeffs((1,))) == GammaVector(0, (1,))
    with pytest.raises(ValueError, match="^zero polynomial has no homogeneous degree$"):
        gamma_from_h(Poly2.from_coeffs(()))
    with pytest.raises(ValueError, match="^mixed total degrees 1 and 2$"):
        A + power(T, 2)


def test_mixed_total_degrees_are_refused() -> None:
    with pytest.raises(ValueError, match="^mixed total degrees 1 and 2$"):
        A + power(T, 2)
    with pytest.raises(ValueError, match="^mixed total degrees 1 and 2$"):
        A - power(T, 2)
    zero = Poly2.from_coeffs(())
    for p in (Poly2.from_coeffs((3,)), A, power(A, 2) + 6 * A * T, power(T, 7)):
        assert zero + p == p
        assert p + zero == p
        assert zero - p == -p
        assert not p - p


def test_sums_and_comparisons_take_two_polynomials() -> None:
    # from_coeffs is the one constructor, and only a product takes an int
    pytest.raises(TypeError, Poly2, (1, 2))
    one = Poly2.from_coeffs((1,))
    for build in (lambda: one + 1, lambda: 1 + one, lambda: one - 1, lambda: 1 - one):
        with pytest.raises(TypeError):
            build()
    assert one != 1
    assert 2 * A == A * 2 == A + A


def test_h_from_f_hexagon() -> None:
    # The hexagon has 6 vertices, 6 edges, and itself.
    f = 6 * power(T, 2) + 6 * A * T + power(A, 2)
    assert h_from_f(f) == power(A, 2) + 4 * A * T + power(T, 2)
    assert f_from_h(power(A, 2) + 4 * A * T + power(T, 2)) == f


@given(homogeneous())
def test_f_from_h_inverts_h_from_f(pair) -> None:
    # alpha -> alpha + t undoes alpha -> alpha - t, both ways round
    p, _ = pair
    assert h_from_f(f_from_h(p)) == p
    assert f_from_h(h_from_f(p)) == p


def test_h_from_f_is_a_ring_homomorphism() -> None:
    p = power(A, 2) + 3 * power(T, 2)
    q = A * power(T, 2) - 2 * power(A, 3)
    r = A * T - 2 * power(A, 2)
    assert h_from_f(p * q) == h_from_f(p) * h_from_f(q)
    assert h_from_f(p + r) == h_from_f(p) + h_from_f(r)


def test_gamma_from_h_refuses_an_asymmetric_polynomial() -> None:
    assert gamma_from_h(power(A, 2) + 4 * A * T + power(T, 2)).gammas == (1, 2)
    assert gamma_from_h(power(A, 2) + power(T, 2)).gammas == (1, -2)
    with pytest.raises(ValueError, match="^not symmetric in alpha and t: a\\^2 \\+ a\\*t$"):
        gamma_from_h(power(A, 2) + A * T)


def test_gamma_from_h_hexagon() -> None:
    gv = gamma_from_h(power(A, 2) + 4 * A * T + power(T, 2))
    assert gv == GammaVector(2, (1, 2))


def test_gamma_detects_negative_entries() -> None:
    gv = gamma_from_h(power(A, 2) + power(T, 2))
    assert gv.gammas == (1, -2)
    assert (gv.passed, gv.first_negative) == (False, (1, -2))
    # passed reads the least entry; first_negative names the first below 0
    for n, gammas in ((0, (0,)), (0, (-1,)), (2, (3, 0)), (4, (-1, 2, 0)), (5, (1, 0, -4))):
        gv = GammaVector(n, gammas)
        assert gv.passed == (gv.first_negative is None) == (min(gammas) >= 0)


def test_gamma_rejects_asymmetric_input() -> None:
    with pytest.raises(ValueError):
        gamma_from_h(power(A, 2) + A * T)


def test_h_from_gamma_expands_the_basis() -> None:
    gv = GammaVector(3, (1, 4))
    # (a+t)^3 + 4*a*t*(a+t)
    assert h_from_gamma(gv) == power(A + T, 3) + 4 * A * T * (A + T)


@given(
    n=st.integers(min_value=0, max_value=8),
    data=st.data(),
)
def test_gamma_round_trip(n: int, data) -> None:
    entries = data.draw(st.lists(st.integers(), min_size=n // 2 + 1, max_size=n // 2 + 1))
    assume(any(entries))
    gv = GammaVector(n, tuple(entries))
    assert gamma_from_h(h_from_gamma(gv)) == gv


@given(homogeneous(), homogeneous())
def test_arithmetic_agrees_with_the_sparse_witness(pair_p, pair_q) -> None:
    (p, sp), (q, sq) = pair_p, pair_q
    assert dict(p.terms()) == sp
    assert dict((p * q).terms()) == sparse_mul(sp, sq)
    assert dict((-p).terms()) == sparse_neg(sp)
    assert dict(poly_deriv_t(p).terms()) == sparse_deriv_t(sp)
    assert dict(h_from_f(p).terms()) == sparse_h_from_f(sp)
    if p and q and len(p.coeffs) != len(q.coeffs):
        mixed = f"^mixed total degrees {len(p.coeffs) - 1} and {len(q.coeffs) - 1}$"
        with pytest.raises(ValueError, match=mixed):
            p + q
        with pytest.raises(ValueError, match=mixed):
            p - q
    else:
        assert dict((p + q).terms()) == sparse_add(sp, sq)
        assert dict((p - q).terms()) == sparse_add(sp, sparse_neg(sq))


# near +-2^200, and zero often
HUGE = st.one_of(
    st.just(0),
    st.integers(min_value=-3, max_value=3).map(lambda d: 2**200 - d),
    st.integers(min_value=-3, max_value=3).map(lambda d: d - 2**200),
)


@example((Poly2.from_coeffs((2**200 - 1,)), {(0, 0): 2**200 - 1}), (T, {(0, 1): 1}))
@example((A * -(2**200 + 3), {(1, 0): -(2**200 + 3)}), (T * (2**200 - 1), {(0, 1): 2**200 - 1}))
@given(homogeneous(coefficients=HUGE), homogeneous(coefficients=HUGE))
def test_products_of_huge_coefficients_agree_with_the_sparse_witness(pair_p, pair_q) -> None:
    # a product is packed one bit above its coefficients' bound, which a
    # monomial's product reaches
    (p, sp), (q, sq) = pair_p, pair_q
    assert dict((p * q).terms()) == sparse_mul(sp, sq)
    assert dict((q * p).terms()) == sparse_mul(sp, sq)


@given(data=st.data())
def test_balanced_digits_invert_packing(data) -> None:
    # signed coefficients that fit a width, some of them zero, trailing
    # ones among them: the digits stop at the top nonzero coefficient
    width = data.draw(st.integers(min_value=2, max_value=80))
    fits = st.integers(min_value=-(2 ** (width - 1)), max_value=2 ** (width - 1) - 1)
    coeffs = data.draw(st.lists(st.one_of(st.just(0), fits), max_size=10))
    coeffs += [0] * data.draw(st.integers(min_value=0, max_value=3))
    top = max((i + 1 for i, c in enumerate(coeffs) if c), default=0)
    assert _digits(_pack(coeffs, width), width) == coeffs[:top]


def test_balanced_digits_refuse_fields_under_two_bits() -> None:
    # A 1-bit field holds only the digits -1 and 0, so the remainder of a
    # positive value would never shrink and the digit list would grow until
    # memory ran out.  The refusals run in a child process under a memory
    # cap and a timeout, so that such a loop fails this test and no more.
    script = (
        "from nestohedra.algebra import _digits\n"
        "for width in (1, 0, -1):\n"
        "    try:\n"
        "        _digits(1, width)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(nestohedra.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "".join(
        f"balanced digits need fields of at least 2 bits, not {width}\n" for width in (1, 0, -1)
    )
    assert _digits(-1, 2) == [-1]


@given(
    n=st.integers(min_value=1, max_value=9),
    data=st.data(),
)
def test_integrate_t_agrees_with_the_sparse_witness(n: int, data) -> None:
    # integer coefficients, most of them multiples of what they are divided by
    g, sg = data.draw(
        homogeneous(
            n - 1,
            st.one_of(
                st.just(0),
                st.integers(min_value=-50, max_value=50).map(lambda c: c * 2520),
                st.integers(min_value=-50, max_value=50),
            ),
        )
    )
    try:
        expected = sparse_integrate_t(sg, n)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            integrate_t(g, n)
    else:
        if g:
            assert dict(integrate_t(g, n).terms()) == expected
        else:
            with pytest.raises(ValueError):
                integrate_t(g, n)


@given(
    n=st.integers(min_value=0, max_value=8),
    data=st.data(),
)
def test_gamma_round_trip_agrees_with_the_sparse_witness(n: int, data) -> None:
    gammas = data.draw(st.lists(COEFFICIENTS, min_size=n // 2 + 1, max_size=n // 2 + 1))
    assume(any(gammas))
    gv = GammaVector(n, tuple(gammas))
    h = h_from_gamma(gv)
    assert dict(h.terms()) == sparse_h_from_gamma(n, gammas)
    assert gamma_from_h(h) == gv
    assert list(gamma_from_h(h).gammas) == sparse_gamma_from_h(dict(h.terms()), n)

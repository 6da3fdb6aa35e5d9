"""Face vectors, h-polynomials, gamma vectors, and the library's checks.

For a simple polytope the h-polynomial is symmetric (Dehn-Sommerville), so
it has a gamma vector; a polytope or series coefficient "passes" when every
gamma entry is nonnegative.  ``gal_check_poly`` is the one Gal check: it
returns the gamma vector of one polynomial, which reports its own first
negative entry, and it raises on a polynomial that has no gamma vector.
``gal_check_graph(g)`` runs it on one graph's nestohedron and returns the
face polynomial, the h-polynomial and the gamma vector together.  Each
batch check is called by the name of what it checks and keyed by
what it checked: ``gal_check_series(fam, order)`` by index,
``gal_check_classes(n)`` by spec, and ``verify_series(fams, order)``, the
series against the recursion, by family and index.  A negative gamma
entry is a finding; a missing gamma vector, or a build or decode that
fails, is a fault: an ``ArithmeticError`` naming what failed.
"""

from __future__ import annotations

from struct import pack, unpack
from typing import Callable, Optional, Sequence

from ._classes import CONNECTED
from .algebra import GammaVector, Poly2, gamma_from_h, h_from_f
from .buildingset import Graph, graph_spec
from .ringcalc import FPolyCache, class_face_counts, fpoly, induced_fpolys
from .series import Series2, Slot, _family, family_f

__all__ = [
    "gal_check_poly",
    "gal_check_graph",
    "gal_check_series",
    "gal_check_classes",
    "verify_series",
]


def gal_check_poly(p: Poly2, n: int) -> GammaVector:
    """The gamma vector of a symmetric homogeneous degree-n polynomial.

    A polynomial with no gamma vector (zero, of another degree, or not
    symmetric) raises ``ValueError``, and a gamma extraction that leaves a
    residual raises ``ArithmeticError``; a negative gamma entry is a
    finding, which the vector reports as its ``first_negative``.
    """
    if p and len(p.coeffs) - 1 != n:
        raise ValueError(f"expected degree {n}, got {len(p.coeffs) - 1}")
    return gamma_from_h(p)


def _family_series(fam: str, order: int, read: Sequence[Slot] = ()) -> tuple[Series2, list[Poly2]]:
    """``family_f(fam, order)`` and its coefficients at the indices read, the
    arguments checked: a failure is the series', named by family and order."""
    try:
        series_f = family_f(fam, order)
        return series_f, [series_f.coeff(k, l) for k, l in read]
    except (ValueError, ArithmeticError) as exc:
        raise ArithmeticError(f"series of {fam} at order {order}: {exc}") from exc


def _h_and_gamma(f: Poly2, dim: int, spec: Callable[[], str]) -> tuple[Poly2, GammaVector]:
    """The h-polynomial of a polytope's face polynomial f and its gamma vector;
    a failure is the computation's, named by ``spec()``, called only then."""
    try:
        h = h_from_f(f)
        return h, gal_check_poly(h, dim)
    except (ValueError, ArithmeticError) as exc:
        raise ArithmeticError(f"h-polynomial of {spec()}: {exc}") from exc


def gal_check_graph(g: Graph) -> tuple[Poly2, Poly2, GammaVector]:
    """``gal_check_poly`` on the h-polynomial of one graph's nestohedron.

    Returns the face polynomial ``fpoly(g)``, whose coefficient list is the
    f-vector (the last entry, the polytope itself, is 1), its h-polynomial
    and the gamma vector of that, checked against the polytope's dimension.
    An h-polynomial with no gamma vector raises ``ArithmeticError`` naming
    the graph by its ``edges:`` spec.
    """
    f = fpoly(g)
    return f, *_h_and_gamma(f, len(f.coeffs) - 1, lambda: graph_spec(g))


def gal_check_series(fam: str, order: int) -> dict[tuple[int, int], GammaVector]:
    """``gal_check_poly`` on the h-polynomial of each coefficient of a family's face series.

    ``fam`` is the family's id, and the series is ``family_f(fam, order)``.
    Returns, for each family index (k, l) with k + l <= order in index
    order, the gamma vector of h_from_f of the stored coefficient
    k! l! [x^k y^l], checked against the family dimension.  Only those
    slots are decoded, each once.  A ``FamilySpec`` (``TypeError``), or an
    unknown id or a negative order (``ValueError``), is refused before
    anything is built.  A build that fails raises ``ArithmeticError``
    naming the family and the order, and a slot that does not decode or
    has no gamma vector one naming the index.
    """
    spec = _family(fam)
    if order < 0:
        raise ValueError("negative truncation order")
    series_f, _ = _family_series(fam, order)
    results: dict[tuple[int, int], GammaVector] = {}
    for k, l in spec.indices(order):
        try:
            results[(k, l)] = gal_check_poly(h_from_f(series_f.coeff(k, l)), spec.dim(k, l))
        except (ValueError, ArithmeticError) as exc:
            raise ArithmeticError(f"h-series of {spec.id} at ({k}, {l}): {exc}") from exc
    return results


def gal_check_classes(n: int) -> dict[str, GammaVector]:
    """``gal_check_poly`` on the h-polynomial of each connected class on n nodes, 1 <= n <= 7.

    Returns each class's gamma vector keyed by its ``edges:`` spec, in the
    atlas order of ``_classes.CONNECTED[n]``, from the face counts of
    ``ringcalc.class_face_counts``.  The whole row is checked at once by
    ``_packed_gammas``; if that raises, one class at a time, so that the
    first class that fails raises ``ArithmeticError`` naming its spec: the
    committed counts of every class have a gamma vector, so one without is
    the table's failure, not bad input.
    """
    rows = class_face_counts(n)  # refuses n outside 1..7
    specs, dim = CONNECTED[n], n - 1
    try:
        return dict(zip(specs, _packed_gammas(rows, dim), strict=True))
    except (ValueError, ArithmeticError):
        pass
    return {
        spec: _h_and_gamma(Poly2.from_coeffs(counts), dim, spec.__str__)[1]
        for spec, counts in zip(specs, rows, strict=True)
    }


def verify_series(
    fams: Sequence[str], order: int
) -> dict[str, dict[Slot, Optional[tuple[Poly2, Poly2]]]]:
    """Each family's face series against the nested-set recursion on its members.

    Per id of ``fams`` and per family index (k, l) with k + l <= order, in
    that order: None where the coefficient k! l! [x^k y^l] of
    ``family_f(fam, order)`` equals the face polynomial of the member, else
    the (series, recursion) pair.  Each slot is decoded once, one
    ``induced_fpolys`` call reads a family's members as node masks of its
    largest graph, and the families share one ``FPolyCache``.  Input is
    refused and a failed build located as in ``gal_check_series``.
    """
    specs = [_family(fam) for fam in fams]
    if order < 0:
        raise ValueError("negative truncation order")
    cache = FPolyCache()
    results = {}
    for fam, spec in zip(fams, specs):
        indices = spec.indices(order)
        _, expected = _family_series(fam, order, indices)
        masks = [spec.nodes_at(k, l, order) for k, l in indices]
        actual = induced_fpolys(spec.graph_at(order, order), masks, cache)
        results[fam] = {
            index: None if e == a else (e, a) for index, e, a in zip(indices, expected, actual)
        }
    return results


def _packed_gammas(rows: Sequence[Sequence[int]], dim: int) -> list[GammaVector]:
    """The gamma vectors of a row of classes' face counts, by one Gal check of the row.

    Coefficient i of one ``Poly2`` holds f_i of every class, class c in
    the 64-bit field at bit 64 c (the packed format of ``algebra``, at
    W = 64), so one ``h_from_f`` and one ``gal_check_poly`` run on the
    whole row; each gamma column is then read back as signed 64-bit
    fields, biased by 2^63 so that they carry nothing into each other.

    Exact while every field stays below 2^63 in absolute value.  The
    counts are 16-bit, which the row checks before it packs, and dim <= 6.
    The Taylor shift of ``h_from_f`` takes its largest values when the
    counts alternate in sign, where each step adds two magnitudes, and
    they stay below 2^25.  Peel step i of ``gamma_from_h``, at most 4 of
    them, subtracts gamma_i C(m, k), m = dim - 2i, from values bounded as
    gamma_i is, so it multiplies the bound by at most 1 + 2^m:
    (1 + 2^6)(1 + 2^4)(1 + 2^2)(1 + 2^0) = 11050 in all.  So every field
    compared or decoded stays below 2^40: the symmetry check and the
    ``any(residual)`` of ``gamma_from_h`` read the fields exactly, and the
    row raises whenever one class's own check would.  So does a row with a count
    outside [0, 2^16) or a class with no nonzero count, and hence no
    degree, a row of unequal lengths, and a row past seven nodes.  The
    64-bit width is fixed by that bound, not chosen.
    """
    if dim > 6 or not all(map(any, rows)):
        raise ValueError("a class row needs 1-7 nodes and nonzero face counts")
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= 1 << 16:
        raise ValueError("a class row needs 16-bit face counts")
    fields = f"<{len(rows)}q"
    f = Poly2.from_coeffs(
        int.from_bytes(pack(fields, *column), "little") for column in zip(*rows, strict=True)
    )
    # 2^63 in each field, which moves its signed range onto the unsigned one
    bias = int.from_bytes(b"\0\0\0\0\0\0\0\x80" * len(rows), "little")
    columns = [
        unpack(fields, ((g + bias) ^ bias).to_bytes(8 * len(rows), "little"))
        for g in gal_check_poly(h_from_f(f), dim).gammas
    ]
    return [GammaVector(dim, gammas) for gammas in zip(*columns)]

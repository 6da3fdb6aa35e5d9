"""Independent witnesses shared by the tests.

The library computes face polynomials by the nested-set recursion
(``nestohedra.ringcalc``).  The facet recursion kept here is a second,
different formula for the same numbers: the boundary of a graph
nestohedron is a sum, over the proper connected node subsets S, of the
product of the nestohedra of the induced subgraph on S and of the
contraction through S, and integrating the boundary's face polynomial in t
recovers the polytope's.  Its graph operations (``contraction``, the twin
orbits ``connected_subset_orbits`` and the canonical relabelling
``canonical_graph`` that shares its memo between isomorphic graphs) live
here with it, beside ``connected_graphs_upto_iso``, which parses the atlas
classes that ``_classes.CONNECTED`` commits, and so does the paper's
definition of building sets (``BuildingSet`` with ``restriction``,
``removal`` and the rest), which the graph operations are checked against.

A facet product is a tuple of graphs.  Sums of them are compared factor by
isomorphism class, under a canonical form found by trying every
relabelling (fine for the <= 7-node factors the tests use).

The sparse polynomial arithmetic at the end is the reference for the dense
``Poly2``: a polynomial is a dict from exponent pairs (i, j) to nonzero
coefficients of alpha^i t^j, with no notion of degree.  ``series_of``
builds a ``Series2`` from a mapping of slots to ``Poly2``s, reading its
grading off the slots and refusing a slot off it, and ``packed_series``
packs given coefficients at a given offset and width.  On top of them, the
raw series arithmetic is the reference for ``Series2``: it multiplies and
inverts the plain coefficients [x^k y^l] as ordinary power series over
``Fraction``, with no binomial weights and no notion of degree, the
general power-sum exponential is the reference for the closed-form
``exp_series`` and its products, and eta(u x + v y) built termwise in two
variables is the reference for the copies at x + y.  The list kernel,
which accumulates each product slot as a list of coefficients, is the
reference for the packed kernel of ``Series2`` products and inverses.
The h-level series push every slot of a face series through
alpha -> alpha - t (``subst_h_series``, ``family_h``, ``phi_h``), and
``f_from_h`` is the inverse substitution, alpha -> alpha + t.  On them the
h-level identities check I5-I8 between the h-series themselves, with the
scalars alpha + t and alpha t, the reference for the suite's check of
them between face series through alpha -> alpha - t.

The permutohedron's gamma vectors are counted over permutations, a
witness that needs neither the recursion nor the series, and every
family coefficient, the face counts of K_{m,n} among them, is one sum
over its denominator in plain int lists, which shares no kernel, width
or bound with either.

The rest of the file is library surface only the tests use: powers,
records, d/dt and gamma expansions of ``Poly2``, a graph's edge set,
components, connectedness and induced subgraphs, the Dehn-Sommerville
symmetry and Euler relation checks of a face vector, and the y = 0 slice
of a series.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from nestohedra._classes import CONNECTED
from nestohedra.algebra import GammaVector, Poly2, _pack, h_from_f, homogeneous_degree, is_symmetric
from nestohedra.buildingset import (
    MAX_GROUND,
    Graph,
    _closure,
    _induced_adj,
    graph_from_edges,
    graph_spec,
    parse_graph_spec,
    twin_classes,
)
from nestohedra.ringcalc import fpoly
from nestohedra.series import (
    DEFAULT_ORDER,
    IDENTITY_FAMILIES,
    FamilySpec,
    Series2,
    _diagonal,
    _drop_one_term,
    _index,
    _phi_f,
    _width,
    deriv_x,
    deriv_y,
    exp_series,
    family_f,
    first_mismatch,
    swap_xy,
    truncate,
)

# ---------------------------------------------------------------------------
# graph operations of the facet recursion


def edges(g: Graph) -> frozenset[tuple[int, int]]:
    """The edges as sorted pairs (u, v), u < v."""
    return frozenset((u, v) for u, m in enumerate(g.adj) for v in range(u + 1, g.n) if m >> v & 1)


def connected_submask(adj: Sequence[int], mask: int) -> bool:
    """Whether the induced subgraph on the masked nodes is connected."""
    if mask == 0:
        return False
    return _closure(adj, mask & -mask, mask) == mask


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Subgraph on the masked nodes, relabelled compactly in label order."""
    return Graph(_induced_adj(g.adj, mask))


def _mask_nodes(mask: int) -> list[int]:
    """The set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _compress(masks: Iterable[int], within: int) -> tuple[int, ...]:
    """Re-index the bits of each mask against the bits set in ``within``.

    Bits outside ``within`` drop out; each run of its set bits is one shift.
    """
    runs = []
    p = 0
    while within:
        low = within & -within
        run = within & ~(within + low)
        runs.append((run, low.bit_length() - 1 - p))
        p += run.bit_count()
        within ^= run
    out = []
    for m in masks:
        packed = 0
        for run, shift in runs:
            packed |= (m & run) >> shift
        out.append(packed)
    return tuple(out)


def contraction(g: Graph, removed: int) -> Graph:
    """Graph on the remaining nodes after reconnecting through ``removed``.

    Two surviving nodes become adjacent exactly when they are joined by a
    path whose interior lies in the removed set (a direct edge counts), that
    is, when both touch one connected piece of the removed set: each piece
    turns its surviving neighbours into a clique.  Relabeled compactly in
    label order.
    """
    adj = g.adj
    keep = ((1 << g.n) - 1) & ~removed
    out = list(adj)
    left = removed
    while left:
        piece = _closure(adj, left & -left, removed)
        left ^= piece
        rim = 0
        for w in _mask_nodes(piece):
            rim |= adj[w]
        for u in _mask_nodes(rim & keep):
            out[u] |= rim
    return Graph(_compress((out[u] & ~(1 << u) for u in _mask_nodes(keep)), keep))


def connected_subset_orbits(g: Graph) -> list[tuple[int, int]]:
    """Proper connected node subsets up to permutations inside twin classes.

    An orbit is fixed by how many nodes c_i it takes from each twin class
    C_i (``twin_classes``), 0 <= c_i <= |C_i|, so the count vectors are
    enumerated in place of the 2^n subsets.  Each orbit is represented by
    the first c_i nodes of each class and comes with its size, the product
    of C(|C_i|, c_i).  Twin swaps are automorphisms, so a whole orbit is
    connected or not together.  Returns (mask, size) for every nonempty
    proper orbit that induces a connected subgraph; on a twin-free graph
    these are the connected subsets themselves, each of size 1.
    """
    adj = g.adj
    classes = twin_classes(g)
    reps = [0]
    for cls in classes:
        prefixes = [0]
        for v in cls:
            prefixes.append(prefixes[-1] | 1 << v)
        reps = [m | p for p in prefixes for m in reps]
    # singleton classes contribute a factor of 1 to every size
    twins = [(len(cls), sum(1 << v for v in cls)) for cls in classes if len(cls) > 1]
    orbits = []
    # reps[0] is the empty set and reps[-1] the whole node set
    for s in reps[1:-1]:
        if _closure(adj, s & -s, s) == s:
            size = 1
            for k, mask in twins:
                size *= comb(k, (s & mask).bit_count())
            orbits.append((s, size))
    return orbits


# Leaves canonical_graph may visit before it gives up and returns its input.
_CANONICAL_LEAF_CAP = 2048


def _refine(adj: Sequence[int], cells: list[int]) -> list[int]:
    """Colour refinement of an ordered partition (cells as node masks).

    Each round splits every cell by its nodes' counts of neighbours in each
    cell and orders the pieces by those counts, until no cell splits.  The
    result depends only on the structure, so a relabelled graph and
    partition refine to the relabelled result.
    """
    n = len(adj)
    while len(cells) < n:
        out = []
        for cell in cells:
            if not cell & (cell - 1):
                out.append(cell)
                continue
            pieces: dict[tuple[int, ...], int] = {}
            for v in _mask_nodes(cell):
                a = adj[v]
                signature = tuple([(a & c).bit_count() for c in cells])
                pieces[signature] = pieces.get(signature, 0) | 1 << v
            out.extend(pieces[s] for s in sorted(pieces))
        if len(out) == len(cells):
            break
        cells = out
    return cells


def canonical_graph(g: Graph) -> Graph:
    """A relabelling of g that is the same for every labelling of g.

    Colour refinement plus individualization (McKay and Piperno, *Practical
    graph isomorphism II*): refine the ordered partition, then branch on
    the first cell of several nodes that is not inside one twin class, with
    one branch per twin class it meets, since swapping twins is an
    automorphism.  A partition whose every cell lies inside a twin class is
    a leaf: numbering its nodes in cell order (twins in either order) gives
    one relabelling.  The result is the least of these over all leaves.  A
    search that passes _CANONICAL_LEAF_CAP leaves returns g unchanged, which
    is still a copy of g, just not a shared one.
    """
    n = g.n
    if n < 2:
        return g
    adj = g.adj
    twin_mask = [0] * n
    for cls in twin_classes(g):
        mask = sum(1 << v for v in cls)
        for v in cls:
            twin_mask[v] = mask
    neighbours = [_mask_nodes(m) for m in adj]
    best: Optional[tuple[int, ...]] = None
    leaves = 0
    stack = [_refine(adj, [(1 << n) - 1])]
    while stack:
        cells = stack.pop()
        split = next(
            (i for i, c in enumerate(cells) if c & ~twin_mask[(c & -c).bit_length() - 1]),
            None,
        )
        if split is None:
            leaves += 1
            if leaves > _CANONICAL_LEAF_CAP:
                return g
            order = [v for c in cells for v in _mask_nodes(c)]
            bit = [0] * n
            for i, v in enumerate(order):
                bit[v] = 1 << i
            relabelled = tuple([sum([bit[w] for w in neighbours[v]]) for v in order])
            if best is None or relabelled < best:
                best = relabelled
            continue
        cell = left = cells[split]
        while left:
            v = (left & -left).bit_length() - 1
            left &= ~twin_mask[v]
            individualized = [1 << v, cell & ~(1 << v)]
            stack.append(_refine(adj, cells[:split] + individualized + cells[split + 1 :]))
    return Graph(best)


def connected_graphs_upto_iso(max_nodes: int, min_nodes: int = 1) -> list[Graph]:
    """All connected graphs with min_nodes..max_nodes nodes, one per isomorphism class.

    In the order and labelling of Read and Wilson's graph atlas, which
    covers every graph on up to seven nodes.  ``parse_graph_spec`` builds
    each class from its spec in ``_classes.CONNECTED``, at the node counts
    asked for only.
    """
    if not 1 <= min_nodes <= max_nodes <= 7:
        raise ValueError("the atlas covers 1..7 nodes")
    return [
        parse_graph_spec(spec)
        for n in range(min_nodes, max_nodes + 1)
        for spec in CONNECTED[n]
    ]


def is_connected_graph(g: Graph) -> bool:
    return g.n > 0 and connected_submask(g.adj, (1 << g.n) - 1)


def graph_components(g: Graph) -> list[Graph]:
    """Induced subgraphs on the connected components, by smallest node."""
    full = left = (1 << g.n) - 1
    parts = []
    while left:
        part = _closure(g.adj, left & -left, full)
        parts.append(induced_subgraph(g, part))
        left &= ~part
    return parts


# ---------------------------------------------------------------------------
# the facet recursion

Product = tuple[Graph, ...]


class PolyExpr:
    """Integer combination of products of connected graph nestohedra."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Product, int]):
        acc: dict[Product, int] = {}
        for product, c in terms.items():
            product = tuple(sorted(product))
            acc[product] = acc.get(product, 0) + c
        self._terms = {p: c for p, c in acc.items() if c}

    def terms(self) -> list[tuple[Product, int]]:
        return sorted(self._terms.items(), key=lambda term: [g.adj for g in term[0]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyExpr):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "PolyExpr") -> "PolyExpr":
        out = dict(self._terms)
        for p, c in other._terms.items():
            out[p] = out.get(p, 0) + c
        return PolyExpr(out)

    def total_mass(self) -> int:
        """Sum of all coefficients; counts facets when terms came from a boundary."""
        return sum(self._terms.values())


def boundary(g: Graph) -> PolyExpr:
    """Facet decomposition of the nestohedron of a connected graph.

    One facet per proper node subset S inducing a connected subgraph: the
    induced subgraph on S times the contraction through S.  The subsets are
    taken up to permutations inside the twin classes
    (``connected_subset_orbits``): each orbit's representative S contributes
    its facet with the orbit size as multiplicity, so the total mass still
    counts every facet.  A product holds the facet's factors as graphs,
    point factors dropped.  The point (one node) has no facets and maps to
    zero.
    """
    if not is_connected_graph(g):
        raise ValueError("boundary needs a connected graph")
    counts: dict[Product, int] = {}
    for s, size in connected_subset_orbits(g):
        facet = (induced_subgraph(g, s), contraction(g, s))
        product = tuple(f for f in facet if f.n > 1)
        counts[product] = counts.get(product, 0) + size
    return PolyExpr(counts)


def plain_boundary(g: Graph) -> PolyExpr:
    """The facet decomposition over all 2^n node subsets, one by one."""
    full = (1 << g.n) - 1
    if not connected_submask(g.adj, full):
        raise ValueError("boundary needs a connected graph")
    counts: dict = {}
    for s in range(1, full):
        if connected_submask(g.adj, s):
            factors = (induced_subgraph(g, s), contraction(g, s))
            product = tuple(sorted(f for f in factors if f.n > 1))
            counts[product] = counts.get(product, 0) + 1
    return PolyExpr(counts)


def exact_div(c, d: int):
    """c / d, raising ``ArithmeticError`` when d does not divide c exactly."""
    q, r = divmod(c, d)
    if r:
        raise ArithmeticError(f"{c} is not divisible by {d}")
    return q


def integrate_t(g: Poly2, n: int) -> Poly2:
    """Solve dF/dt = g for the degree-n face polynomial with F|_{t=0} = alpha^n.

    g must be homogeneous of degree n-1, or zero when n = 0 (the point).
    Face counts are integers, so a coefficient of g whose integral is not an
    integer means the boundary was wrong and raises ``ArithmeticError``.
    """
    if n < 0:
        raise ValueError("negative dimension")
    if not g:
        if n == 0:
            return Poly2.from_coeffs((1,))
        raise ValueError(f"zero boundary polynomial for dimension {n}")
    degree = homogeneous_degree(g)
    if degree != n - 1:
        raise ValueError(f"boundary polynomial has degree {degree}, expected {n - 1}")
    # alpha^i t^(n-1-i) integrates to alpha^i t^(n-i) / (n-i)
    return Poly2.from_coeffs(
        [exact_div(c, n - i) for i, c in enumerate(g.coeffs)] + [1]
    )


def facet_fpoly(
    g: Graph,
    memo: Optional[dict] = None,
    facets: Callable[[Graph], PolyExpr] = boundary,
) -> Poly2:
    """Face polynomial by the facet recursion, memoized per isomorphism class.

    Disconnected graphs give the product over components.  A connected
    graph integrates the face polynomial of ``facets(g)`` in t, the t-free
    part pinned to alpha^(n-1); ``memo`` maps canonical graphs to values.
    A boundary that mixes degrees, has the wrong degree or does not
    integrate to integer face counts raises ArithmeticError naming g.
    """
    if g.n > MAX_GROUND:
        raise ValueError(f"graph larger than {MAX_GROUND} nodes")
    memo = {} if memo is None else memo
    if not is_connected_graph(g):
        out = Poly2.from_coeffs((1,))
        for part in graph_components(g):
            out = out * facet_fpoly(part, memo, facets)
        return out
    if g.n == 1:
        return Poly2.from_coeffs((1,))
    key = canonical_graph(g)
    if key not in memo:
        terms = []
        for product, c in facets(g).terms():
            term = Poly2.from_coeffs((c,))
            for factor in product:
                term = term * facet_fpoly(factor, memo, facets)
            terms.append(term)
        try:
            memo[key] = integrate_t(sum(terms, Poly2.from_coeffs(())), g.n - 1)
        except (ArithmeticError, ValueError) as exc:
            raise ArithmeticError(
                f"integrating the boundary of {graph_spec(g)}: {exc}"
            ) from exc
    return memo[key]


def term_of(graphs: list[Graph], c: int = 1) -> PolyExpr:
    """c times the product of the graphs' nestohedra; single nodes drop out."""
    return PolyExpr({tuple(g for g in graphs if g.n > 1): c})


@lru_cache(maxsize=None)
def canonical(g: Graph) -> Graph:
    """Least relabelled copy of g over every node permutation: one per class."""
    relabelled = (
        graph_from_edges(g.n, ((p[u], p[v]) for u, v in edges(g)))
        for p in permutations(range(g.n))
    )
    return min(relabelled)


def up_to_iso(e: PolyExpr) -> dict:
    """The terms of e with every factor replaced by its isomorphism class."""
    out: dict = {}
    for product, c in e.terms():
        classes = tuple(sorted(canonical(g) for g in product))
        out[classes] = out.get(classes, 0) + c
    return out


# ---------------------------------------------------------------------------
# building sets


@dataclass(frozen=True)
class BuildingSet:
    """Members of a building set as bitmasks over positions into ``ground``.

    A building set on a finite ground set contains every singleton and is
    closed under unions of intersecting members.  ``ground`` is a sorted
    tuple of integer labels; bit p of a member mask refers to
    ``ground[p]``.  Validity is checked by ``validate``, not enforced on
    construction.  ``restriction(b, s)`` is the building set of
    ``induced_subgraph(g, s)`` and ``removal(b, s)`` that of
    ``contraction(g, s)``, which the tests check.
    """

    ground: tuple[int, ...]
    sets: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.ground) > MAX_GROUND:
            raise ValueError(f"ground larger than {MAX_GROUND} elements")
        if list(self.ground) != sorted(set(self.ground)):
            raise ValueError("ground labels must be strictly increasing")
        limit = 1 << len(self.ground)
        for m in self.sets:
            if not 0 < m < limit:
                raise ValueError(f"member mask {m} outside the ground")

    def labels_of(self, mask: int) -> tuple[int, ...]:
        return tuple(self.ground[p] for p in _mask_nodes(mask))

    def mask_of(self, labels: Iterable[int]) -> int:
        position = {label: p for p, label in enumerate(self.ground)}
        mask = 0
        for label in labels:
            mask |= 1 << position[label]
        return mask

    @property
    def full_mask(self) -> int:
        return (1 << len(self.ground)) - 1

    def is_connected(self) -> bool:
        """A building set is connected when the whole ground is a member."""
        return self.full_mask in self.sets


def building_set_from_graph(g: Graph) -> BuildingSet:
    """Building set of all node subsets inducing a connected subgraph."""
    if g.n > MAX_GROUND:
        raise ValueError(f"graph larger than {MAX_GROUND} nodes")
    adj = g.adj
    members = [
        mask for mask in range(1, 1 << g.n) if connected_submask(adj, mask)
    ]
    return BuildingSet(tuple(range(g.n)), frozenset(members))


def validate(b: BuildingSet) -> list[str]:
    """All axiom violations, formatted with ground labels; empty means valid."""
    problems = []
    for p, label in enumerate(b.ground):
        if (1 << p) not in b.sets:
            problems.append(f"missing singleton {{{label}}}")
    members = sorted(b.sets)
    present = b.sets
    for a_idx, m1 in enumerate(members):
        for m2 in members[a_idx + 1 :]:
            if m1 & m2 and (m1 | m2) not in present:
                problems.append(
                    f"sets {set(b.labels_of(m1))} and {set(b.labels_of(m2))} "
                    "intersect but their union is missing"
                )
    return problems


def is_valid(b: BuildingSet) -> bool:
    return not validate(b)


def restriction(b: BuildingSet, s: int) -> BuildingSet:
    """Members contained in s, on ground s."""
    ground = b.labels_of(s)
    members = frozenset(_compress((m for m in b.sets if m and (m & ~s) == 0), s))
    return BuildingSet(ground, members)


def removal(b: BuildingSet, s: int) -> BuildingSet:
    """Every member with the elements of s erased, on the remaining ground."""
    keep = b.full_mask & ~s
    ground = b.labels_of(keep)
    members = frozenset(_compress((m for m in b.sets if m & keep), keep))
    return BuildingSet(ground, members)


def components(b: BuildingSet) -> list[BuildingSet]:
    """Restrictions of b to its inclusion-maximal members.

    For a valid building set the maximal members partition the ground, so
    the result is the list of connected components, ordered by their
    smallest label.
    """
    if not b.ground:
        return []
    if b.is_connected():
        return [b]
    maximal: list[int] = []
    for m in sorted(b.sets, key=lambda m: -bin(m).count("1")):
        if not any(m | kept == kept for kept in maximal):
            maximal.append(m)
    maximal.sort(key=lambda m: m & -m)
    return [restriction(b, m) for m in maximal]


def dimension(b: BuildingSet) -> int:
    """Dimension of the nestohedron: ground size minus component count."""
    return len(b.ground) - len(components(b))


def canonical_key(b: BuildingSet) -> bytes:
    """Byte key identifying b up to label-order-preserving relabeling.

    Relabeling the ground to 0..k-1 in label order is exactly the position
    encoding already used, so the key serializes the sorted member masks.
    """
    members = sorted(b.sets)
    return struct.pack("<II", len(b.ground), len(members)) + struct.pack(
        f"<{len(members)}I", *members
    )


def graph_of(b: BuildingSet) -> Graph:
    """The graph a graphical building set comes from: its 2-element members."""
    pairs = []
    for m in b.sets:
        if bin(m).count("1") == 2:
            low = m & -m
            pairs.append((low.bit_length() - 1, (m ^ low).bit_length() - 1))
    return graph_from_edges(len(b.ground), pairs)


def facets_from_building_set(b: BuildingSet) -> PolyExpr:
    """restriction(b, S) x removal(b, S) over the proper members S, as graphs."""
    facets: dict = {}
    for s in b.sets - {b.full_mask}:
        factors = (graph_of(restriction(b, s)), graph_of(removal(b, s)))
        product = tuple(f for f in factors if f.n > 1)
        facets[product] = facets.get(product, 0) + 1
    return PolyExpr(facets)


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
# series built slot by slot

Slot = tuple[int, int]


def packed_series(order: int, offset: int, polys: Mapping[Slot, Sequence[int]], width: int) -> Series2:
    """The series whose slot (k, l) holds the coefficients polys[(k, l)], packed at a width.

    The offset is taken as given, and each degree's bound is the largest
    absolute coefficient sum of its slots.
    """
    coeffs, bounds = [0] * _index(0, order + 1), [0] * (order + 1)
    for (k, l), p in polys.items():
        if any(p):
            coeffs[_index(k, l)] = _pack(p, width)
            bounds[k + l] = max(bounds[k + l], sum(map(abs, p)))
    return Series2(order, offset, coeffs, tuple(bounds), width)


def series_of(order: int, polys: Mapping[Slot, Poly2] | Iterable[tuple[Slot, Poly2]] = ()) -> Series2:
    """The series of an order whose slot (k, l) holds the sum of the Poly2s given for it.

    Packed at the order's width.  The offset is read off the first nonzero
    slot in (k + l, k) order, and a slot off that grading raises
    ValueError naming it; the zero series has offset 0.  A slot with a
    negative exponent or beyond the order raises ValueError too.
    """
    width = _width(order)  # refuses a negative order before any slot is read
    data: dict[Slot, Poly2] = {}
    for (k, l), p in polys.items() if isinstance(polys, Mapping) else polys:
        if k < 0 or l < 0:
            raise ValueError(f"negative exponent pair {(k, l)}")
        if k + l > order:
            raise ValueError(f"slot {(k, l)} beyond truncation order {order}")
        data[(k, l)] = data[(k, l)] + p if (k, l) in data else p
    slots = sorted((s for s, p in data.items() if p), key=lambda s: (sum(s), s))
    offset = sum(slots[0]) - len(data[slots[0]].coeffs) + 1 if slots else 0
    for s in slots:
        degree = len(data[s].coeffs) - 1
        if degree != sum(s) - offset:
            raise ValueError(f"slot {s} of degree {degree} is off grading offset {offset}")
    return packed_series(order, offset, {s: p.coeffs for s, p in data.items()}, width)


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


def power_sum_exp(s: Series2) -> Series2:
    """exp of any series with zero constant coefficient, summing p_m = s^m/m!.

    p_m = p_(m-1) s / m divides exactly: s^m counts each of the m! orders
    of m disjoint nonempty label blocks, so integers stay integers.
    """
    if s.coeff(0, 0):
        raise ValueError("exp needs a zero constant coefficient")
    term = acc = Series2.one(s.order)
    for m in range(1, s.order + 1):
        term = series_of(
            s.order,
            {
                slot: Poly2.from_coeffs(exact_div(c, m) for c in p.coeffs)
                for slot, p in (term * s).items()
            },
        )
        acc = acc + term
    return acc


def eta_termwise(u: int, v: int, order: int) -> Series2:
    """eta(u x + v y) in two variables, slot by slot.

    (u x + v y)^d / d! weights x^a y^b by u^a v^b / (a! b!), so the stored
    coefficient at (a, b) is alpha^(a+b-1) u^a v^b.
    """
    return series_of(
        order,
        {
            (a, d - a): Poly2.from_coeffs((0,) * (d - 1) + (u**a * v ** (d - a),))
            for d in range(1, order + 1)
            for a in range(d + 1)
        },
    )


# ---------------------------------------------------------------------------
# the list series kernel


def _accumulate(acc: list | None, p: tuple, q: tuple, weight: int) -> list:
    """acc + weight * p * q, for the dense coefficient tuples of two nonzero Poly2s.

    acc is a slot's running coefficient list, or None for a slot nothing has
    landed in yet; it is updated in place and returned.  Every slot of a
    graded series has one degree, so a product of another degree is a
    fault of the kernel.
    """
    n = len(p) + len(q) - 1
    if acc is None:
        acc = [0] * n
    assert len(acc) == n, f"a product of degree {n - 1} lands in a slot of degree {len(acc) - 1}"
    for i, x in enumerate(p):
        if x:
            x *= weight
            for k, y in enumerate(q, i):
                acc[k] += x * y
    return acc


def list_slot_products(a: Series2, b: Series2) -> dict[Slot, list]:
    """The binomial product a b as one coefficient list per slot.

    b's slots are walked in order of total degree, so each slot of a stops
    at the first one that would land beyond the truncation order.
    """
    order = a.order
    right = sorted(
        ((k2 + l2, k2, l2, p2.coeffs) for (k2, l2), p2 in b.items()), key=itemgetter(0)
    )
    out: dict[Slot, list] = {}
    for (k1, l1), p1 in a.items():
        room = order - k1 - l1
        for degree, k2, l2, q in right:
            if degree > room:
                break
            k, l = k1 + k2, l1 + l2
            weight = comb(k, k1) * comb(l, l1)
            out[(k, l)] = _accumulate(out.get((k, l)), p1.coeffs, q, weight)
    return out


def list_product(a: Series2, b: Series2) -> Series2:
    products = list_slot_products(a, b)
    return series_of(a.order, {slot: Poly2.from_coeffs(c) for slot, c in products.items()})


def list_inv_series(s: Series2) -> Series2:
    """1 / s for a constant coefficient 1, solving b = 1 + (1 - s) b slot by slot.

    b[k,l] = [k=l=0] - sum C(k,k1) C(l,l1) s[k1,l1] b[k-k1,l-l1] over the
    slots of s off the constant one, in order of total degree.
    """
    assert s.coeff(0, 0).coeffs == (1,)
    r = [(k1, l1, p.coeffs) for (k1, l1), p in s.items() if (k1, l1) != (0, 0)]
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
    return series_of(s.order, {slot: Poly2.from_coeffs(c) for slot, c in inv.items()})


# ---------------------------------------------------------------------------
# h-level series, and the identities I5-I8 between them


def f_from_h(p: Poly2) -> Poly2:
    """Substitute alpha -> alpha + t, the inverse of ``h_from_f``.

    With t = 1 this is the Taylor shift h(alpha) -> h(alpha + 1), by
    repeated synthetic division.
    """
    f = list(p.coeffs)
    n = len(f) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            f[k] += f[k + 1]
    return Poly2.from_coeffs(f)


def subst_h_series(s: Series2) -> Series2:
    """Apply the alpha -> alpha - t substitution to every coefficient, in s's fields."""
    polys = {slot: h_from_f(p).coeffs for slot, p in s.items()}
    return packed_series(s.order, s.offset, polys, s._width)


def family_h(fam: "FamilySpec | str", order: int = DEFAULT_ORDER) -> Series2:
    """h-polynomial generating function: the face series under alpha -> alpha - t."""
    return subst_h_series(family_f(fam, order))


def phi_h(order: int = DEFAULT_ORDER) -> Series2:
    """phi, the kernel of I6-I8, under alpha -> alpha - t.

    Its constant coefficient is 1 and its y = 0 slice is 1 + (alpha + t) Pe_h(x).
    """
    return subst_h_series(_phi_f(order))


def h_level_identities(
    order: int, corrupt: str | None = None
) -> dict[str, tuple[int, int, Poly2] | None]:
    """I5-I8 of ``identity_suite``, each side pushed through alpha -> alpha - t.

    Returns each identity's first mismatch keyed by its name, None where
    the two sides agree, as the suite does.

    The operands are the h-series of pe, st, nabla-because and
    because-because (one term dropped from ``corrupt``'s face series
    first, as the suite does), phi_h, and pe_h at x + y, with the
    scalars alpha + t and alpha t and the factor e^{(alpha + t) y}.
    """
    series_f = {fam_id: family_f(fam_id, order) for fam_id in IDENTITY_FAMILIES}
    if corrupt is not None:
        series_f[corrupt] = _drop_one_term(series_f[corrupt])
    st_h, nb_h, bb_h = (
        subst_h_series(series_f[fam_id]) for fam_id in ("st", "nabla-because", "because-because")
    )
    phi = phi_h(order)
    a, t = Poly2.from_coeffs((0, 1)), Poly2.from_coeffs((1, 0))
    at, apt = a * t, a + t
    low = order - 1
    st_l, nb_l, bb_l, phi_l = (truncate(s, low) for s in (st_h, nb_h, bb_h, phi))
    pe_l = subst_h_series(truncate(series_f["pe"], low))
    sum_l = _diagonal(subst_h_series(truncate(family_f("pe", order), low)))
    grow_phi = truncate(swap_xy(exp_series(apt, order)), low) * phi_l
    x_l, y_l = (truncate(Series2.monomial(order, *xy), low) for xy in ((1, 0), (0, 1)))
    checks = [
        ("I5", deriv_x(st_h), st_l * apt + pe_l * st_l * at),
        ("I6", deriv_x(nb_h), grow_phi + nb_l * sum_l * at),
        ("I7", deriv_y(phi), sum_l * phi_l * at),
        (
            "I8",
            deriv_x(bb_h),
            bb_l * sum_l * at
            + swap_xy(nb_l) * apt
            - sum_l * apt
            - (x_l + y_l) * sum_l * at
            + grow_phi,
        ),
    ]
    return {name: first_mismatch(lhs, rhs) for name, lhs, rhs in checks}


# ---------------------------------------------------------------------------
# permutohedron gamma vectors by counting permutations


def permutohedron_gammas(n: int) -> GammaVector:
    """The gamma vector of the permutohedron of complete:n, by enumeration.

    Postnikov-Reiner-Williams (arXiv:math/0609184, section 11, after
    Foata-Strehl): pad a permutation w of [n] with w_0 = w_(n+1) = infinity;
    then gamma_i counts the permutations with i descents w_j > w_(j+1),
    1 <= j < n, and no double descent w_(j-1) > w_j > w_(j+1), 1 <= j <= n.
    """
    inf = n + 1
    gammas = [0] * ((n - 1) // 2 + 1)
    for w in permutations(range(n)):
        padded = (inf, *w, inf)
        if any(padded[j - 1] > padded[j] > padded[j + 1] for j in range(1, n + 1)):
            continue
        gammas[sum(w[j] > w[j + 1] for j in range(n - 1))] += 1
    return GammaVector(n - 1, tuple(gammas))


# ---------------------------------------------------------------------------
# family coefficients as one sum over the denominator


@lru_cache(maxsize=None)
def _denominator(n: int) -> tuple[int, ...]:
    """D_n of 1/(1 - t eta) at t = 1, lowest alpha power first.

    D_0 = 1 and D_n = sum over d = 1..n of C(n, d) alpha^(d-1) t D_(n-d).
    D_n is homogeneous of degree n, so it keeps n + 1 entries; past n = 0
    the top one, alpha^n's, is zero, as every term holds t.
    """
    if n == 0:
        return (1,)
    acc = [0] * (n + 1)
    for d in range(1, n + 1):
        for i, c in enumerate(_denominator(n - d)):
            acc[d - 1 + i] += comb(n, d) * c
    return tuple(acc)


def _numerator(fam: str, a: int, b: int) -> list[int]:
    """B(a, b), the numerator's stored coefficient, at t = 1; empty where it is zero."""
    if fam == "pe":
        return [0] * (a - 1) + [1] if a and not b else []
    if fam in ("st", "starmarked"):
        return [comb(a, i) for i in range(a + 1)] if b == (1 if fam == "starmarked" else 0) else []
    if fam == "nabla-because":
        return [0] * (a - 1) + [comb(b, i) for i in range(b + 1)] if a else []
    if fam == "because-because":
        if not (a and b):
            return []
        out = [0] * (a + b)
        for i in range(a):
            out[b - 1 + i] += comb(a, i)
        for i in range(b):
            out[a - 1 + i] += comb(b, i)
        out[a + b - 1] += 1
        return out
    raise ValueError(f"unknown family {fam!r}")


def family_face_counts(fam: str, k: int, l: int) -> list[int]:
    """A family's stored coefficient at (k, l), lowest alpha power first.

    Every family series is a numerator times the denominator
    1/(1 - t eta), of x alone (pe, st, starmarked) or of x + y
    (nabla-because, because-because); both store D_N at every slot of
    total degree N.  So the stored coefficient at (k, l) is the sum over
    a <= k and b <= l of C(k, a) C(l, b) B(a, b) D_(k+l-a-b), where B is
    the numerator's:

    * pe:               alpha^(a-1) for a >= 1, b = 0
    * st:               (alpha + t)^a for b = 0
    * starmarked:       (alpha + t)^a for b = 1 (y times st)
    * nabla-because:    alpha^(a-1) (alpha + t)^b for a >= 1
    * because-because:  ((alpha + t)^a - alpha^a) alpha^(b-1), its mirror
                        and alpha^(a+b-1), for a, b >= 1

    The point terms x and y of because-because are added after the
    product, so they are not in B.  Every polynomial is homogeneous, so it
    is held at t = 1 as an int list in alpha with its degree's length, and
    no packing, width, bound or series product is shared with the library.
    At (m, n) with m, n >= 1 the because-because sum is the face counts of
    K_{m,n}.
    """
    out = [1] if fam == "because-because" and k + l == 1 else []
    for a in range(k + 1):
        for b in range(l + 1):
            numerator = _numerator(fam, a, b)
            if not numerator:
                continue
            den = _denominator(k + l - a - b)
            out = out or [0] * (len(numerator) + len(den) - 1)
            weight = comb(k, a) * comb(l, b)
            for i, c in enumerate(numerator):
                for j, d in enumerate(den):
                    out[i + j] += weight * c * d
    return out


# ---------------------------------------------------------------------------
# library surface only the tests use


def power(p: Poly2, exponent: int) -> Poly2:
    if exponent < 0:
        raise ValueError("negative power of a polynomial")
    out = Poly2.from_coeffs((1,))
    for _ in range(exponent):
        out = out * p
    return out


def poly_deriv_t(p: Poly2) -> Poly2:
    """Formal d/dt."""
    n = len(p.coeffs) - 1
    return Poly2.from_coeffs(c * (n - i) for i, c in enumerate(p.coeffs[:-1]))


def poly_from_records(records: Iterable[Mapping[str, object]]) -> Poly2:
    """Inverse of ``Poly2.to_records``; records of two degrees raise ``ValueError``."""
    out = Poly2.from_coeffs(())
    for r in records:
        i, j = int(r["i"]), int(r["j"])
        out = out + Poly2.from_coeffs((0,) * i + (int(r["c"]),) + (0,) * j)
    return out


def _gamma_basis(i: int, n: int) -> Poly2:
    """(alpha t)^i (alpha + t)^(n - 2i), expanded."""
    m = n - 2 * i
    return Poly2.from_coeffs((0,) * i + tuple(comb(m, k) for k in range(m + 1)) + (0,) * i)


def h_from_gamma(gv: GammaVector) -> Poly2:
    """Inverse of gamma_from_h: expand the gamma vector back to a polynomial."""
    out = Poly2.from_coeffs(())
    for i, g in enumerate(gv.gammas):
        if g:
            out = out + _gamma_basis(i, gv.n) * g
    return out


def dehn_sommerville(g: Graph) -> bool:
    """Symmetry of the h-polynomial of the recursion's face polynomial."""
    return is_symmetric(h_from_f(fpoly(g)))


def euler_relation_holds(face_counts: list[int]) -> bool:
    """Alternating codimension sum: sum_i (-1)^(n-i) f_i = (-1)^n."""
    n = len(face_counts) - 1
    total = sum((-1) ** (n - i) * f for i, f in enumerate(face_counts))
    return total == (-1) ** n


def restrict_y0(s: Series2) -> Series2:
    """The y = 0 slice, kept as a series in x."""
    return series_of(s.order, {slot: p for slot, p in s.items() if slot[1] == 0})

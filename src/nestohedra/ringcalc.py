"""The nested-set recursion: face polynomials of graph nestohedra.

A face of the nestohedron of a connected graph on W is a nested set of
tubes (node sets inducing connected subgraphs) that holds W.  Dropping W
leaves a node set U, a proper subset of W, whose components carry nested
sets of their own (Postnikov, arXiv:math/0507163, section 7; Carr and
Devadoss, arXiv:math/0407229).  So, with F_W the sum of alpha^dim over the
faces, (1 + alpha) F_W is the sum over every U inside W of
alpha^|W - U| times the F of each component of U.  Splitting on whether U
holds a node v of W, and on the component C of v in U, gives

    F_W = S(W - v) + sum over C of F_C alpha^(|N_W(C)| - 1) S(W - C - N_W(C))

over the connected C that hold v, other than W itself.  N_W(C) is the set
of nodes of W outside C with a neighbour in C, and S(X) is the product of
(1 + alpha) F_D over the components D of X, with S of nothing 1.  Every
subproblem is an induced subgraph of the input, so the recursion runs on
node masks of the one graph, and every term is a nonnegative integer.

Twin nodes of a graph (``twin_classes``) stay twins in every induced
subgraph, so F_W depends only on how many nodes W takes from each class.
The memo is keyed on the twin-canonical mask, the first nodes of each
class.  A class is named by its first node, and the classes W meets are
W's first nodes.  ``expand`` takes for v the first node of a class with
the fewest neighbouring classes in W, the lowest of those, since a class
with few neighbouring classes tends to lie in few connected C; W - v is
then W less the last masked node of v's class.  It walks the C inline, one class
at a time through the class quotient, and chooses counts only inside
classes whose second node is in W.  On a twin-free graph this is plain
connected-set extension, with one memo read and one addition per C.

Every face polynomial, product S(X) and partial sum is one int, packed
at W = _WIDTH as the ``algebra`` module docstring describes.  Multiplying
by (1 + alpha) or by alpha^k, adding and convolving are then single
integer operations.  Every coefficient built is a partial sum of the face
counts of a nestohedron on at most MAX_GROUND nodes, so it is at most the
face count of the permutohedron, the ordered Bell number, which stays
below 2^(W-1) and never carries into the next field.

A subproblem of 2-6 nodes is read from the committed table ``_SMALL`` by
``_shape``, and one of seven nodes from the committed table ``SEVEN`` by
``_seven_key``: each is an int that names its isomorphism class.  So the
formula runs only on eight or more nodes, and a graph takes its twin
classes only once the formula runs on it.  Both tables list the classes
of each node count in atlas order, so ``class_face_counts`` reads a whole
class scan's face counts by position, with no graph built and no key.
There ``FPolyCache`` shares results between graphs: each subproblem missed
by the per-call mask memo is looked up, and stored, under the adjacency
tuple of its labelled induced subgraph.  The recursion
takes graphs only: nestohedra of building sets that do not come from a
graph are out of scope.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from ._seven import SEVEN
from .algebra import Poly2, _digits, _egf_inverse, _pack
from .buildingset import (
    MAX_GROUND,
    Graph,
    _closure,
    _induced_adj,
    graph_spec,
    twin_classes,
)

__all__ = ["FPolyCache", "class_face_counts", "fpoly"]


# bits per packed coefficient: the largest face count, the ordered Bell
# number (1 / (2 - e^z), the permutohedron's), and a sign bit
_WIDTH = _egf_inverse((0,) + (1,) * MAX_GROUND)[-1].bit_length() + 1
_ONE_PLUS_ALPHA = 1 << _WIDTH | 1


class FPolyCache(dict):
    """Packed face counts of connected graphs on eight or more nodes.

    A key is the adjacency tuple of a labelled graph, and ``Graph(key)`` is
    that graph; graphs of 2-6 nodes are read from ``_SMALL`` and graphs of
    seven from ``SEVEN``.  Shared across ``fpoly`` calls.
    """

    lookup = dict.get
    store = dict.__setitem__


def _shape(adj: tuple[int, ...], mask: int) -> int:
    """The isomorphism class of the connected induced subgraph on mask, 2-6 nodes.

    Each node of degree d in it adds 1 << 4 * d, a histogram of degrees
    with a 4-bit count each, and that is the shape when it is a key of
    ``_SMALL``.  Two histograms on five nodes and 23 on six belong to more
    than one class, and are no keys.  On those only, two sums over the
    nodes v and their neighbours u go above it: |N(u) & N(v)|, six times
    the triangle count, at bit 24, and deg(v) * deg(u), at least 1, at bit
    32.  So the 27,475 labelled connected graphs on 2-6 nodes take 142
    shapes, one per class, which the tests check against a canonical form.
    """
    shape, left = 0, mask
    while left:
        low = left & -left
        left ^= low
        shape += 1 << 4 * (adj[low.bit_length() - 1] & mask).bit_count()
    if shape in _SMALL:
        return shape
    left = mask
    while left:
        low = left & -left
        left ^= low
        row = rest = adj[low.bit_length() - 1] & mask
        t = s = 0
        while rest:
            u = rest & -rest
            rest ^= u
            r = adj[u.bit_length() - 1] & mask
            t += (r & row).bit_count()
            s += r.bit_count()
        shape += t << 24 | row.bit_count() * s << 32
    return shape


# face counts of each connected class on 2-6 nodes, by its _shape, in the
# atlas order of connected_graphs_upto_iso(6), which class_face_counts
# reads by position: int literals, f_0 ... f_(n-1) = 1 in 16-bit fields,
# lowest first, so that importing builds no tuple per entry; made once by
# the recursion's fpoly over those classes and checked against the facet
# recursion in the tests
_SMALL = {
    shape: _pack([f >> 16 * i & 0xFFFF for i in range(6)], _WIDTH)
    for shape, f in {
        0x20: 0x10002, 0x120: 0x100050005,
        0x300: 0x100060006, 0x1030: 0x1000a00180010,
        0x220: 0x100090015000e, 0x1210: 0x1000b001b0012,
        0x400: 0x1000c001e0014, 0x2200: 0x1000d00210016,
        0x4000: 0x1000e00240018, 0x10040: 0x10013005400820041,
        0x1130: 0x10010004300660033, 0x320: 0x1000e00380054002a,
        0x10220: 0x10014005a008c0046, 0x2120: 0x10012004e0078003c,
        0x3006001310: 0x10011004900700038, 0x2e00001310: 0x100140059008a0045,
        0x500: 0x10014005a008c0046, 0x11210: 0x100160065009e004f,
        0x3110: 0x10015005f0094004a, 0x10400: 0x1001500610098004c,
        0x4a06002300: 0x10017006b00a80054, 0x4800002300: 0x10019007500b8005c,
        0x13010: 0x10017006b00a80054, 0x20300: 0x1001a007c00c40062,
        0x12200: 0x10019007700bc005e, 0x4100: 0x1001a007c00c40062,
        0x22100: 0x1001b008300d00068, 0x14000: 0x1001c008800d8006c,
        0x32000: 0x1001d008f00e40072, 0x50000: 0x1001e009600f00078,
        0x100050: 0x10024010902d0032f0146, 0x10140: 0x1001d00c7020e024e00ec,
        0x2040: 0x1001b00b601de021700d6, 0x2600001230: 0x10018009a018c01b800b0,
        0x2400001230: 0x1001700920176019f00a6, 0x420: 0x100140078012c014a0084,
        0x100230: 0x10025011402f203570156, 0x11130: 0x1001f00da0246028f0106,
        0x3030: 0x1001c00bd01f0022b00de, 0x4406010320: 0x1001e00d1022c027100fa,
        0x4000010320: 0x1002300fe02ae03070136, 0x4006002220: 0x1001a00ac01c001f400c8,
        0x3e00002220: 0x1002000e00254029e010c, 0x3c00002220: 0x1001f00d60236027b00fe,
        0x3e06002220: 0x1001c00c10200023f00e6, 0x3806001410: 0x10018009c019401c200b4,
        0x3800001410: 0x1001d00c6020a024900ea, 0x3600001410: 0x1002000e1025802a3010e,
        0x600: 0x1001e00d20230027600fc, 0x101220: 0x100270127032a03980170,
        0x20220: 0x1002300fe02ae03070136, 0x6c0c012120: 0x1002200f4029002e40128,
        0x6a0c012120: 0x10024010902d0032f0146, 0x4020: 0x1002000e00254029e010c,
        0x100410: 0x100260120031803840168, 0x6006011310: 0x10026011a03000366015c,
        0x620c011310: 0x1002000e6026c02bc0118, 0x640c011310: 0x1002000e3026002ad0112,
        0x5c00011310: 0x100290133034603b6017c, 0x5a06003210: 0x10024010602c403200140,
        0x5e0c003210: 0x1001e00d00228026c00f8, 0x5c06003210: 0x1002300fd02aa03020134,
        0x5a00003210: 0x10027011f030a03700160, 0x10500: 0x10024010b02d80339014a,
        0x5206002400: 0x10024010902d0032f0146, 0x5200002400: 0x100270123031a03840168,
        0x5000002400: 0x100290133034603b6017c, 0x520c002400: 0x1001d00cd0226026c00f8,
        0x103020: 0x100280132034c03c00180, 0x22020: 0x10024010802cc032a0144,
        0x110310: 0x1002b014b0392041001a0, 0x102210: 0x1002a0143037c03f70196,
        0x9412021210: 0x10028012e033c03ac0178, 0x9612021210: 0x10028012b0330039d0172,
        0x8e12013110: 0x10026011a03000366015c, 0x8c0c013110: 0x100290136035203c50182,
        0x8a0c013110: 0x1002a013f036c03e3018e, 0x9218013110: 0x1002100ed027e02d00120,
        0x5010: 0x10028012b0330039d0172, 0x101400: 0x100280135035803cf0186,
        0x880c020400: 0x1002c015403ac042e01ac, 0x8000020400: 0x100320189044404dd01f2,
        0x820c012300: 0x1002a0142037803f20194, 0x800c012300: 0x1002a0143037c03f70196,
        0x7e06012300: 0x1002e016503dc046501c2, 0x8212012300: 0x10025011702fe0366015c,
        0x7806004200: 0x1002d015b03be044201b4, 0x780c004200: 0x100290139035e03d40188,
        0x7a0c004200: 0x1002a0140037003e80190, 0x7800004200: 0x1002f016d03f2047e01cc,
        0x112110: 0x1002c015703b8043d01b2, 0x31110: 0x1002a0142037803f20194,
        0x104010: 0x1002d015f03ce045601bc, 0xc418023010: 0x1002c015303a8042901aa,
        0xc81e023010: 0x100290137035603ca0184, 0x200400: 0x10033019804760519020a,
        0x111300: 0x10030017d042804bf01e6, 0x30300: 0x1002e016b03f4048301ce,
        0xbe18103200: 0x1002e016c03f8048801d0, 0xc01e103200: 0x100290141037e03fc0198,
        0xb612022200: 0x10030017c042404ba01e4, 0xb818022200: 0x1002d016103d6046001c0,
        0xb812022200: 0x10030017b042004b501e2, 0xba18022200: 0x1002d016103d6046001c0,
        0xb20c022200: 0x100330197047205140208, 0xae12014100: 0x10030017a041c04b001e0,
        0xac12014100: 0x1002f0173040a049c01d8, 0xac0c014100: 0x10032018d045404f101fa,
        0xa20c006000: 0x10032018c045004ec01f8, 0xa200006000: 0x1003601b004b805640228,
        0x122010: 0x1002e016b03f4048301ce, 0x41010: 0x1002d015f03ce045601bc,
        0x202200: 0x1003401a604a405500220, 0x121200: 0x100320194047005140208,
        0x40200: 0x100310189044e04ec01f8, 0xfa1e113100: 0x1003401a504a0054b021e,
        0xfc24113100: 0x10031018b045604f601fc, 0xf21e032100: 0x10033019b048205280210,
        0xf41e032100: 0x10033019b048205280210, 0xf018032100: 0x1003501ae04ba0569022a,
        0x105000: 0x1003401a4049c0546021c, 0xe618024000: 0x1003501ad04b605640228,
        0xe612024000: 0x1003701bf04ea05a00240, 0xe418024000: 0x1003401a604a405500220,
        0x140010: 0x1002f0177041a04b001e0, 0x212100: 0x1003601bd04ec05a50242,
        0x131100: 0x1003501b304ce05820234, 0x50100: 0x1003601bc04e805a00240,
        0x204000: 0x1003501b504d6058c0238, 0x13c2a123000: 0x1003701c5050205be024c,
        0x13a24123000: 0x1003901d7053605fa0264, 0x13024042000: 0x1003801ce051c05dc0258,
        0x13224042000: 0x1003801ce051c05dc0258, 0x230100: 0x1003701cb051a05dc0258,
        0x303000: 0x1003a01e605680636027c, 0x222000: 0x1003901dd054e06180270,
        0x141000: 0x1003a01e605680636027c, 0x60000: 0x1003b01ef058206540288,
        0x321000: 0x1003b01f5059a06720294, 0x240000: 0x1003c01fe05b4069002a0,
        0x420000: 0x1003d020d05e606cc02b8, 0x600000: 0x1003e021c0618070802d0,
    }.items()
}


def class_face_counts(n: int) -> list[list[int]]:
    """Face counts f_0 ... f_(n-1) = 1 of the connected classes on n nodes, 1 <= n <= 7.

    One list per class, in the atlas order of
    ``connected_graphs_upto_iso(n, n)``, which ``_SMALL`` and ``SEVEN`` keep
    for each node count: read by position, with no key.  A class on n nodes
    is the ``_SMALL`` entry whose top face sits in field n - 1.
    """
    if n == 1:
        return [[1]]
    if n == 7:
        return [[f >> 16 * i & 0xFFFF for i in range(7)] for f in SEVEN.values()]
    return [_digits(f, _WIDTH) for f in _SMALL.values() if f >> _WIDTH * (n - 1) == 1]


def _seven_key(adj: tuple[int, ...], mask: int) -> int:
    """The isomorphism class of the connected induced subgraph on mask, 7 nodes.

    Each node v of it has the code deg(v) << 11 | t << 6 | s, where t sums
    |N(u) & N(v)| over the neighbours u of v, twice the triangles at v, and
    s sums deg(u) over them, all inside mask; t is at most 30 and s at most
    36, so the fields never overlap.  The key is the sorted codes, 14 bits
    each, the largest lowest.  A sorted multiset of node invariants is the
    same for every labelling, and the 853 connected classes on seven nodes
    take 853 keys, which the tests check.
    """
    codes, left = [], mask
    while left:
        low = left & -left
        left ^= low
        row = rest = adj[low.bit_length() - 1] & mask
        t = s = 0
        while rest:
            u = rest & -rest
            rest ^= u
            r = adj[u.bit_length() - 1] & mask
            t += (r & row).bit_count()
            s += r.bit_count()
        codes.append(row.bit_count() << 11 | t << 6 | s)
    key = 0
    for code in sorted(codes):
        key = key << 14 | code
    return key


class _NestedSets:
    """The recursion on the twin-canonical node masks of one graph.

    A mask is twin-canonical when it holds the first nodes of each twin
    class.  The masks built below all are, and so are their components: a
    component holds every masked node of each class it meets, unless the
    class is independent and its node is on its own, which is one node.
    So a class is named by its first node, the lowest node of a mask is
    the first node of its class, and a class has several nodes in a mask
    exactly when its second node is in it.

    Only ``expand`` reads the twin classes, so they and the per-node tables
    built from them wait for its first call.  A graph whose components
    all have at most seven nodes is read from ``_SMALL`` and ``SEVEN``
    whole and never builds them.
    """

    def __init__(self, g: Graph, cache: FPolyCache):
        self.g, self.adj, self.cache = g, g.adj, cache
        self.quotient: list[int] | None = None
        self.memo: dict[int, int] = {}
        self.products: dict[int, int] = {}

    def _twin_tables(self) -> None:
        """The twin classes' first and second nodes, and the per-node tables of ``expand``."""
        g = self.g
        classes = twin_classes(g)
        self.reps = sum(1 << c[0] for c in classes)
        self.seconds = sum(1 << c[1] for c in classes if len(c) > 1)
        # per node, of its class: prefix[v][c], the first c nodes; clique[v];
        # reach[v], the nodes outside it joined to it; quotient[v], their
        # classes' first nodes
        self.prefix: list[list[int]] = [[]] * g.n
        self.clique = [False] * g.n
        self.reach = [0] * g.n
        for nodes in classes:
            masks = [0]
            for v in nodes:
                masks.append(masks[-1] | 1 << v)
            clique = len(nodes) > 1 and g.adj[nodes[0]] >> nodes[1] & 1
            for v in nodes:
                self.prefix[v], self.clique[v] = masks, clique
                self.reach[v] = g.adj[v] & ~masks[-1]
        self.quotient = [r & self.reps for r in self.reach]

    def face_counts(self, mask: int) -> int:
        """Packed F of a connected twin-canonical mask: memo, tables, shared cache, formula."""
        f = self.memo.get(mask)
        if f is not None:
            return f
        if not mask & (mask - 1):
            return 1
        n = mask.bit_count()
        if n <= 6:
            f = _SMALL[_shape(self.adj, mask)]
        elif n == 7:
            counts = SEVEN[_seven_key(self.adj, mask)]
            f = _pack([counts >> 16 * i & 0xFFFF for i in range(7)], _WIDTH)
        else:
            key = _induced_adj(self.adj, mask)
            f = self.cache.lookup(key)
            if f is None:
                f = self.expand(mask)
                if f >> _WIDTH * (n - 1) != 1:
                    raise ArithmeticError(
                        f"face counts of {graph_spec(Graph(key))} are {_digits(f, _WIDTH)}, "
                        f"not {n} entries ending in 1"
                    )
                self.cache.store(key, f)
        self.memo[mask] = f
        return f

    def components(self, mask: int) -> Iterator[int]:
        left = mask
        while left:
            part = _closure(self.adj, left & -left, mask)
            left ^= part
            yield part

    def components_product(self, mask: int) -> int:
        """Packed S(mask): (1 + alpha) F_D multiplied over the components D."""
        out = self.products.get(mask)
        if out is None:
            out = 1
            for part in self.components(mask):
                out *= _ONE_PLUS_ALPHA * self.face_counts(part)
            self.products[mask] = out
        return out

    def expand(self, mask: int) -> int:
        """The formula for packed F_W, W = mask, before any check.

        v is the first node of a class with the fewest neighbouring classes
        in W, the lowest such.  Walks the connected C that hold v, one class
        at a time: C grows by one quotient neighbour of its classes, and the
        neighbours tried before it are banned from that branch, so each set
        of classes comes once.  C takes the masked nodes of every class it
        meets; counts are chosen only in classes with several nodes of W.
        """
        if self.quotient is None:
            self._twin_tables()
        prefix, reach, quotient, seconds = self.prefix, self.reach, self.quotient, self.seconds
        memo, face_counts = self.memo, self.face_counts
        support = mask & self.reps
        # v: the lowest first node of a class with the fewest neighbouring
        # classes, which are fewer than W's classes
        v, fewest, left = 0, support.bit_count(), support
        while left:
            low = left & -left
            left ^= low
            i = low.bit_length() - 1
            k = (quotient[i] & support).bit_count()
            if k < fewest:
                v, fewest = i, k
        # S(W - v): v is the first node of its class, so drop the class's last
        own = prefix[v]
        w0 = (mask & own[-1]).bit_count()
        out = self.components_product(mask ^ own[w0] ^ own[w0 - 1])
        # per remainder X: the sum of weight * F_C * alpha^(|N_W(C)| - 1)
        sums: dict[int, int] = {}
        # C's masked nodes, the classes left to try, the banned ones, and
        # the nodes joined to C's classes
        stack = [(mask & own[-1], quotient[v] & support, 0, reach[v])]
        while stack:
            part, frontier, banned, joined = stack.pop()
            # classes outside C go whole to N_W(C) (rim, counted) or to X (rest)
            rim = (mask & joined & ~part).bit_count()
            rest = mask & ~(part | joined)
            twins = part & seconds
            if not twins:
                if part != mask:
                    # a packed F is never 0, so `or` falls through only on a memo miss
                    f = memo.get(part) or face_counts(part)
                    sums[rest] = sums.get(rest, 0) + (f << _WIDTH * (rim - 1))
            else:
                # partial terms (C's nodes, the ways to pick them with v among
                # them, |N_W(C)|, X), one per count c in each class of several
                # nodes met so far; C takes the one masked node of each other class
                terms = [(part, 1, rim, rest)]
                while twins:
                    second = twins & -twins
                    twins ^= second
                    i = second.bit_length() - 1
                    masks = prefix[i]
                    w = (mask & masks[-1]).bit_count()
                    # the class's nodes left out of C are joined to C, unless the
                    # class is independent and C lies inside it (then C is one node)
                    to_rim = self.clique[i] or part & support != masks[1]
                    terms = [
                        (
                            c_part ^ masks[w] ^ masks[c],
                            weight * (comb(w - 1, c - 1) if masks is own else comb(w, c)),
                            size + w - c if to_rim else size,
                            left if to_rim else left | masks[w - c],
                        )
                        for c_part, weight, size, left in terms
                        for c in range(1, w + 1 if to_rim else 2)
                    ]
                for c_part, weight, size, left in terms:
                    if c_part != mask:
                        f = memo.get(c_part) or face_counts(c_part)
                        sums[left] = sums.get(left, 0) + (weight * f << _WIDTH * (size - 1))
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                i = low.bit_length() - 1
                grown = part | mask & prefix[i][-1]
                new = quotient[i] & support & ~grown & ~banned
                stack.append((grown, frontier | new, banned, joined | reach[i]))
                banned |= low
        for left, acc in sums.items():
            out += acc * self.components_product(left)
        return out


def fpoly(g: Graph, cache: FPolyCache | None = None) -> Poly2:
    """Face polynomial of the nestohedron of a graph's building set.

    The product over the components of the nested-set recursion's face
    counts; without a caller's cache the shared memo lives for this call
    only.  Graphs with more than MAX_GROUND nodes raise ValueError.  A
    subproblem whose face counts do not have one entry per node, ending in
    the single top face, is the recursion's fault, not the input's, and
    raises ArithmeticError naming that induced subgraph.
    """
    if g.n > MAX_GROUND:
        raise ValueError(f"graph larger than {MAX_GROUND} nodes")
    nested = _NestedSets(g, cache if cache is not None else FPolyCache())
    f = 1
    for part in nested.components((1 << g.n) - 1):
        f *= nested.face_counts(part)
    return Poly2.from_coeffs(_digits(f, _WIDTH))

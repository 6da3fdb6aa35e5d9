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
an int that names its isomorphism class, ``_shape`` on 2-5 nodes and
``_six_shape`` on six, so the formula runs only on seven or more nodes,
and a graph takes its twin classes only once the formula runs on it.
There ``FPolyCache`` shares results between graphs: each subproblem missed
by the per-call mask memo is looked up, and stored, under the adjacency
tuple of its labelled induced subgraph.  The recursion
takes graphs only: nestohedra of building sets that do not come from a
graph are out of scope.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .algebra import Poly2, _digits, _egf_inverse, _pack
from .buildingset import (
    MAX_GROUND,
    Graph,
    _closure,
    _induced_adj,
    graph_spec,
    twin_classes,
)

__all__ = ["FPolyCache", "fpoly"]


# bits per packed coefficient: the largest face count, the ordered Bell
# number (1 / (2 - e^z), the permutohedron's), and a sign bit
_WIDTH = _egf_inverse((0,) + (1,) * MAX_GROUND)[-1].bit_length() + 1
_ONE_PLUS_ALPHA = 1 << _WIDTH | 1


class FPolyCache(dict):
    """Packed face counts of connected graphs on seven or more nodes.

    A key is the adjacency tuple of a labelled graph, and ``Graph(key)`` is
    that graph; graphs of 2-6 nodes are read from ``_SMALL``.  Shared across
    ``fpoly`` calls.
    """

    lookup = dict.get
    store = dict.__setitem__


def _shape(adj: tuple[int, ...], mask: int) -> int:
    """The isomorphism class of the connected induced subgraph on mask, 2-5 nodes.

    Each node of degree d in it adds 1 << 4 * d, a histogram of degrees
    with a 4-bit count each.  The degrees tell apart the connected graphs
    on 2-5 nodes but two pairs on five: degrees (1,2,2,2,3), a triangle
    with a two-edge tail and a 4-cycle with a pendant, and (2,2,2,3,3),
    the house and K_{2,3}.  On those two histograms only, the sum over
    nodes v and their neighbours u of |N(u) & N(v)|, six times the
    triangle count, goes above it at bit 24 and tells each pair apart.  So
    the 771 labelled connected graphs on 2-5 nodes take 30 shapes, one per
    class, which the tests check against a canonical form.  Six-node
    subproblems take ``_six_shape``, which costs about four times as much.
    """
    shape, left = 0, mask
    while left:
        low = left & -left
        left ^= low
        shape += 1 << 4 * (adj[low.bit_length() - 1] & mask).bit_count()
    if shape == 0x1310 or shape == 0x2300:
        left = mask
        while left:
            low = left & -left
            left ^= low
            row = rest = adj[low.bit_length() - 1] & mask
            while rest:
                u = rest & -rest
                rest ^= u
                shape += (adj[u.bit_length() - 1] & row).bit_count() << 24
    return shape


def _six_shape(adj: tuple[int, ...], mask: int) -> int:
    """The isomorphism class of the connected induced subgraph on mask, 6 nodes.

    Each node v gives the code (d * 21 + t) * 26 + s, with d its degree, t
    the sum over its neighbours u of |N(u) & N(v)|, twice its triangles,
    and s the sum of its neighbours' degrees; d <= 5, t <= 20 and s <= 25,
    so a code fits 12 bits.  The sorted codes, packed 12 bits each, take
    one value on each of the 112 classes: all 26,704 labelled connected
    graphs on six nodes take 112 shapes, which the tests check against a
    canonical form.  A code of d >= 1 and s >= 1 is at least 547, so a
    shape is at least 547 << 60 and above every ``_shape``.
    """
    rows = {}
    left = mask
    while left:
        low = left & -left
        left ^= low
        rows[low] = adj[low.bit_length() - 1] & mask
    codes = []
    for row in rows.values():
        t = s = 0
        rest = row
        while rest:
            u = rest & -rest
            rest ^= u
            r = rows[u]
            t += (r & row).bit_count()
            s += r.bit_count()
        codes.append((row.bit_count() * 21 + t) * 26 + s)
    codes.sort()
    shape = 0
    for code in codes:
        shape = shape << 12 | code
    return shape


# face counts (f_0, ..., f_{n-1} = 1) of each connected class on 2-5 nodes,
# by its _shape; made once by the recursion over connected_graphs_upto_iso(5)
# and checked against the facet recursion in the tests
_SMALL = {
    shape: _pack(f, _WIDTH)
    for shape, f in {
        0x20: (2, 1),  # edge
        0x120: (5, 5, 1),  # path
        0x300: (6, 6, 1),  # triangle
        0x1030: (16, 24, 10, 1),  # K_{1,3}
        0x220: (14, 21, 9, 1),  # path
        0x1210: (18, 27, 11, 1),  # triangle with a pendant
        0x400: (20, 30, 12, 1),  # 4-cycle
        0x2200: (22, 33, 13, 1),  # K_4 less an edge
        0x4000: (24, 36, 14, 1),  # K_4
        0x10040: (65, 130, 84, 19, 1),  # K_{1,4}
        0x1130: (51, 102, 67, 16, 1),  # K_{1,3} with one edge subdivided
        0x320: (42, 84, 56, 14, 1),  # path
        0x10220: (70, 140, 90, 20, 1),  # triangle with two pendants at one node
        0x2120: (60, 120, 78, 18, 1),  # triangle with pendants at two nodes
        0x6001310: (56, 112, 73, 17, 1),  # triangle with a two-edge tail
        0x1310: (69, 138, 89, 20, 1),  # 4-cycle with a pendant
        0x500: (70, 140, 90, 20, 1),  # 5-cycle
        0x11210: (79, 158, 101, 22, 1),  # K_4 less an edge, pendant at a degree-3 node
        0x3110: (74, 148, 95, 21, 1),  # K_4 less an edge, pendant at a degree-2 node
        0x10400: (76, 152, 97, 21, 1),  # two triangles sharing a node
        0x6002300: (84, 168, 107, 23, 1),  # house
        0x2300: (92, 184, 117, 25, 1),  # K_{2,3}
        0x13010: (84, 168, 107, 23, 1),  # K_4 with a pendant
        0x20300: (98, 196, 124, 26, 1),  # K_{2,3} with an edge in the part of two
        0x12200: (94, 188, 119, 25, 1),  # a node joined to a 4-node path
        0x4100: (98, 196, 124, 26, 1),  # K_{2,3} with an edge in the part of three
        0x22100: (104, 208, 131, 27, 1),  # K_5 less a two-edge path
        0x14000: (108, 216, 136, 28, 1),  # K_5 less two disjoint edges
        0x32000: (114, 228, 143, 29, 1),  # K_5 less an edge
        0x50000: (120, 240, 150, 30, 1),  # K_5
    }.items()
}
# face counts of each connected class on six nodes, by its _six_shape: int
# literals, f_0 ... f_5 in 16-bit fields, lowest first, so that importing
# builds no tuple per entry; made once by the recursion's fpoly over
# connected_graphs_upto_iso(6) and checked against the facet recursion in
# the tests
_SMALL.update(
    (shape, _pack([f >> 16 * i & 0xFFFF for i in range(6)], _WIDTH))
    for shape, f in {
        0x22422422544844866b: 0x10018009a018c01b800b0, 0x224224447447448448: 0x100140078012c014a0084,
        0x22422522544744966a: 0x1001700920176019f00a6, 0x22422544847e6a06a1: 0x1001a00ac01c001f400c8,
        0x22422622622644988d: 0x1001d00c7020e024e00ec, 0x22422644947e47e8c3: 0x1001e00d1022c027100fa,
        0x22444744947d47d6a0: 0x10018009c019401c200b4, 0x22444844844944966c: 0x1001d00c6020a024900ea,
        0x22444847e6a26d66d6: 0x1001e00d00228026c00f8, 0x22444947f47f6d68f9: 0x1002000e3026002ad0112,
        0x22444970c70c70c92f: 0x1002100ed027e02d00120, 0x22522522522566b66b: 0x1001b00b601de021700d6,
        0x2252252256a16a16a1: 0x1001c00bd01f0022b00de, 0x22522544944966c66c: 0x1002000e00254029e010c,
        0x22522544a44a66b66b: 0x1001f00d60236027b00fe, 0x22522547d47d66b6a1: 0x1001c00c10200023f00e6,
        0x2252256a16a16d76d7: 0x1002000e00254029e010c, 0x22522622647f6a18c3: 0x1001f00da0246028f0106,
        0x22522647f6a26d78f9: 0x1002200f4029002e40128, 0x22544844844944966b: 0x1002000e1025802a3010e,
        0x2254494496a16a26a2: 0x1002300fd02aa03020134, 0x22544a44a66d66d66d: 0x10027011f030a03700160,
        0x22544a47e66c6a16a2: 0x10024010602c403200140, 0x22547e47e47f6a18f9: 0x1002000e6026c02bc0118,
        0x22547f6a26d76d892f: 0x10026011a03000366015c, 0x2254804806a392f92f: 0x10028012b0330039d0172,
        0x22566d6a36a36d76d7: 0x10028012b0330039d0172, 0x2256a370d70d965965: 0x100290137035603ca0184,
        0x22622644844a44a88e: 0x1002300fe02ae03070136, 0x22622647e6d76d78c4: 0x10024010902d0032f0146,
        0x2262264804808f98f9: 0x1002300fe02ae03070136, 0x22622670d70d92f92f: 0x10024010802cc032a0144,
        0x22644944a47f6a28c4: 0x10026011a03000366015c, 0x22644a6a36a36d88fa: 0x100290136035203c50182,
        0x22644b44b44b66c88f: 0x100290133034603b6017c, 0x22644b6a26d86d88c5: 0x1002a013f036c03e3018e,
        0x22647f4806d88fa92f: 0x10028012e033c03ac0178, 0x22648070e930965965: 0x1002a0142037803f20194,
        0x2266d86d96d98fb965: 0x1002c015303a8042901aa, 0x22670e93199b99b99b: 0x1002d015f03ce045601bc,
        0x227227227227227aaf: 0x10024010902d0032f0146, 0x22722722747f47fae5: 0x10025011402f203570156,
        0x2272274804806d7b1b: 0x100270127032a03980170, 0x22722770d70d70db51: 0x100280132034c03c00180,
        0x22747f47f47f47fb1b: 0x100260120031803840168, 0x2274804806d86d8b51: 0x1002a0143037c03f70196,
        0x22748148148192fb51: 0x1002b014b0392041001a0, 0x22748170e70e965b87: 0x1002c015703b8043d01b2,
        0x2276d96d96d96d9b87: 0x1002d015f03ce045601bc, 0x22770f70f99b99bbbd: 0x1002e016b03f4048301ce,
        0x2279d19d19d19d1bf3: 0x1002f0177041a04b001e0, 0x448448448448448448: 0x1001e00d20230027600fc,
        0x44844944947e6a16a1: 0x10024010902d0032f0146, 0x44844a44a47e47e8c4: 0x10024010b02d80339014a,
        0x44944944944966d66d: 0x100270123031a03840168, 0x44944944a44a66c66c: 0x100290133034603b6017c,
        0x4494496a26a26d76d7: 0x1002a0140037003e80190, 0x44944a47f6a36d78fa: 0x1002a0142037803f20194,
        0x44a44a4804808fa8fa: 0x1002c015403ac042e01ac, 0x44a44a66d6a26a26a3: 0x1002d015b03be044201b4,
        0x44a44a66e66e66e66e: 0x1002f016d03f2047e01cc, 0x44a44a70d70d930930: 0x1002d016103d6046001c0,
        0x44a47f47f6a26a28fa: 0x1002a0143037c03f70196, 0x44a4806a46a4930930: 0x10030017b042004b501e2,
        0x44a6a36a36d86d8930: 0x10030017a041c04b001e0, 0x44b44b47f66d6a38c5: 0x1002e016503dc046501c2,
        0x44b4806a36d98fb930: 0x10030017c042404ba01e4, 0x44b66e6a46a46d88fb: 0x10032018d045404f101fa,
        0x44b6a470e931966966: 0x10033019b048205280210, 0x44c44c44c44c890890: 0x100320189044404dd01f2,
        0x44c44c6d96d98c68c6: 0x100330197047205140208, 0x44c6da6da8fc8fc966: 0x1003501ae04ba0569022a,
        0x44c93293299c99c99c: 0x1003601bc04e805a00240, 0x47d47d47d47d6a16a1: 0x1001d00cd0226026c00f8,
        0x47e47e47e6d76d78fa: 0x10025011702fe0366015c, 0x47e47e6a26a26a26a2: 0x100290139035e03d40188,
        0x47f47f4804806d7b51: 0x100280135035803cf0186, 0x47f47f6d86d8930930: 0x1002d016103d6046001c0,
        0x47f47f70d70d70db87: 0x100290141037e03fc0198, 0x47f6a36a36d86d88fb: 0x1002f0173040a049c01d8,
        0x480480480930930930: 0x1002e016b03f4048301ce, 0x4804806d86d86d9b87: 0x1002e016c03f8048801d0,
        0x480480966966966966: 0x100310189044e04ec01f8, 0x4804814816d9930b87: 0x10030017d042804bf01e6,
        0x4806d96d9931931966: 0x10033019b048205280210, 0x4806d970e70e966bbd: 0x10031018b045604f601fc,
        0x48148170f966966bbd: 0x100320194047005140208, 0x4816d96da6da931bbd: 0x1003401a504a0054b021e,
        0x48170f96799c99cbf3: 0x1003501b304ce05820234, 0x482482482482b87b87: 0x10033019804760519020a,
        0x48248270f70fbbdbbd: 0x1003401a604a405500220, 0x48271071099cbf3bf3: 0x1003601bd04ec05a50242,
        0x4829d29d29d2c29c29: 0x1003701cb051a05dc0258, 0x66f66f66f66f66f66f: 0x1003601b004b805640228,
        0x66f6a56a56a5931931: 0x1003701bf04ea05a00240, 0x6a36a36a36a36a36a3: 0x10032018c045004ec01f8,
        0x6a46a46d96d9931931: 0x1003501ad04b605640228, 0x6a56a5967967967967: 0x1003801ce051c05dc0258,
        0x6d96d96d96d96d9bbd: 0x1003401a4049c0546021c, 0x6d96d96d96d98fc8fc: 0x1003401a604a405500220,
        0x6da6da70f967967bf3: 0x1003701c5050205be024c, 0x6da6da932932967967: 0x1003801ce051c05dc0258,
        0x6db6db6db932932bf3: 0x1003901d7053605fa0264, 0x6db96896899d99dc29: 0x1003a01e605680636027c,
        0x70f70f70f70fbf3bf3: 0x1003501b504d6058c0238, 0x71071099d99dc29c29: 0x1003901dd054e06180270,
        0x711711711c29c29c29: 0x1003a01e605680636027c, 0x7119d39d3c5fc5fc5f: 0x1003b01f5059a06720294,
        0x968968968968968968: 0x1003b01ef058206540288, 0x99e99e99e99ec5fc5f: 0x1003c01fe05b4069002a0,
        0x9d49d4c95c95c95c95: 0x1003d020d05e606cc02b8, 0xccbccbccbccbccbccb: 0x1003e021c0618070802d0,
    }.items()
)


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
    all have at most six nodes is read from ``_SMALL`` whole and never
    builds them.
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
        """Packed F of a connected twin-canonical mask: memo, table, shared cache, formula."""
        f = self.memo.get(mask)
        if f is not None:
            return f
        if not mask & (mask - 1):
            return 1
        n = mask.bit_count()
        if n <= 5:
            f = _SMALL[_shape(self.adj, mask)]
        elif n == 6:
            f = _SMALL[_six_shape(self.adj, mask)]
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

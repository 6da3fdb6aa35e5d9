"""Seeded op streams for the three workloads.

An op is one CLI invocation, given to the library as an argv list only.
Every workload is built from rounds of fixed composition: the seed decides
the inputs inside each slot of a round and the order of the ops, the round
decides how much of each kind of work a run holds.  That keeps a run's
totals, median and tail comparable across seeds while the inputs differ.
The number of rounds follows ``--seconds`` through each workload's round
cost on the reference host (2 cores, CPython 3.11) and the number of passes
a run makes over its ops, so a faster program runs the same ops in less
time instead of more ops.

Each round is laid out so that the run's median and tail fall inside a
group of ops of nearly equal cost, never on the edge between two groups,
where a small change in the mix would move them a lot.

Each op also names the reference it is checked against (see check.py):
the argv itself, or, for a relabelled catalogue graph, the catalogue class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FAMILIES = ("pe", "st", "starmarked", "nabla-because", "because-because")
# An untraced run makes this many passes over its ops; see run.py.
PASSES = 4
FORMATS = ("json", "csv")
TWO_VARIABLE = ("nabla-because", "because-because")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    ref: str  # key into the reference digests

    @property
    def line(self) -> str:
        return " ".join(self.argv)


def _cli_op(*argv: str) -> Op:
    return Op(tuple(argv), " ".join(argv))


# ---------------------------------------------------------------------------
# single-graph

# Random graphs stay at 7 and 8 nodes: 9-node ones take 3-4 s each.  The
# named shapes sit at known places in the cost order: path:12 and
# bipartite:4,4 among the cheap 7-node graphs, complete:9 right above them,
# where the median falls, join(complete:4,empty:5) among the 8-node graphs,
# and the three costliest, join(star:3,empty:5), join(star:4,empty:4) and
# star:9, at the top, where the tail falls on star:9 (or, for a few
# labellings, on an 8-node class of nearly the same cost).
NAMED_SHAPES = (
    "path:12",
    "bipartite:4,4",
    "complete:9",
    "join(complete:4,empty:5)",
    "star:9",
    "join(star:3,empty:5)",
    "join(star:4,empty:4)",
)


def is_connected(n: int, edges) -> bool:
    reach, frontier = {0}, [0]
    while frontier:
        u = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reach:
                    reach.add(y)
                    frontier.append(y)
    return len(reach) == n


def _random_connected_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of a connected G(n, p) graph, p drawn per graph."""
    p = rng.uniform(0.2, 0.85)
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if is_connected(n, edges):
            return edges


def _catalogue() -> list[tuple[int, list[tuple[int, int]]]]:
    """Fixed random graph classes: 4 on 8 nodes and 6 on 7 nodes.

    The classes are fixed so that the spread between seeds measures the
    program rather than the luck of the draw (one class costs 0.05 s,
    another 1.1 s); each run relabels every class with its own seed, which
    changes the memo keys and so how much of the recursion the memo shares.
    """
    rng = random.Random("nestohedra-bench-catalogue")
    return [(8, _random_connected_edges(rng, 8)) for _ in range(4)] + [
        (7, _random_connected_edges(rng, 7)) for _ in range(6)
    ]


CATALOGUE = _catalogue()


def edges_spec(n: int, edges) -> str:
    body = ",".join(f"{u}-{v}" for u, v in sorted(edges))
    return f"edges:{n}:{body}"


def _single_graph_round(rng: random.Random) -> list[Op]:
    ops = []
    for index, (n, edges) in enumerate(CATALOGUE):
        perm = list(range(n))
        rng.shuffle(perm)
        relabelled = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
        ops.append(Op(("invariants", "--graph", edges_spec(n, relabelled)), f"class:{index}"))
    ops += [_cli_op("invariants", "--graph", spec) for spec in NAMED_SHAPES]
    return ops


# ---------------------------------------------------------------------------
# sweep


def _sweep_round(rng: random.Random) -> list[Op]:
    # Five verify ops cheaper than a 5-node scan (0.25 s), four 5-node scans
    # where the median and the tail fall, and two ops above 1 s.
    ops = []
    for nodes in (5, 5, 5, 5, 6):
        ops.append(
            _cli_op(
                "gal-scan", "--graph-class", "connected", "--nodes", str(nodes),
                "--format", rng.choice(FORMATS),
            )
        )
    ops.append(_cli_op("verify", "--family", "all", "--max-order", "8", "--format", rng.choice(FORMATS)))
    for family in FAMILIES:
        top = 6 if family in TWO_VARIABLE else 8  # 0.1-0.2 s at 6, 0.6 s at 8
        ops.append(
            _cli_op(
                "verify", "--family", family, "--max-order", str(rng.randint(1, top)),
                "--format", rng.choice(FORMATS),
            )
        )
    return ops


# ---------------------------------------------------------------------------
# series-check


def _series_check_round(rng: random.Random) -> list[Op]:
    # Four family scans below 0.25 s, then the identity suite at orders 6,
    # 6, 7, 7, 8, 8 and 8 (0.15-1 s): the median falls on the order-6 runs
    # and the tail on the order-8 ones.  Orders 9 and 10 (1.5-2.6 s) are
    # left out: a single op that long would take half the run and leave too
    # few runs of the median and tail ops to average out host noise.
    ops = [
        _cli_op("identities", "--order", str(order), "--format", rng.choice(FORMATS))
        for order in (6, 6, 7, 7, 8, 8, 8)
    ]
    for _ in range(4):
        family = rng.choice(FAMILIES)
        top = 6 if family in TWO_VARIABLE else 8  # 0.06 s at 6, 0.2 s at 8
        ops.append(
            _cli_op(
                "gal-scan", "--family", family, "--bound", str(rng.randint(1, top)),
                "--format", rng.choice(FORMATS),
            )
        )
    return ops


# workload -> (round builder, seconds one round takes on the reference host)
WORKLOADS = {
    "single-graph": (_single_graph_round, 4.6),
    "sweep": (_sweep_round, 3.7),
    "series-check": (_series_check_round, 4.0),
}


def generate(workload: str, seed: int, seconds: float) -> list[Op]:
    """The op list of one run: whole rounds, shuffled, all from the seed."""
    build, round_seconds = WORKLOADS[workload]
    rounds = max(1, round(seconds / (PASSES * round_seconds)))
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    for _ in range(rounds):
        ops += build(rng)
    rng.shuffle(ops)
    return ops


def reference_space() -> list[Op]:
    """Every op whose full stdout digest is stored, besides the default seed's."""
    ops = [_cli_op("invariants", "--graph", spec) for spec in NAMED_SHAPES]
    for fmt in FORMATS:
        for nodes in (5, 6):
            ops.append(_cli_op("gal-scan", "--graph-class", "connected", "--nodes", str(nodes), "--format", fmt))
        ops.append(_cli_op("verify", "--family", "all", "--max-order", "8", "--format", fmt))
        for family in FAMILIES:
            for order in range(1, 9):
                ops.append(_cli_op("verify", "--family", family, "--max-order", str(order), "--format", fmt))
                ops.append(_cli_op("gal-scan", "--family", family, "--bound", str(order), "--format", fmt))
        for order in range(6, 11):
            ops.append(_cli_op("identities", "--order", str(order), "--format", fmt))
    return ops

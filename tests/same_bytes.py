"""Record the command line's bytes in tests/golden.json.

    python3 tests/same_bytes.py --write SRC

SRC is a directory that holds the ``nestohedra`` package (a tree's
``src``).  A fixed set of argvs runs in both output formats through
``python -m nestohedra.cli``, with ``COLUMNS=80``, and the script rewrites
``tests/golden.json``: per run, its argv, exit code and the SHA-256
digests of its stdout and stderr.  Any other argv prints the usage line
and exits 2.  That file is the one store of recorded bytes, and
``tests/test_golden.py`` its one reader among the tests, which checks it
against the same runs in process, each through ``in_process``, on every
test run; a change whose output should not move leaves the file as it
is.  Each script beside it writes its stdout through ``emit``, which
ends as the command line does when stdout closes early.  Standard
library only; pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

CORRUPTIBLE = ("pe", "st", "nabla-because", "because-because")
FAMILIES = ("pe", "st", "starmarked", "nabla-because", "because-because")
# the named shapes of the benchmark's single-graph workload, larger graphs,
# zero-dimensional, disconnected and 6-dimensional Gal checks, twin-free
# graphs on 7 and 8 nodes, twin classes with interleaved labels ({0, 3, 6}
# and {2, 5, 7} cliques, {1, 4} independent), a spec that does not parse
# and one over the 20-node limit (both exit 2), then the spec parser's
# boundaries: spaces around sizes and arguments, the node cap with a
# star's centre and a first part counted, a short cycle, an out-of-range
# label, a one-argument join and a join nested 33 deep; last the two pairs
# of 5-node classes that share degrees (a triangle with a two-edge tail and
# a 4-cycle with a pendant, the house and K_{2,3}), a 7-node graph that
# holds all four as induced subgraphs, and the four pairs of 6-node classes
# that share every node's degree and triangle count; then graphs whose
# seven-node subproblems are masks inside larger graphs: seeded twin-free
# graphs on 12 and 10 nodes (edge probability 1/2) and a twin-rich join;
# then path:20, the longest path a spec may name (path:21 crosses the
# 20-node limit), beside cycle:20 and bipartite:10,10 at that limit; last
# a nested join that parses and one spec per refusal the parser prints
# that no graph above reaches: a bad size, an early close parenthesis, a
# join over the node cap, a bipartite spec with one size, a three-ended
# edge and a self-loop
GRAPHS = (
    "path:12",
    "bipartite:4,4",
    "complete:9",
    "join(complete:4,empty:5)",
    "star:9",
    "join(star:3,empty:5)",
    "join(star:4,empty:4)",
    "bipartite:10,10",
    "complete:13",
    "star:12",
    "cycle:20",
    "empty:3",
    "edges:5:0-1,2-3",
    "join(path:3,cycle:4)",
    "edges:7:0-1,0-4,0-5,0-6,1-4,1-5,2-3,2-5,2-6,3-5,4-6,5-6",
    "edges:8:0-1,0-2,0-3,0-4,1-2,2-4,2-7,3-6,4-5,5-7",
    "edges:8:0-1,0-3,0-4,0-6,1-2,1-3,1-5,1-6,1-7,2-4,2-5,2-7,3-4,3-6,4-5,4-6,4-7,5-7",
    "bogus:3",
    "path:21",
    "join( complete:2 , empty:1 )",
    "edges:4: 0 - 1 , 2-3",
    "star:20",
    "bipartite:10,11",
    "cycle:2",
    "edges:3:0-5",
    "join(complete:2)",
    "join(empty:0," * 33 + "empty:0" + ")" * 33,
    "edges:5:0-4,1-2,1-3,2-3,3-4",
    "edges:5:0-1,1-3,1-4,2-3,2-4",
    "edges:5:0-1,0-3,0-4,1-2,2-3,3-4",
    "bipartite:2,3",
    "edges:7:0-4,1-2,1-4,1-6,2-5,3-5,3-6,4-5,5-6",
    "edges:6:0-1,1-2,1-3,2-4,3-5",
    "edges:6:0-4,0-5,1-3,2-3,3-4",
    "edges:6:0-2,0-3,0-4,1-2,1-3,3-5",
    "edges:6:0-2,1-3,2-4,2-5,3-4,3-5",
    "edges:6:0-4,0-5,1-3,1-4,2-3,2-4",
    "edges:6:0-1,0-4,1-2,1-5,2-3,3-4",
    "edges:6:0-1,0-3,0-5,1-2,2-3,3-4,4-5",
    "edges:6:0-1,0-4,0-5,1-2,2-3,3-4,3-5",
    "edges:12:0-1,0-4,0-5,0-6,0-9,0-10,1-2,1-4,1-5,1-7,1-10,1-11,2-5,2-6,2-7,2-8,2-9,"
    "2-10,2-11,3-4,3-5,3-6,3-7,3-8,3-9,4-6,4-9,4-10,5-8,5-11,7-8,7-9,7-11,8-9,9-11,10-11",
    "edges:10:0-1,0-4,0-5,0-6,0-9,1-2,1-4,1-6,1-7,1-9,2-5,2-6,2-9,3-4,3-5,3-6,3-7,3-8,3-9,"
    "4-5,4-6,4-7,4-8,4-9,5-6,6-7,7-8,7-9",
    "join(star:3,empty:4)",
    "path:20",
    "join(join(complete:2,empty:1),star:2)",
    "complete:x",
    "join(complete:2),empty:1)",
    "join(complete:10,complete:11)",
    "bipartite:3",
    "edges:3:0-1-2",
    "edges:3:1-1",
)

# argvs that only the argparse parser reads: an unknown flag, a flag with no
# value, a --flag=value pair, and help at the top level and per command
USAGE = [
    ["invariants", "--graph", "path:3", "--bogus", "1"],
    ["identities", "--order"],
    ["identities", "--order=3"],
    ["--help"],
    *([command, "--help"] for command in ("invariants", "verify", "identities", "gal-scan")),
]

# values outside what a flag accepts: orders just past their ranges in the
# option table (argparse's usage error), and node counts outside the atlas,
# which the library refuses; then each flag combination gal-scan refuses:
# neither or both of --family and --graph-class, --nodes with a family,
# --bound with a class, and a class with no --nodes
REFUSALS = [
    ["identities", "--order", "1"],
    ["identities", "--order", "17"],
    ["identities", "--order", "-1"],
    ["verify", "--max-order", "17"],
    ["gal-scan", "--family", "pe", "--bound", "0"],
    ["gal-scan", "--family", "pe", "--bound", "17"],
    ["gal-scan", "--graph-class", "connected", "--nodes", "0"],
    ["gal-scan", "--graph-class", "connected", "--nodes", "8"],
    ["gal-scan"],
    ["gal-scan", "--family", "pe", "--graph-class", "connected"],
    ["gal-scan", "--family", "pe", "--nodes", "3"],
    ["gal-scan", "--graph-class", "connected", "--bound", "3"],
    ["gal-scan", "--graph-class", "connected"],
]


def argvs() -> list[list[str]]:
    """The recorded argv set, without the format flag."""
    out = [["identities", "--order", str(n)] for n in range(2, 17)]
    out += [
        ["identities", "--order", str(n), "--corrupt", fam]
        for n in (2, 3, 4, 5, 6, 7, 8, 12, 16)
        for fam in CORRUPTIBLE
    ]
    out += [["verify", "--family", "all", "--max-order", str(n)] for n in (0, 4, 8, 12, 16)]
    out += [
        ["verify", "--family", fam, "--max-order", str(n)] for fam in FAMILIES for n in (1, 2, 3, 8, 16)
    ]
    out += [["gal-scan", "--family", "all", "--bound", str(n)] for n in (1, 4, 8, 12, 16)]
    out += [
        ["gal-scan", "--family", fam, "--bound", str(n)] for fam in FAMILIES for n in (1, 2, 3, 8, 16)
    ]
    out += [["gal-scan", "--graph-class", "connected", "--nodes", str(n)] for n in range(1, 8)]
    out += [["invariants", "--graph", spec] for spec in GRAPHS]
    out += USAGE + REFUSALS
    return out


def runs() -> list[list[str]]:
    """The recorded argv set, each argv in both formats."""
    return [[*argv, "--format", fmt] for argv in argvs() for fmt in ("json", "csv")]


def run(src: str, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), COLUMNS="80")
    done = subprocess.run([sys.executable, "-m", "nestohedra.cli", *argv], capture_output=True, env=env)
    return done.returncode, done.stdout, done.stderr


def clear_series_caches() -> None:
    """Empty every lru_cache of the series module, as a fresh process finds them."""
    from nestohedra import series

    for value in vars(series).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def in_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``cli.main(argv)`` with cold series caches.

    The package is imported here, not at the top, so that a caller can
    install its hooks before the package loads.
    """
    from nestohedra import cli

    clear_series_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def digests(argv: list[str], code: int, out: bytes, err: bytes) -> dict:
    """One record of tests/golden.json."""
    out, err = hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest()
    return {"argv": argv, "exit": code, "stdout": out, "stderr": err}


def emit(text: str) -> None:
    """Write text and a newline to stdout, or end as ``cli.main`` does on a failed write.

    Each line is flushed, so a closed stdout fails here: one ``error:``
    line goes to stderr and the script exits 2.  stdout is first pointed
    at ``os.devnull``, so that the interpreter's flush at exit, which
    still holds the unwritten text, prints no traceback either.
    """
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


def write(src: str) -> int:
    records = [digests(argv, *run(src, argv)) for argv in runs()]
    with open(GOLDEN, "w", encoding="utf-8") as f:
        f.write("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    emit(f"wrote {len(records)} runs to {os.path.relpath(GOLDEN)}")
    return 0


def main(args: list[str]) -> int:
    if len(args) == 2 and args[0] == "--write":
        return write(args[1])
    print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Compare the command line's bytes between two source trees.

    python3 tests/same_bytes.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the ``nestohedra`` package (a tree's
``src``).  A fixed set of argvs runs on both trees, in both output formats,
through ``python -m nestohedra.cli``; the first argv whose stdout, stderr or
exit code differs is printed, and the script exits 1.  With no difference
it prints the number of runs compared and exits 0.  Standard library only;
pytest does not collect this file.
"""

from __future__ import annotations

import os
import subprocess
import sys

CORRUPTIBLE = ("pe", "st", "nabla-because", "because-because")
FAMILIES = ("pe", "st", "starmarked", "nabla-because", "because-because")
# the named shapes of the benchmark's single-graph workload, larger graphs,
# zero-dimensional, disconnected and 6-dimensional Gal checks, twin-free
# graphs on 7 and 8 nodes, twin classes with interleaved labels ({0, 3, 6}
# and {2, 5, 7} cliques, {1, 4} independent), a spec that does not parse
# and one over the 20-node limit (both exit 2), then the spec parser's
# boundaries: spaces around sizes and arguments, the node cap with a
# star's centre and a first part counted, a short cycle, an out-of-range
# label, a one-argument join and a join nested 33 deep
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
)


def argvs() -> list[list[str]]:
    """The recorded argv set, without the format flag."""
    out = [["identities", "--order", str(n)] for n in range(2, 17)]
    out += [
        ["identities", "--order", str(n), "--corrupt", fam]
        for n in (2, 3, 5, 8, 12, 16)
        for fam in CORRUPTIBLE
    ]
    out += [["verify", "--family", "all", "--max-order", str(n)] for n in (0, 4, 8, 12, 16)]
    out += [["gal-scan", "--family", "all", "--bound", str(n)] for n in (1, 4, 8, 12, 16)]
    out += [
        ["gal-scan", "--family", fam, "--bound", str(n)] for fam in FAMILIES for n in (1, 2, 3, 8, 16)
    ]
    out += [["gal-scan", "--graph-class", "connected", "--nodes", str(n)] for n in range(1, 8)]
    out += [["invariants", "--graph", spec] for spec in GRAPHS]
    return out


def run(src: str, argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-m", "nestohedra.cli", *argv], capture_output=True, text=True, env=env
    )
    return done.returncode, done.stdout, done.stderr


def main(args: list[str]) -> int:
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = args
    runs = 0
    for argv in argvs():
        for fmt in ("json", "csv"):
            full = [*argv, "--format", fmt]
            before, after = run(parent, full), run(change, full)
            runs += 1
            if before != after:
                fields = [n for n, a, b in zip(("exit code", "stdout", "stderr"), before, after) if a != b]
                print(f"differs in {', '.join(fields)}: {' '.join(full)}")
                return 1
    print(f"same bytes on {runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Time the command line on inputs larger than any benchmark op, in two trees.

    python3 tests/reach.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the ``nestohedra`` package (a tree's
``src``).  Both trees are byte-compiled first, as the benchmark does.
Each run is a fresh interpreter that imports ``nestohedra.cli`` from one
tree and times ``cli.main(argv)`` around the call, as ``bench/worker.py``
does, so the ``series`` caches start empty and interpreter start and
import are left out of the op time; the import is timed on its own.  The
runs alternate between the trees, parent first in odd rounds and change
first in even ones, RUNS rounds per op.  Where an argv is recorded in
``tests/golden.json``, every run's exit code and stdout digest must equal
the recorded ones, so no timing comes from wrong bytes; any other failed
op stops the script with exit 1.  It prints one JSON object: per op, its
argv, and per tree the median and interquartile range of the op times in
seconds, plus the rounds where the change was faster; and under
``import``, the same for the time ``import nestohedra.cli`` took in every
run of every op.  Standard library only; pytest does not collect this
file.
"""

from __future__ import annotations

import compileall
import json
import os
import random
import statistics
import subprocess
import sys

from same_bytes import GOLDEN, emit

RUNS = 10

WORKER = """
import contextlib, hashlib, io, json, os, sys, time
src, argv = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
start = time.perf_counter()
import nestohedra.cli
import_s = time.perf_counter() - start
if not os.path.abspath(nestohedra.cli.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"imported nestohedra from {nestohedra.cli.__file__}, not from {src}")
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    start = time.perf_counter()
    code = nestohedra.cli.main(argv)
    op_s = time.perf_counter() - start
digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
print(json.dumps({"op_s": op_s, "import_s": import_s, "exit": code, "stdout": digest}))
"""


def twin_free_spec(n: int, seed: int) -> str:
    """An ``edges:`` spec of a connected twin-free graph on n nodes, edge probability 1/2.

    Draws from ``random.Random(seed)`` until no two nodes u, v have
    N(u) - {v} == N(v) - {u}, so no node class merges and the recursion
    walks every subset.
    """
    rng = random.Random(seed)
    while True:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        nbrs = [set() for _ in range(n)]
        for i, j in pairs:
            nbrs[i].add(j)
            nbrs[j].add(i)
        reach, todo = {0}, [0]
        while todo:
            for v in nbrs[todo.pop()] - reach:
                reach.add(v)
                todo.append(v)
        twins = any(nbrs[u] - {v} == nbrs[v] - {u} for u in range(n) for v in range(u))
        if len(reach) == n and not twins:
            return f"edges:{n}:" + ",".join(f"{i}-{j}" for i, j in pairs)


# the 12-node graph is the one tests/same_bytes.py records
TWIN_FREE_12 = (
    "edges:12:0-1,0-4,0-5,0-6,0-9,0-10,1-2,1-4,1-5,1-7,1-10,1-11,2-5,2-6,2-7,2-8,2-9,"
    "2-10,2-11,3-4,3-5,3-6,3-7,3-8,3-9,4-6,4-9,4-10,5-8,5-11,7-8,7-9,7-11,8-9,9-11,10-11"
)

OPS = [
    ["invariants", "--graph", "bipartite:10,10"],
    ["invariants", "--graph", "cycle:20"],
    ["invariants", "--graph", TWIN_FREE_12],
    ["invariants", "--graph", twin_free_spec(14, 14)],
    ["gal-scan", "--graph-class", "connected", "--nodes", "7"],
    ["identities", "--order", "16"],
    ["verify", "--family", "all", "--max-order", "16"],
    ["gal-scan", "--family", "all", "--bound", "16"],
]


def run(src: str, argv: list[str]) -> dict:
    env = dict(os.environ, COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-c", WORKER, os.path.abspath(src), json.dumps(argv)],
        capture_output=True,
        text=True,
        env=env,
    )
    if done.returncode:
        sys.exit(f"{src}: {' '.join(argv)} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def spread(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_s": median, "iqr_s": q3 - q1}


def compared(times: dict[str, list[float]]) -> dict:
    """Each tree's spread of paired times, and the rounds where the change was faster."""
    return {
        "parent": spread(times["parent"]),
        "change": spread(times["change"]),
        "rounds_change_faster": sum(map(float.__lt__, times["change"], times["parent"])),
    }


def main(args: list[str]) -> int:
    if len(args) != 2 or args[0].startswith("-"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    trees = dict(zip(("parent", "change"), args))
    with open(GOLDEN, encoding="utf-8") as f:
        golden = {tuple(r["argv"]): r for r in json.load(f)}
    for src in args:
        compileall.compile_dir(os.path.join(src, "nestohedra"), quiet=1)
    report = []
    imports: dict[str, list[float]] = {"parent": [], "change": []}
    for op in OPS:
        argv = [*op, "--format", "json"]
        recorded = golden.get(tuple(argv))
        times: dict[str, list[float]] = {"parent": [], "change": []}
        for round_ in range(RUNS):
            for side in ("parent", "change") if round_ % 2 == 0 else ("change", "parent"):
                result = run(trees[side], argv)
                if result["exit"] != (recorded["exit"] if recorded else 0) or (
                    recorded and result["stdout"] != recorded["stdout"]
                ):
                    print(f"{side} gives other bytes on {' '.join(argv)}", file=sys.stderr)
                    return 1
                times[side].append(result["op_s"])
                imports[side].append(result["import_s"])
        report.append(
            {"argv": argv, "digest_checked": recorded is not None, "runs": RUNS, **compared(times)}
        )
        print(f"{' '.join(op)[:60]}: done", file=sys.stderr)
    imported = {"runs": len(imports["parent"]), **compared(imports)}
    emit(json.dumps({"ops": report, "import": imported}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

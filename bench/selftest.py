"""Self-checks of the benchmark itself.

Usage, from the repository root: python3 bench/selftest.py   (about 2 minutes)

1. The checker fails a one-byte-altered stdout and a real negative-control
   run (``identities --order 6 --corrupt pe``, exit 1), and both count
   toward fail_ratio.
2. After ``spans.install()`` no ``nestohedra`` module still holds an
   unwrapped public function under any name.
3. Two traced runs of each workload with the same seed give identical count
   metrics, every per-layer metric a workload should move is nonzero on it,
   and the bypass counts are exactly zero.
4. Generation is seeded: same seed, same ops; another seed, other
   single-graph ops; every random graph is connected with at most 8 nodes.
5. BENCHMARK.json lists the workloads and metrics run.py reports.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import run
from check import check_op, load_reference
from workloads import WORKLOADS, Op, generate, is_connected

SEED = 7
failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
    if not condition:
        failures.append(what)


def checker_negative_control(reference: dict) -> None:
    deadline = time.monotonic() + run.RUN_DEADLINE_S
    good = Op(("identities", "--order", "6", "--format", "json"), "identities --order 6 --format json")
    record = run.run_op(good, False, deadline, reference)
    expect(record["failure"] is None, "a real identities --order 6 run passes the checker")

    raw = subprocess.run(
        [sys.executable, str(run.WORKER), str(run.SRC), "0", json.dumps(list(good.argv))],
        capture_output=True, text=True, check=True,
    )
    stdout = json.loads(raw.stdout)["stdout"]
    flipped = stdout[:40] + ("0" if stdout[40] != "0" else "1") + stdout[41:]
    altered = dict(record, failure=check_op(good, 0, flipped, reference))
    expect(altered["failure"] is not None, "a one-byte-altered stdout fails the checker")

    corrupt = Op(("identities", "--order", "6", "--corrupt", "pe"), "identities --order 6 --corrupt pe")
    negative = run.run_op(corrupt, False, deadline, reference)
    expect(negative["exit"] == 1 and negative["failure"] is not None,
           "identities --order 6 --corrupt pe exits 1 and fails")

    counted = run.tally([record, altered, negative])
    expect(counted["failed"] == 2 and counted["fail_ratio"] == 2 / 3,
           f"both count toward fail_ratio: {counted['failed']}/{counted['attempted']}")


def traced_runs() -> None:
    for workload in WORKLOADS:
        # the smallest run of each workload: one round
        first = run.run_workload(workload, SEED, 1, trace=True)
        second = run.run_workload(workload, SEED, 1, trace=True)
        expect(first["failed"] == 0 and second["failed"] == 0, f"{workload}: traced runs pass the checker")
        diffs = [
            name for name in run.COUNT_METRICS
            if first["count_metrics"][name] != second["count_metrics"][name]
        ]
        expect(not diffs, f"{workload}: count metrics identical across two traced runs {diffs or ''}")
        problems = first["prediction_failures"]
        expect(not problems, f"{workload}: nonzero and bypass predictions hold {problems or ''}")
        expect(all(r["argv"] for r in first["ops"]), f"{workload}: the record holds every op's argv")


def wrappers_rebound() -> None:
    sys.path.insert(0, str(run.SRC))
    import spans

    spans.install()
    originals, unwrapped = set(), []
    for layer in spans.LAYERS:
        module = sys.modules[f"nestohedra.{layer}"]
        for public in module.__all__:
            obj = getattr(module, public)
            if isinstance(obj, type) or not callable(obj):
                continue
            if hasattr(obj, "span"):
                originals.add(id(obj.__wrapped__))
            else:
                unwrapped.append(f"{layer}.{public}")
    expect(not unwrapped, f"every public function is wrapped {unwrapped or ''}")
    leftovers = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name == "nestohedra" or name.startswith("nestohedra.")
        for attr, value in vars(module).items()
        if id(value) in originals
    ]
    expect(not leftovers,
           f"every module holds the wrapper, not the original {leftovers or ''}")


def benchmark_json_matches() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "BENCHMARK.json end_to_end matches run.END_TO_END",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        == [(name, unit, better) for name, unit, better, *_ in run.PER_LAYER],
        "BENCHMARK.json per_layer matches run.PER_LAYER",
    )
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")


def seeded_generation() -> None:
    for workload in WORKLOADS:
        expect(
            [op.argv for op in generate(workload, SEED, 20)] == [op.argv for op in generate(workload, SEED, 20)],
            f"{workload}: the same seed gives the same ops",
        )
    one = [op.argv for op in generate("single-graph", 1, 20)]
    two = [op.argv for op in generate("single-graph", 2, 20)]
    expect(one != two, "single-graph: two seeds give different op lists")
    bad = []
    for seed in range(5):
        for op in generate("single-graph", seed, 20):
            spec = op.argv[2]
            if not spec.startswith("edges:"):
                continue
            _, count, body = spec.split(":")
            n = int(count)
            edges = [tuple(map(int, item.split("-"))) for item in body.split(",") if item]
            if n > 8 or not is_connected(n, edges):
                bad.append(spec)
    expect(not bad, f"every random graph is connected with at most 8 nodes {bad[:3] or ''}")


def main() -> int:
    if not (run.SRC / "nestohedra" / "cli.py").is_file():
        print("error: run from a full checkout", file=sys.stderr)
        return 2
    run.warm_up()
    benchmark_json_matches()
    seeded_generation()
    checker_negative_control(load_reference())
    traced_runs()
    wrappers_rebound()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

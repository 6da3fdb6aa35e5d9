"""Benchmark of the nestohedra command line, one cold process per op.

Usage, from the repository root:

    python3 bench/run.py --workload single-graph|sweep|series-check|all
                         [--seed N] [--seconds S] [--trace 0|1]

Load model: a closed loop with one client.  Each op is one CLI invocation
(``nestohedra.cli.main(argv)``) with the default ``--jobs`` and no
``--iso-memo``, run in a fresh interpreter as a user's invocation is, so no
op reuses a memo or ``lru_cache`` an earlier op filled.  The next op starts
when the previous one has exited.  The op's time is taken inside the worker
around ``main(argv)``; interpreter start plus ``import nestohedra.cli`` is
set-up time.

With ``--trace 0`` the run makes PASSES passes over its ops and reports
the end-to-end metrics.  With ``--trace 1`` it runs every op twice, plain
and with layer spans (spans.py), and reports the per-layer metrics of
PER_LAYER plus ``trace_overhead``.
Every op's output is checked (check.py).  The last line of stdout is one
JSON object; a full record, with each op's argv so a run can be replayed,
goes to bench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0  # a run must exit within 180 s
WARMUP_ARGV = ["gal-scan", "--graph-class", "connected", "--nodes", "2"]

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SINGLE, SWEEP, SERIES = "single-graph", "sweep", "series-check"

# Per-layer metrics of the traced run: name, unit, better, the workloads it
# should be nonzero on and move, and the end-to-end metric it should move.
PER_LAYER = (
    ("buildingset.removal.calls", "count", "lower", (SINGLE,), "op_tail_ms, wall_s"),
    ("buildingset.removal.s", "s", "lower", (SINGLE,), "op_tail_ms, wall_s"),
    ("buildingset.restriction.calls", "count", "lower", (SINGLE,), "op_tail_ms, wall_s"),
    ("buildingset.restriction.s", "s", "lower", (SINGLE,), "op_tail_ms, wall_s"),
    ("buildingset.components.s", "s", "lower", (SINGLE,), "op_tail_ms, wall_s"),
    ("buildingset.building_set_from_graph.s", "s", "lower", (SINGLE,), "op_tail_ms, wall_s"),
    ("buildingset.canonical_key.calls", "count", "lower", (SWEEP,), "wall_s"),
    ("buildingset.canonical_key.s", "s", "lower", (SWEEP,), "wall_s"),
    ("buildingset.connected_graphs_upto_iso.s", "s", "lower", (SWEEP,), "op_p50_ms"),
    ("ringcalc.boundary.calls", "count", "lower", (SINGLE,), "wall_s"),
    ("ringcalc.boundary.terms", "count", "lower", (SINGLE,), "wall_s"),
    ("ringcalc.boundary.self_s", "s", "lower", (SINGLE,), "wall_s"),
    ("ringcalc.fpoly.self_s", "s", "lower", (SINGLE,), "wall_s"),
    ("ringcalc.integrate_t.s", "s", "lower", (SINGLE,), "wall_s"),
    ("ringcalc.depth_max", "count", "lower", (SINGLE,), "wall_s"),
    ("ringcalc.memo.lookups", "count", "lower", (SWEEP, SINGLE), "sweep wall_s, single-graph peak_rss_mb"),
    ("ringcalc.memo.hit_ratio", "ratio", "higher", (SWEEP, SINGLE), "sweep wall_s, single-graph peak_rss_mb"),
    ("ringcalc.memo.entries", "count", "lower", (SWEEP, SINGLE), "sweep wall_s, single-graph peak_rss_mb"),
    ("algebra.Poly2.mul.calls", "count", "lower", (SERIES, SINGLE), "wall_s"),
    ("algebra.Poly2.mul.term_pairs", "count", "lower", (SERIES, SINGLE), "wall_s"),
    ("algebra.Poly2.mul.s", "s", "lower", (SERIES, SINGLE), "wall_s"),
    ("algebra.Poly2.add.calls", "count", "lower", (SERIES, SINGLE), "wall_s"),
    ("algebra.Poly2.add.s", "s", "lower", (SERIES, SINGLE), "wall_s"),
    ("algebra.h_from_f.s", "s", "lower", (SWEEP, SERIES), "wall_s"),
    ("algebra.gamma_from_h.s", "s", "lower", (SWEEP, SERIES), "wall_s"),
    ("series.Series2.mul.calls", "count", "lower", (SERIES,), "wall_s"),
    ("series.Series2.mul.slot_pairs", "count", "lower", (SERIES,), "wall_s"),
    ("series.Series2.mul.self_s", "s", "lower", (SERIES,), "wall_s"),
    ("series.inv_series.s", "s", "lower", (SERIES,), "wall_s"),
    ("series.exp_series.s", "s", "lower", (SERIES,), "wall_s"),
    ("series.eta_linear.s", "s", "lower", (SERIES,), "wall_s"),
    ("series.subst_h_series.s", "s", "lower", (SERIES,), "wall_s"),
    ("series.identity_suite.self_s", "s", "lower", (SERIES,), "op_tail_ms"),
    ("series.first_mismatch.s", "s", "lower", (SERIES,), "op_tail_ms"),
    ("series.family_f.s", "s", "lower", (SERIES, SWEEP), "wall_s"),
    ("invariants.gal_check_poly.calls", "count", "lower", (SWEEP,), "wall_s"),
    ("invariants.gal_check_poly.self_s", "s", "lower", (SWEEP,), "wall_s"),
    ("invariants.hpoly.self_s", "s", "lower", (SWEEP,), "wall_s"),
    ("invariants.gal_check_series.self_s", "s", "lower", (SERIES,), "wall_s"),
    ("cli.main.self_s", "s", "lower", (SWEEP,), "op_p50_ms"),
    ("cli.stdout_bytes", "count", "lower", (SWEEP,), "op_p50_ms"),
    ("buildingset.errors", "count", "lower", (), ""),
    ("ringcalc.errors", "count", "lower", (), ""),
    ("algebra.errors", "count", "lower", (), ""),
    ("series.errors", "count", "lower", (), ""),
    ("invariants.errors", "count", "lower", (), ""),
    ("cli.errors", "count", "lower", (), ""),
    ("trace_overhead", "ratio", "lower", (SINGLE, SWEEP, SERIES), "none: traced / untraced wall_s"),
)

# Layers a workload must not reach at all, as exact zero counts.
BYPASS = {
    SERIES: (
        "buildingset.removal.calls",
        "ringcalc.boundary.calls",
        "ringcalc.boundary.terms",
        "ringcalc.memo.lookups",
        "ringcalc.memo.entries",
        "ringcalc.depth_max",
        "ringcalc.fpoly.calls",
        "ringcalc.integrate_t.calls",
    ),
    SINGLE: ("series.Series2.mul.calls",),
}

COUNT_METRICS = tuple(name for name, unit, *_ in PER_LAYER if unit == "count") + (
    "ringcalc.memo.hit_ratio",
    "ringcalc.fpoly.calls",
    "ringcalc.integrate_t.calls",
)

sys.path.insert(0, str(HERE))
from check import check_op, load_reference, sha256  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import PASSES, WORKLOADS, Op, generate  # noqa: E402


# ---------------------------------------------------------------------------
# running ops


def run_op(op: Op, trace: bool, deadline: float, reference: dict) -> dict:
    """Run one op in a fresh worker process and check its output."""
    record = {"argv": list(op.argv), "exit": None, "op_s": None, "setup_s": None,
              "maxrss_kb": None, "stdout_bytes": 0, "sha256": None, "failure": None,
              "trace": None}
    timeout = min(OP_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        record["failure"] = "not run: run deadline reached"
        return record
    command = [sys.executable, str(WORKER), str(SRC), "1" if trace else "0", json.dumps(list(op.argv))]
    start = time.monotonic()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            record["failure"] = f"timeout after {timeout:.0f} s"
            return record
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        record["failure"] = f"worker exited {proc.returncode}: {err.strip()[-300:]}"
        return record
    try:
        result = json.loads(out)
    except ValueError:
        record["failure"] = f"worker printed no result: {out[-300:]!r}"
        return record
    stdout = result["stdout"]
    record.update(
        exit=result["exit"],
        op_s=result["op_s"],
        setup_s=result["ready"] - start,
        maxrss_kb=result["maxrss_kb"],
        stdout_bytes=len(stdout.encode("utf-8")),
        sha256=sha256(stdout),
        trace=result["trace"],
    )
    record["failure"] = check_op(op, result["exit"], stdout, reference)
    if record["failure"] and result["stderr"]:
        record["failure"] += f" (stderr: {result['stderr'].strip()[-300:]})"
    return record


def warm_up() -> bool:
    """Byte-compile the library and run one cheap op untimed.

    Installed packages import from .pyc, and the first process after a
    checkout would otherwise also pay for cold disk reads; neither belongs
    in every op's set-up time.  Returns whether the checkout was cold.
    """
    cold = not (SRC / "nestohedra" / "__pycache__").is_dir()
    compileall.compile_dir(str(SRC / "nestohedra"), quiet=1)
    subprocess.run([sys.executable, str(WORKER), str(SRC), "0", json.dumps(WARMUP_ARGV)],
                   cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=OP_TIMEOUT_S, check=False)
    return cold


# ---------------------------------------------------------------------------
# metrics


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it: value, percentile, samples beyond."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def tally(records: list[dict]) -> dict:
    """Attempted and failed ops; an op fails on a nonzero exit, wrong output or a timeout."""
    failures = [f"{' '.join(r['argv'])}: {r['failure']}" for r in records if r["failure"]]
    return {
        "attempted": len(records),
        "failed": len(failures),
        "fail_ratio": len(failures) / len(records),
        "failures": failures,
    }


def end_to_end(passes: list[list[dict]]) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run.

    A shared host runs the same op up to twice as slow while its neighbours
    are busy, in bursts shorter than a second whose share drifts over
    minutes.  So each op's latency is its mean over the run's passes, which
    spread over the whole run: ``wall_s`` sums these, ``op_p50_ms`` is their
    median, and ``op_tail_ms`` the highest percentile with at least 10 op
    processes beyond it, each process counted at its op's mean.  Set-up is
    the median over every timed op process.
    """
    done = [r for records in passes for r in records if r["op_s"] is not None]
    if not done:
        return {}, {}
    per_op = [
        [r["op_s"] for r in samples if r["op_s"] is not None]
        for samples in zip(*passes)
    ]
    per_op = [samples for samples in per_op if samples]
    means = [statistics.fmean(samples) for samples in per_op]
    tail_value, tail_pct, beyond = tail([m for m, samples in zip(means, per_op) for _ in samples])
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "wall_s": sum(means),
        "op_p50_ms": 1000.0 * statistics.median(means),
        "op_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": max(r["maxrss_kb"] for r in done) / 1024.0,
    }
    info = {"op_tail_percentile": round(tail_pct, 1), "op_tail_ops_beyond": beyond,
            "op_count": len(means), "ops_timed": len(done)}
    return values, info


def layer_totals(records: list[dict]) -> tuple[dict, dict]:
    """Sum each span and counter over the traced ops of a run."""
    spans: dict[str, list] = {}
    counters: dict[str, float] = {}
    for r in records:
        if r["trace"] is None:
            continue
        for name, values in r["trace"]["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                acc[i] += v
        for name, value in r["trace"]["counters"].items():
            if name == "ringcalc.depth_max":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
    return spans, counters


def per_layer(spans: dict, counters: dict, traced: list[dict], plain: list[dict]) -> dict:
    zero = [0, 0.0, 0.0, 0]
    values: dict[str, float] = {}
    for name, *_ in PER_LAYER:
        if name in counters:
            values[name] = counters[name]
            continue
        span, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s"):
            values[name] = spans.get(span, zero)[("calls", "s", "self_s").index(field)]
    for span in ("ringcalc.fpoly", "ringcalc.integrate_t"):
        values[f"{span}.calls"] = spans.get(span, zero)[0]
    lookups, hits = spans.get("ringcalc.FPolyCache.lookup", zero)[0], counters.get("ringcalc.memo.hits", 0)
    values["ringcalc.memo.lookups"] = lookups
    values["ringcalc.memo.hit_ratio"] = hits / lookups if lookups else 0.0
    for layer in LAYERS:
        values[f"{layer}.errors"] = sum(v[3] for s, v in spans.items() if s.startswith(layer + "."))
    values["cli.stdout_bytes"] = sum(r["stdout_bytes"] for r in traced)
    plain_wall = sum(r["op_s"] for r in plain if r["op_s"] is not None)
    traced_wall = sum(r["op_s"] for r in traced if r["op_s"] is not None)
    values["trace_overhead"] = traced_wall / plain_wall if plain_wall else 0.0
    return values


def prediction_failures(workload: str, values: dict) -> list[str]:
    """Per-layer metrics that break the workload's nonzero and bypass predictions."""
    failures = [
        f"{name} is 0 on {workload}"
        for name, _, _, workloads, _ in PER_LAYER
        if workload in workloads and not values.get(name)
    ]
    failures += [
        f"{name} is {values.get(name)} on {workload}, expected exactly 0"
        for name in BYPASS.get(workload, ())
        if values.get(name) != 0
    ]
    return failures


# ---------------------------------------------------------------------------
# one run


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    host = host_facts()
    reference = load_reference()
    ops = generate(workload, seed, seconds)
    host["cold_checkout"] = warm_up()
    deadline = time.monotonic() + RUN_DEADLINE_S
    # A traced run makes one pass, each op plain and then traced, so both
    # runs of an op see the host in the same state.
    passes = [[] for _ in range(1 if trace else PASSES)]
    traced = []
    for records in passes:
        for op in ops:
            records.append(run_op(op, False, deadline, reference))
            if trace:
                traced.append(run_op(op, True, deadline, reference))
    host["loadavg_1min_at_end"] = os.getloadavg()[0]
    records = [r for pass_records in passes for r in pass_records] + traced
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host,
        **tally(records),
    }
    if trace:
        spans, counters = layer_totals(traced)
        values = per_layer(spans, counters, traced, passes[0])
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit, *_ in PER_LAYER}
        result["count_metrics"] = {name: values[name] for name in COUNT_METRICS}
        result["prediction_failures"] = prediction_failures(workload, values)
        # every span, [calls, inclusive s, self s, errors], summed over the ops
        result["spans"] = dict(sorted(spans.items()))
        result["counters"] = counters
    else:
        values, info = end_to_end(passes)
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END if name in values}
        result.update(info)
    result["ops"] = [{k: v for k, v in r.items() if k != "trace"} for r in records]
    return result


def report(result: dict) -> None:
    host = result["host"]
    print(
        f"{result['workload']} seed {result['seed']} trace {result['trace']}: "
        f"{result['attempted']} ops, {result['failed']} failed, "
        f"fail_ratio {result['fail_ratio']:.4f} ({result['failed']}/{result['attempted']})"
    )
    print(
        f"  host: CPython {host['python']}, nproc {host['nproc']}, git {host['git_sha']}, "
        f"load avg {host['loadavg_1min_at_start']:.2f} at start, "
        f"{host['loadavg_1min_at_end']:.2f} at end, cold checkout {host['cold_checkout']}"
    )
    for name, metric in result["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{result['op_tail_percentile']}, {result['op_tail_ops_beyond']} of "
                    f"{result['ops_timed']} op processes beyond; {result['op_count']} ops)")
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}{note}")
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}")
    for problem in result.get("prediction_failures", ()):
        print(f"  PREDICTION {problem}", file=sys.stderr)


def save(result: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its worker (see run_op)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "nestohedra" / "cli.py").is_file():
        print(f"error: no library source at {SRC / 'nestohedra'}; run from a full checkout",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        report(result)
        print(f"  record: {save(result).relative_to(ROOT)}")
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in results for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one CLI invocation cold, in this fresh interpreter, and report on it.

Usage: python3 worker.py SRC_DIR TRACE ARGV_JSON

Imports ``nestohedra.cli`` from SRC_DIR, stamps the monotonic clock (the
parent stamped it just before starting this process, so the difference is
interpreter start plus import), optionally installs the layer spans, then
times ``main(argv)`` with stdout and stderr captured.  Prints one JSON
object on the real stdout.
"""

import sys
import time

src_dir, trace_flag, argv_json = sys.argv[1:4]
sys.path.insert(0, src_dir)
import nestohedra.cli  # noqa: E402

ready = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    Not ``ru_maxrss``: Linux carries that across exec, so it would report
    the benchmark process this worker was forked from whenever that is the
    larger one.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if not os.path.abspath(nestohedra.cli.__file__).startswith(os.path.abspath(src_dir) + os.sep):
    sys.exit(f"imported nestohedra from {nestohedra.cli.__file__}, not from {src_dir}")

argv = json.loads(argv_json)
tracer = None
if trace_flag == "1":
    import spans  # from this script's directory, sys.path[1]

    tracer = spans.install()

out, err = io.StringIO(), io.StringIO()
sys.stdout, sys.stderr = out, err
start = time.perf_counter()
try:
    code = nestohedra.cli.main(argv)
except Exception:
    code = 1
    traceback.print_exc()
op_s = time.perf_counter() - start
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__

json.dump(
    {
        "ready": ready,
        "op_s": op_s,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "maxrss_kb": peak_rss_kb(),
        "trace": None if tracer is None else tracer.snapshot(),
    },
    sys.stdout,
)

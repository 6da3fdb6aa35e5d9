"""Run tier-1 against each mutant of a committed list, and record which tests kill it.

    python3 tests/mutants.py [--first] [NAME ...]

Each mutant in ``MUTANTS`` replaces one exact string, which occurs once in
its file, by another: an operator, an off-by-one, a dropped term, a
swapped binomial, a disabled guard, a contract constant or a table entry,
in every module of ``src/`` and in a few test witnesses.  The tree is
copied once to a temporary directory, without ``.git``, ``.hypothesis``,
caches or ``BENCH_*.json``.  The unmutated copy runs tier-1 first and
must pass; then each mutant is written into the copy, tier-1 runs there
in a child process, and the file is restored.  The child runs with
``-p no:cacheprovider``, a fixed ``--hypothesis-seed`` and the
``mutants`` hypothesis profile of ``tests/conftest.py`` (no example
database, no shrinking), with ``PYTHONHASHSEED=0`` and no bytecode
written, so a run repeats and a failing property test stops soon, and it
is capped at ``TIME_CAP`` seconds of wall-clock time and ``MEMORY_CAP``
bytes of address space (``resource.RLIMIT_AS``), as some mutants loop
while a digit list grows.  Each test's outcome is read from pytest's
``--junitxml``: a test kills a mutant when it fails or errors, or when
the time cap stops the run inside it (``tier1`` says how).  ``GUARD``,
the tier-1 test that each mutant's string occurs once, is deselected.

Without ``--first`` every test runs, and the record's ``matrix`` lists,
per mutant, every test that kills it: the kill matrix.  With ``--first``
tier-1 stops at the first failure (``-x``), and ``first`` lists that one
test, the cheap check that every mutant is still killed.  NAMEs limit
the run to those mutants.  The script rewrites the entries it ran in
``tests/mutants.json``, beside ``equivalent`` (the survivors that no
test can kill, each with its reason, from ``EQUIVALENT``) and
``pins_only`` (the mutants that only contract pins kill, from the
matrix), and prints one line per mutant.  A bad argv prints the usage
line and exits 2.  Standard library only; pytest does not collect this
file.
"""

from __future__ import annotations

import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import namedtuple

from same_bytes import emit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "tests", "mutants.json")
SEED = 0
TIME_CAP = 300
MEMORY_CAP = 2 << 30
TIMED_OUT = "(time cap)"
MAX_TIMEOUTS = 3
# the tier-1 check that each mutant's string is in its file once: it fails
# on every mutant by design, so it is no kill
GUARD = "tests/test_package.py::test_each_mutant_applies_to_exactly_one_place"
# a line of pytest -v: a node id, then its outcome once the test is done
STARTED = re.compile(r"(tests/\S.*?)(?: (?:PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS)\b.*)?\s*$")

Mutant = namedtuple("Mutant", "name path original replacement")

ALGEBRA = "src/nestohedra/algebra.py"
BUILDINGSET = "src/nestohedra/buildingset.py"
RINGCALC = "src/nestohedra/ringcalc.py"
SERIES = "src/nestohedra/series.py"
INVARIANTS = "src/nestohedra/invariants.py"
CLI = "src/nestohedra/cli.py"
WITNESSES = "tests/witnesses.py"
CLASSES = "src/nestohedra/_classes.py"
ROOT_MODULE = "src/nestohedra/__init__.py"

MUTANTS = (
    # algebra
    Mutant("digits-half", ALGEBRA, "half, mask = 1 << width - 1,", "half, mask = 1 << width - 2,"),
    Mutant(
        "egf-inverse-term",
        ALGEBRA,
        "r[j] * b[n - j] for j in range(1, n + 1)",
        "r[j] * b[n - j] for j in range(1, n)",
    ),
    Mutant(
        "mul-width",
        ALGEBRA,
        "sum(map(abs, b))).bit_length() + 1)",
        "sum(map(abs, b))).bit_length())",
    ),
    Mutant("add-degree-guard", ALGEBRA, "if len(self._terms) != len(other._terms):", "if False:"),
    Mutant("h-shift-sign", ALGEBRA, "h[k] -= h[k + 1]", "h[k] += h[k + 1]"),
    Mutant(
        "gamma-binomial",
        ALGEBRA,
        "residual[i + k] -= g * comb(m, k)",
        "residual[i + k] -= g * comb(m - 1, k)",
    ),
    Mutant("gamma-symmetry-guard", ALGEBRA, "if residual != residual[::-1]:", "if False:"),
    Mutant("passed-strict", ALGEBRA, "return min(self.gammas) >= 0", "return min(self.gammas) > 0"),
    Mutant(
        "first-negative",
        ALGEBRA,
        "enumerate(self.gammas) if g < 0)",
        "enumerate(self.gammas) if g < -1)",
    ),
    # buildingset
    Mutant("max-ground", BUILDINGSET, "MAX_GROUND = 20", "MAX_GROUND = 21"),
    Mutant("spec-nesting", BUILDINGSET, "_MAX_SPEC_NESTING = 32", "_MAX_SPEC_NESTING = 33"),
    Mutant("size-extra", BUILDINGSET, "if n + extra > MAX_GROUND:", "if n > MAX_GROUND:"),
    Mutant(
        "false-twins",
        BUILDINGSET,
        "if len(false_twins) > 1 else",
        "if len(false_twins) > 0 else",
    ),
    Mutant(
        "closure-mask",
        BUILDINGSET,
        "frontier = reach & mask & ~seen",
        "frontier = reach & ~seen",
    ),
    Mutant(
        "induced-run",
        BUILDINGSET,
        "nodes += range(lo, lo + k)",
        "nodes += range(lo, lo + k - 1)",
    ),
    Mutant(
        "nesting-depth",
        BUILDINGSET,
        "if depth >= _MAX_SPEC_NESTING:",
        "if depth > _MAX_SPEC_NESTING:",
    ),
    Mutant(
        "cycle-edges",
        BUILDINGSET,
        "((i, (i + 1) % n) for i in range(n))",
        "((i, (i + 1) % n) for i in range(n - 1))",
    ),
    Mutant(
        "join-low",
        BUILDINGSET,
        "tuple(m << a.n | low for m in b.adj)",
        "tuple(m << a.n for m in b.adj)",
    ),
    Mutant("bipartite-extra", BUILDINGSET, "_size(sizes[1], spec, m)", "_size(sizes[1], spec)"),
    # ringcalc
    Mutant(
        "one-plus-alpha",
        RINGCALC,
        "_ONE_PLUS_ALPHA = 1 << _WIDTH | 1",
        "_ONE_PLUS_ALPHA = 1 << _WIDTH",
    ),
    Mutant("table-nodes", RINGCALC, "if n <= 7:\n", "if n <= 8:\n"),
    Mutant("face-count-check", RINGCALC, "if f >> _WIDTH * (n - 1) != 1:", "if False:"),
    Mutant(
        "twin-binomials",
        RINGCALC,
        "comb(w - 1, c - 1) if masks is own else comb(w, c)",
        "comb(w, c) if masks is own else comb(w - 1, c - 1)",
    ),
    Mutant("rim-shift", RINGCALC, "(f << _WIDTH * (rim - 1))", "(f << _WIDTH * rim)"),
    Mutant(
        "twin-counts",
        RINGCALC,
        "range(1, w + 1 if to_rim else 2)",
        "range(1, w if to_rim else 2)",
    ),
    Mutant("pivot-tie", RINGCALC, "if k < fewest:", "if k <= fewest:"),
    Mutant(
        "mask-cap",
        RINGCALC,
        "if mask.bit_count() > MAX_GROUND:",
        "if mask.bit_count() >= MAX_GROUND:",
    ),
    Mutant("mask-range-guard", RINGCALC, "if mask >> g.n:", "if False:"),
    Mutant(
        "key-triangles",
        RINGCALC,
        "codes.append(row.bit_count() << 11 | t << 6 | s)",
        "codes.append(row.bit_count() << 11 | s)",
    ),
    # series
    Mutant("bound-binomial", SERIES, "comb(d, j) * p[j] * q[d - j]", "comb(d, j) * p[j] * q[j]"),
    Mutant(
        "width-bit",
        SERIES,
        "return (250 * top).bit_length() + 1",
        "return (250 * top).bit_length()",
    ),
    Mutant("field-check", SERIES, "if max(bounds) >> width - 1:", "if max(bounds) >> width:"),
    Mutant("product-room", SERIES, "if d2 > room:", "if d2 >= room:"),
    Mutant(
        "truncate-bounds",
        SERIES,
        "s._bounds[: order + 1], s._width)",
        "s._bounds[:order] + (0,), s._width)",
    ),
    Mutant(
        "mirror",
        SERIES,
        "return tuple(_index(l, k) for k, l in _layout(order))",
        "return tuple(_index(k, l) for k, l in _layout(order))",
    ),
    Mutant("deriv-t-bound", SERIES, "total += abs(digit) * scale", "total += abs(digit)"),
    Mutant(
        "inverse-offset-guard",
        SERIES,
        "if s.offset or s._coeffs[0] != 1:",
        "if s._coeffs[0] != 1:",
    ),
    Mutant(
        "because-point-terms",
        SERIES,
        "(k >= 1 and l >= 1) or (k, l) in ((1, 0), (0, 1))",
        "(k >= 1 and l >= 1) or (k, l) in ((1, 0),)",
    ),
    Mutant("suite-bb-sum", SERIES, "(bb - x - y) * pe_sum, pe * st", "(bb - x) * pe_sum, pe * st"),
    Mutant("suite-i5-scalar", SERIES, "truncate(pe_st, low) * at", "truncate(pe_st, low) * apt"),
    Mutant(
        "suite-i6-truncation",
        SERIES,
        "grow_phi + truncate(nb_sum, low) * at",
        "grow_phi + truncate(nb_sum, order - 2) * at",
    ),
    Mutant("suite-h-level", SERIES, "found[4:] = [m and", "found[5:] = [m and"),
    # invariants
    Mutant(
        "degree-guard",
        INVARIANTS,
        "if p and len(p.coeffs) - 1 != n:",
        "if p and len(p.coeffs) - 1 > n:",
    ),
    Mutant(
        "packed-bias",
        INVARIANTS,
        'b"\\0\\0\\0\\0\\0\\0\\0\\x80"',
        'b"\\0\\0\\0\\0\\0\\0\\0\\x40"',
    ),
    Mutant(
        "packed-range",
        INVARIANTS,
        "max(map(max, rows)) >= 1 << 16",
        "max(map(max, rows)) > 1 << 16",
    ),
    Mutant("packed-dim", INVARIANTS, "if dim > 6 or", "if dim > 7 or"),
    Mutant("verify-mismatch", INVARIANTS, "index: None if e == a else (e, a)", "index: None"),
    # cli
    Mutant("max-order", CLI, "MAX_ORDER = 16", "MAX_ORDER = 17"),
    Mutant(
        "facets-dim",
        CLI,
        "facets = fvec[-2] if dim >= 1 else 0",
        "facets = fvec[-2] if dim >= 2 else 0",
    ),
    Mutant("nodes-guard", CLI, "if args.nodes is not None:", "if False:"),
    Mutant("identities-floor", CLI, "range(2, MAX_ORDER + 1)", "range(1, MAX_ORDER + 1)"),
    Mutant(
        "difference-scale",
        CLI,
        "scale = factorial(k) * factorial(l)",
        "scale = factorial(k + l)",
    ),
    Mutant(
        "oserror-exit",
        CLI,
        "except (ValueError, OSError) as exc:",
        "except ValueError as exc:",
    ),
    # the class table and the package root
    Mutant(
        "class-table-entry",
        CLASSES,
        "0x220: 0x800000000000000002400000000000000002a00000000000000000e,",
        "0x220: 0x800000000000000002400000000000000002a00000000000000000f,",
    ),
    Mutant("root-exports", ROOT_MODULE, "    *series.__all__,\n]", "]"),
    # test witnesses
    Mutant(
        "witness-raw-mul",
        WITNESSES,
        "if k1 + k2 + l1 + l2 <= order:",
        "if k1 + k2 + l1 + l2 < order:",
    ),
    Mutant(
        "witness-list-weight",
        WITNESSES,
        "weight = comb(k, k1) * comb(l, l1)",
        "weight = comb(k, k1) * comb(l, k1)",
    ),
    Mutant("witness-sparse-mul", WITNESSES, "e = (i1 + i2, j1 + j2)", "e = (i1 + i2, j1 + i2)"),
    Mutant(
        "witness-denominator",
        WITNESSES,
        "acc[d - 1 + i] += comb(n, d) * c",
        "acc[d - 1 + i] += comb(n, d - 1) * c",
    ),
    Mutant(
        "witness-plain-boundary",
        WITNESSES,
        "for s in range(1, full):",
        "for s in range(2, full):",
    ),
)

# survivors no test can kill: the mutant computes what the original does
EQUIVALENT = {
    "pivot-tie": "the facet formula holds for any pivot v; a tie only picks another class, "
    "so every face polynomial, and every output byte, is the same",
}

# the contract pins, which never count as another test that keeps a kill
PINS = re.compile(
    r"(?:\(time cap\) )?"
    r"(?:tests\.test_golden::|tests\.test_reach_gate::|tests\.test_readme::|tests\.test_bench::"
    r"|tests\.test_package::test_every_raise_in_the_library_is_a_type_the_exit_codes_read"
    r"|tests\.test_package::test_the_public_signatures_are_pinned"
    r"|tests\.test_cli::test_\w*exit|tests\.test_\w+::\w*ceiling|tests\.test_cli::test_\w*beyond"
    r"|tests\.test_cli::test_each_order_range_is_stated_once_in_the_option_table)"
)

USAGE = "usage: python3 tests/mutants.py [--first] [NAME ...]"


def copy_tree(dest: str) -> str:
    ignore = shutil.ignore_patterns(
        ".git", ".hypothesis", ".pytest_cache", ".benchmarks", "__pycache__", "*.egg-info",
        "BENCH_*.json",
    )
    tree = os.path.join(dest, "tree")
    shutil.copytree(ROOT, tree, ignore=ignore)
    return tree


def _capped() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def _run(tree: str, first: bool, deselected: list[str]) -> tuple[int, list[str], str | None]:
    """One tier-1 run in tree: its test count, its failing tests, and the
    test the time cap stopped, if it stopped one."""
    xml, log = os.path.join(tree, "junit.xml"), os.path.join(tree, "pytest.log")
    if os.path.exists(xml):
        os.remove(xml)
    argv = [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider"]
    argv += ["--hypothesis-profile=mutants", f"--hypothesis-seed={SEED}", f"--junitxml={xml}"]
    argv += ["-x"] if first else []
    argv += [f"--deselect={nodeid}" for nodeid in (GUARD, *deselected)]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONUNBUFFERED="1")
    with open(log, "w", encoding="utf-8") as out:
        child = subprocess.Popen(
            argv, cwd=tree, env=env, stdout=out, stderr=subprocess.STDOUT,
            preexec_fn=_capped, start_new_session=True,
        )
        try:
            child.wait(timeout=TIME_CAP)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            # -v writes a test's node id before it runs and its outcome after
            with open(log, encoding="utf-8") as f:
                started = [STARTED.match(line) for line in f]
            ids = [match[1] for match in started if match]
            return 0, [], ids[-1] if ids else "(no test started)"
    if not os.path.exists(xml):
        return 0, [f"(pytest exit {child.returncode}, no report)"], None
    count, failed = 0, []
    for case in ET.parse(xml).getroot().iter("testcase"):
        count += 1
        if case.find("failure") is not None or case.find("error") is not None:
            failed.append(f"{case.get('classname')}::{case.get('name')}")
    if child.returncode and not failed:
        failed.append(f"(pytest exit {child.returncode})")
    return count, failed, None


def tier1(tree: str, first: bool) -> tuple[int, list[str]]:
    """The test count and the failing tests of tier-1 in tree.

    A test that the time cap stops is a kill, written as its id after
    ``TIMED_OUT``; without ``--first`` tier-1 then runs again without it,
    so the tests after it are read too, up to ``MAX_TIMEOUTS`` times.
    """
    hung: list[str] = []
    while True:
        count, failed, stopped = _run(tree, first, hung)
        if stopped is None or first or len(hung) == MAX_TIMEOUTS:
            break
        hung.append(stopped)
    if stopped is not None:
        hung.append(stopped)
    for nodeid in hung:
        path, _, name = nodeid.partition("::")
        failed.append(f"{TIMED_OUT} {path.removesuffix('.py').replace('/', '.')}::{name}")
    return count + len(hung), failed


def main(args: list[str]) -> int:
    first = args[:1] == ["--first"]
    names = args[1:] if first else args
    by_name = {m.name: m for m in MUTANTS}
    if any(name not in by_name for name in names):
        print(USAGE, file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in names] if names else list(MUTANTS)
    key = "first" if first else "matrix"
    record = {}
    if os.path.exists(RECORD):
        with open(RECORD, encoding="utf-8") as f:
            record = json.load(f)
    with tempfile.TemporaryDirectory() as scratch:
        tree = copy_tree(scratch)
        count, failed = tier1(tree, first)
        if failed:
            print(f"error: the unmutated tree fails: {failed}", file=sys.stderr)
            return 1
        kills = record.get(key, {}).get("kills", {})
        for m in chosen:
            path = os.path.join(tree, m.path)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            if text.count(m.original) != 1:
                print(f"error: {m.name}: its string is not in {m.path} once", file=sys.stderr)
                return 1
            with open(path, "w", encoding="utf-8") as f:
                f.write(text.replace(m.original, m.replacement))
            try:
                kills[m.name] = tier1(tree, first)[1]
            finally:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text)
            killers = kills[m.name]
            emit(f"{m.name}: " + (f"killed by {len(killers)}" if killers else "survived"))
    ordered = {m.name: kills[m.name] for m in MUTANTS if m.name in kills}
    record[key] = {"tests": count, "kills": ordered}
    matrix = record.get("matrix", {}).get("kills", {})
    record["equivalent"] = EQUIVALENT
    record["pins_only"] = [
        name for name, killers in matrix.items() if killers and all(PINS.match(t) for t in killers)
    ]
    with open(RECORD, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    survivors = [m.name for m in chosen if not kills[m.name] and m.name not in EQUIVALENT]
    emit(f"{len(chosen)} mutants, {len(survivors)} unexplained survivors: {', '.join(survivors)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

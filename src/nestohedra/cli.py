"""Command-line front end for nestohedron invariants and series checks.

Four subcommands: ``invariants`` prints face data for one graph's
nestohedron, ``verify`` compares the nested-set recursion against the
closed-form generating functions, ``identities`` runs the eight
differential identities, and ``gal-scan`` sweeps gamma-nonnegativity over
a polytope family or over all small connected graphs.  Each check is one
library call on what it checks, so this module only formats:
``gal_check_graph`` takes the parsed graph and returns its face
polynomial, h-polynomial and gamma vector, and each batch check returns
a mapping keyed by what it checked: ``verify_series`` takes the family
ids and the order, ``gal_check_series`` a family's id and the bound,
``gal_check_classes`` the node count (it builds no graph and keys each
class by the spec it prints), and ``identity_suite`` the order.  A
failed computation comes back as an ``ArithmeticError`` that already
names what failed.  Each command returns its report (exit code, a call
that builds its JSON object, CSV header and rows) and ``main`` alone
writes it, as JSON (sorted keys) or CSV, building only the one it
writes; both are byte-deterministic for fixed inputs.

The subcommands, their flags and each flag's accepted values (an order
flag's range is its ``choices``) live in one option table, ``_COMMANDS``.
A well-formed argv (an exact subcommand, then exact ``--flag value``
pairs with accepted values) is read from it directly; anything else,
help and every usage error included, goes to the argparse parser built
from the same table, and only then is argparse imported.

Exit codes: 0 when every check passes, 1 when a verification or scan
finds a failure or the computation fails one of its own checks (an
``ArithmeticError``), 2 on bad usage or input (a ``ValueError``, or an
``OSError`` on output or a stdout closed at start).  A closed stderr
loses the ``error:`` line, not the code.  ``main`` returns the code, and
the ``nestohedra`` console script that pip generates, like ``python -m
nestohedra.cli``, passes it to ``sys.exit``.
"""

from __future__ import annotations

import sys
from _csv import writer
from _json import encode_basestring_ascii
from math import factorial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .algebra import GammaVector
from .buildingset import parse_graph_spec
from .invariants import gal_check_classes, gal_check_graph, gal_check_series, verify_series
from .series import DEFAULT_ORDER, FAMILIES, IDENTITY_FAMILIES, identity_suite

if TYPE_CHECKING:
    import argparse

__all__ = ["main"]

MAX_ORDER = 16

# what a command returns: its exit code, a call that builds its JSON
# object, and its CSV header and rows; main builds the object only for
# JSON and reads the rows only for CSV
_Report = tuple[int, Callable[[], dict[str, object]], Sequence[str], Iterable[Sequence[object]]]


# ---------------------------------------------------------------------------
# output


def _json_parts(obj: object, indent: str, out: list[str]) -> None:
    """Append the text of obj as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it.

    Dicts with str keys, lists, str, int, bool and None; any other type
    raises TypeError.  An indent sends ``json.dumps`` to its pure-Python
    encoder, so this writer, with the C string escaper that encoder uses
    (taken from ``_json``, so ``json`` stays unloaded), does the same work
    in fewer calls.
    """
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _json_parts(obj[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, list):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            _json_parts(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        raise TypeError(f"{type(obj).__name__} is not written as JSON")


# ---------------------------------------------------------------------------
# invariants


def cmd_invariants(args: SimpleNamespace) -> _Report:
    f, h, gv = gal_check_graph(parse_graph_spec(args.graph))
    fvec = list(f.coeffs)
    dim = len(fvec) - 1
    gammas = gv.as_strings()
    facets = fvec[-2] if dim >= 1 else 0
    spec = args.graph.strip()

    def obj() -> dict[str, object]:
        return {
            "graph": spec,
            "dimension": dim,
            "facets": facets,
            "f_vector": fvec,
            "h_polynomial": h.to_records(),
            "gamma": gammas,
        }

    def rows() -> Iterator[tuple[str, object]]:
        yield "graph", spec
        yield "dimension", dim
        yield "facets", facets
        yield "f_vector", ";".join(str(c) for c in fvec)
        yield "h_polynomial", str(h)
        yield "gamma", ";".join(gammas)

    return 0, obj, ("quantity", "value"), rows()


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: SimpleNamespace) -> _Report:
    max_order = args.max_order
    fam_ids = list(FAMILIES) if args.family == "all" else [args.family]
    reports, rows = [], []
    for fam_id, checked in verify_series(fam_ids, max_order).items():
        mismatches = []
        for (k, l), found in checked.items():
            if found is not None:
                series_f, recursion = (p.to_records() for p in found)
                mismatches.append({"k": k, "l": l, "series": series_f, "recursion": recursion})
            rows.append((fam_id, k, l, "ok" if found is None else "mismatch"))
        reports.append({"family": fam_id, "checked": len(checked), "mismatches": mismatches})
    failed = any(report["mismatches"] for report in reports)
    obj = {"max_order": max_order, "passed": not failed, "reports": reports}
    return 1 if failed else 0, lambda: obj, ("family", "k", "l", "status"), rows


# ---------------------------------------------------------------------------
# identities


def cmd_identities(args: SimpleNamespace) -> _Report:
    order = args.order
    results = identity_suite(order, corrupt=args.corrupt)
    entries, rows = [], []
    for name, mismatch in results.items():
        entry: dict[str, object] = {"identity": name, "passed": mismatch is None}
        k = l = ""
        if mismatch is not None:
            from fractions import Fraction

            # the raw [x^k y^l] difference: the stored one over k! l!,
            # each coefficient written p or p/q in lowest terms
            k, l, diff = mismatch
            scale = factorial(k) * factorial(l)
            difference = [
                {"i": i, "j": j, "c": str(Fraction(c, scale))} for (i, j), c in diff.terms()
            ]
            entry["mismatch"] = {"k": k, "l": l, "difference": difference}
        entries.append(entry)
        rows.append((name, str(mismatch is None).lower(), k, l))
    passed = all(mismatch is None for mismatch in results.values())
    obj = {"order": order, "passed": passed, "results": entries}
    return 0 if passed else 1, lambda: obj, ("identity", "passed", "mismatch_k", "mismatch_l"), rows


# ---------------------------------------------------------------------------
# gal-scan


# a scanned item: where it sits ({"k": k, "l": l} or {"graph": spec}) and
# its gamma vector, from gal_check_poly
_ScanItem = tuple[dict[str, object], GammaVector]


def _scan_json(items: Sequence[_ScanItem]) -> dict[str, object]:
    """The ``checked``, ``violations`` and ``gammas`` JSON entries of scanned items."""
    return {
        "checked": len(items),
        "violations": [
            {
                **where,
                "condition": "gamma-nonnegativity",
                "witness": "gamma_{} = {}".format(*gv.first_negative),
            }
            for where, gv in items
            if not gv.passed
        ],
        "gammas": [
            {**where, "dimension": gv.n, "gamma": gv.as_strings()} for where, gv in items
        ],
    }


def _scan_row(item: _ScanItem) -> tuple[object, ...]:
    """The CSV row of one scanned item: where, dimension, gamma and status."""
    where, gv = item
    status = "ok" if gv.passed else "violation"
    return (*where.values(), gv.n, ";".join(gv.as_strings()), status)


def _scan_families(args: SimpleNamespace) -> _Report:
    bound = args.bound if args.bound is not None else DEFAULT_ORDER
    fam_ids = list(FAMILIES) if args.family == "all" else [args.family]
    scanned = []
    for fam_id in fam_ids:
        results = gal_check_series(fam_id, bound)
        scanned.append((fam_id, [({"k": k, "l": l}, gv) for (k, l), gv in results.items()]))
    failed = not all(gv.passed for _, items in scanned for _, gv in items)

    def obj() -> dict[str, object]:
        reports = [{"family": f, "order": bound, **_scan_json(items)} for f, items in scanned]
        return {"bound": bound, "passed": not failed, "reports": reports}

    rows = ((fam_id, *_scan_row(item)) for fam_id, items in scanned for item in items)
    return 1 if failed else 0, obj, ("family", "k", "l", "dimension", "gamma", "status"), rows


def _scan_graph_classes(args: SimpleNamespace) -> _Report:
    if args.nodes is None:
        raise ValueError("--graph-class needs --nodes N")
    results = gal_check_classes(args.nodes)
    items = [({"graph": spec}, gv) for spec, gv in results.items()]
    failed = not all(gv.passed for gv in results.values())

    def obj() -> dict[str, object]:
        head = {"graph_class": args.graph_class, "nodes": args.nodes, "passed": not failed}
        return {**head, **_scan_json(items)}

    header = ("graph", "dimension", "gamma", "status")
    return 1 if failed else 0, obj, header, map(_scan_row, items)


def cmd_gal_scan(args: SimpleNamespace) -> _Report:
    if (args.family is None) == (args.graph_class is None):
        raise ValueError("choose exactly one of --family or --graph-class")
    if args.family is not None:
        if args.nodes is not None:
            raise ValueError("--nodes applies to --graph-class scans only")
        return _scan_families(args)
    if args.bound is not None:
        raise ValueError("--bound applies to --family scans; use --nodes")
    return _scan_graph_classes(args)


# ---------------------------------------------------------------------------
# the option table, its two readers, and dispatch


def _int_flag(text: str) -> int:
    """An int flag's value: ASCII digits after at most one minus sign."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


_int_flag.__name__ = "int"  # argparse names the type in its "invalid int value" message
_FAMILY_CHOICES = ("all", *FAMILIES)
_FORMAT = {
    "--format": dict(
        dest="format",
        choices=("json", "csv"),
        default="json",
        help="output format (default json)",
    )
}

# subcommand: (handler, help line, {flag: add_argument keywords}), in the
# order of --help; a keyword left out takes add_argument's default
_COMMANDS: dict[str, tuple[Callable[[SimpleNamespace], _Report], str, dict[str, dict]]] = {
    "invariants": (
        cmd_invariants,
        "f-vector, h-polynomial, and gamma-vector of one graph",
        {
            "--graph": dict(
                dest="graph",
                required=True,
                help="graph spec: complete:N, empty:N, star:N, path:N, cycle:N, "
                "bipartite:M,N, join(SPEC,SPEC), or edges:N:0-1,1-2,...",
            ),
            **_FORMAT,
        },
    ),
    "verify": (
        cmd_verify,
        "check that the nested-set recursion matches the closed-form series",
        {
            "--family": dict(dest="family", choices=_FAMILY_CHOICES, default="all"),
            "--max-order": dict(
                dest="max_order",
                type=_int_flag,
                choices=(_orders := range(0, MAX_ORDER + 1)),
                default=DEFAULT_ORDER,
                metavar="M",
                help=f"largest total index k+l to check, {_orders.start}..{_orders[-1]} "
                f"(default {DEFAULT_ORDER})",
            ),
            **_FORMAT,
        },
    ),
    "identities": (
        cmd_identities,
        "run the eight differential identities",
        {
            "--order": dict(
                dest="order",
                type=_int_flag,
                choices=(_orders := range(2, MAX_ORDER + 1)),
                default=DEFAULT_ORDER,
                metavar="N",
                help=f"truncation order, {_orders.start}..{_orders[-1]} (default {DEFAULT_ORDER})",
            ),
            "--corrupt": dict(
                dest="corrupt",
                choices=IDENTITY_FAMILIES,
                metavar="FAMILY",
                help="drop one series term first; the suite must then fail "
                "(negative control)",
            ),
            **_FORMAT,
        },
    ),
    "gal-scan": (
        cmd_gal_scan,
        "check gamma-nonnegativity over a family or over graph classes",
        {
            "--family": dict(dest="family", choices=_FAMILY_CHOICES),
            "--bound": dict(
                dest="bound",
                type=_int_flag,
                choices=(_orders := range(1, MAX_ORDER + 1)),
                metavar="B",
                help=f"largest total index k+l to scan, {_orders.start}..{_orders[-1]} "
                f"(family mode, default {DEFAULT_ORDER})",
            ),
            "--graph-class": dict(
                dest="graph_class",
                choices=("connected",),
                help="scan every isomorphism class of this kind instead of a family",
            ),
            "--nodes": dict(
                dest="nodes", type=_int_flag, metavar="N", help="node count for --graph-class (1..7)"
            ),
            **_FORMAT,
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the option table: help, usage and its errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="nestohedra",
        description="face counts, h- and gamma-polynomials, and series checks "
        "for nestohedra of graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_line, flags) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=help_line)
        for flag, keywords in flags.items():
            p_cmd.add_argument(flag, **keywords)
        p_cmd.set_defaults(func=func)
    return parser


def _read_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The namespace of a well-formed argv, read from the option table.

    Well-formed is an exact subcommand name followed by exact ``--flag
    value`` pairs: each flag of that subcommand at most once, no value
    starting with ``-``, int values through ``_int_flag``, choices checked and
    required flags present.  On such an argv argparse builds the same
    namespace.  Anything else gives None, so help, abbreviations,
    ``--flag=value``, repeated flags, ``--`` and every usage error are left
    to ``build_parser`` and read exactly as argparse reads them.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, flags = _COMMANDS[argv[0]]
    pairs = argv[1:]
    if len(pairs) % 2:
        return None
    values: dict[str, object] = {}
    for flag, text in zip(pairs[::2], pairs[1::2]):
        keywords = flags.get(flag)
        if keywords is None or flag in values or text.startswith("-"):
            return None
        value: object = text
        if "type" in keywords:
            try:
                value = keywords["type"](text)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[flag] = value
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, keywords in flags.items():
        if flag in values:
            setattr(args, keywords["dest"], values[flag])
        elif keywords.get("required"):
            return None
        else:
            setattr(args, keywords["dest"], keywords.get("default"))
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        except SystemExit as exc:
            return int(exc.code or 0)
    error: object = None
    try:
        code, obj, header, rows = args.func(args)
        if sys.stdout is None:  # descriptor 1 was closed when Python started
            code, error = 2, "standard output is closed"
        elif args.format == "json":
            parts: list[str] = []
            _json_parts(obj(), "", parts)
            sys.stdout.write("".join(parts) + "\n")
        else:
            # ``csv.writer`` is this C writer, and its default dialect is csv's "excel"
            out = writer(sys.stdout, lineterminator="\n")
            out.writerow(header)
            out.writerows(rows)
    except (ValueError, OSError) as exc:
        code, error = 2, exc
    except ArithmeticError as exc:
        # valid input whose computation failed an exactness check
        code, error = 1, exc
    if error is not None:
        try:
            sys.stderr.write(f"error: {error}\n")
        except (AttributeError, OSError):
            pass  # standard error is closed too: the exit code alone reports the failure
    return code


if __name__ == "__main__":
    sys.exit(main())

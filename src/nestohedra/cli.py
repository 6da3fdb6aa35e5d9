"""Command-line front end for nestohedron invariants and series checks.

Four subcommands: ``invariants`` prints face data for one graph's
nestohedron, ``verify`` compares the nested-set recursion against the
closed-form generating functions, ``identities`` runs the eight
differential identities, and ``gal-scan`` sweeps gamma-nonnegativity over
a polytope family or over all small connected graphs.  Output is JSON
(sorted keys) or CSV; both are byte-deterministic for fixed inputs.

Exit codes: 0 when every check passes, 1 when a verification or scan
finds a failure or the computation fails one of its own checks, 2 on bad
usage or input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from .algebra import InhomogeneousError, Poly2, format_rational
from .buildingset import (
    Graph,
    GraphSpecError,
    connected_graphs_upto_iso,
    graph_spec,
    parse_graph_spec,
)
from .invariants import (
    GalPolyResult,
    SeriesScanReport,
    fvector,
    gal_check_poly,
    gal_check_series,
    hpoly,
)
from .ringcalc import FPolyCache, fpoly
from .series import (
    DEFAULT_ORDER,
    FAMILIES,
    NotInFamilyError,
    coeff_normalized,
    family_f,
    family_h,
    identity_suite,
)

__all__ = ["main", "entrypoint"]

MAX_ORDER = 16


# ---------------------------------------------------------------------------
# output


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# series builds


@contextmanager
def _series_build(what: str, order: int) -> Iterator[None]:
    """Re-raise a mixed-degree slot of a series build as ArithmeticError.

    The arguments were validated before the build, so a slot that mixes
    degrees is the series arithmetic's failure, not the input's: one line
    naming what was built and at which order, exit 1, not 2.
    """
    try:
        yield
    except InhomogeneousError as exc:
        raise ArithmeticError(f"{what} at order {order}: {exc}") from exc


# ---------------------------------------------------------------------------
# invariants


def _gal_check_recursion(g: Graph, h: Poly2, n: int) -> GalPolyResult:
    """``gal_check_poly`` on the h-polynomial the recursion gave for g.

    g came from valid input, so an h-polynomial the check refuses (not
    symmetric, or not of degree n) or whose gamma extraction leaves a
    residual is the recursion's failure: it is raised as ArithmeticError
    naming the graph, which exits 1, not 2.
    """
    try:
        return gal_check_poly(h, n)
    except (ValueError, ArithmeticError) as exc:
        raise ArithmeticError(f"h-polynomial of {graph_spec(g)}: {exc}") from exc


def cmd_invariants(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph)
    cache = FPolyCache()
    fvec = fvector(graph, cache)
    h = hpoly(graph, cache)
    dim = len(fvec) - 1
    gv = _gal_check_recursion(graph, h, dim).gammas
    facets = fvec[-2] if dim >= 1 else 0
    if args.format == "json":
        _emit_json(
            {
                "graph": args.graph.strip(),
                "dimension": dim,
                "facets": facets,
                "f_vector": fvec,
                "h_polynomial": h.to_records(),
                "gamma": gv.as_strings(),
            }
        )
    else:
        _emit_csv(
            ("quantity", "value"),
            (
                ("graph", args.graph.strip()),
                ("dimension", dim),
                ("facets", facets),
                ("f_vector", ";".join(str(c) for c in fvec)),
                ("h_polynomial", str(h)),
                ("gamma", ";".join(gv.as_strings())),
            ),
        )
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_family(fam_id: str, max_order: int, cache: FPolyCache) -> dict[str, object]:
    spec = FAMILIES[fam_id]
    with _series_build(f"series of {fam_id}", max_order):
        series = family_f(fam_id, max_order)
    indices = spec.indices(max_order)
    mismatches = []
    for k, l in indices:
        expected = coeff_normalized(fam_id, k, l, series=series)
        actual = fpoly(spec.graph_at(k, l), cache)
        if expected != actual:
            mismatches.append(
                {
                    "k": k,
                    "l": l,
                    "series": expected.to_records(),
                    "recursion": actual.to_records(),
                }
            )
    return {
        "family": fam_id,
        "checked": len(indices),
        "indices": indices,
        "mismatches": mismatches,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    max_order = args.max_order
    if max_order < 0:
        raise ValueError("max order must be nonnegative")
    if max_order > MAX_ORDER:
        raise ValueError(
            f"max order {max_order} exceeds the largest truncation order {MAX_ORDER}"
        )
    fam_ids = list(FAMILIES) if args.family == "all" else [args.family]
    cache = FPolyCache()
    reports = [_verify_family(fam_id, max_order, cache) for fam_id in fam_ids]
    failed = any(report["mismatches"] for report in reports)
    if args.format == "json":
        _emit_json(
            {
                "max_order": max_order,
                "passed": not failed,
                "reports": [
                    {key: report[key] for key in ("family", "checked", "mismatches")}
                    for report in reports
                ],
            }
        )
    else:
        rows = []
        for report in reports:
            bad = {(m["k"], m["l"]) for m in report["mismatches"]}
            for k, l in report["indices"]:
                status = "mismatch" if (k, l) in bad else "ok"
                rows.append((report["family"], k, l, status))
        _emit_csv(("family", "k", "l", "status"), rows)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# identities


def cmd_identities(args: argparse.Namespace) -> int:
    order = args.order
    if not 2 <= order <= MAX_ORDER:
        raise ValueError(f"identity checks need a truncation order in 2..{MAX_ORDER}")
    with _series_build("identities", order):
        report = identity_suite(order, corrupt=args.corrupt)
    if args.format == "json":
        _emit_json(report.to_json_obj())
    else:
        rows = []
        for result in report.results:
            k, l = ("", "") if result.mismatch is None else result.mismatch[:2]
            rows.append((result.name, str(result.passed).lower(), k, l))
        _emit_csv(("identity", "passed", "mismatch_k", "mismatch_l"), rows)
    return 0 if report.all_passed else 1


# ---------------------------------------------------------------------------
# gal-scan


def _scan_families(args: argparse.Namespace) -> int:
    bound = args.bound if args.bound is not None else DEFAULT_ORDER
    if bound > MAX_ORDER:
        raise ValueError(
            f"bound {bound} exceeds the largest truncation order {MAX_ORDER}"
        )
    fam_ids = list(FAMILIES) if args.family == "all" else [args.family]
    reports: list[SeriesScanReport] = []
    for fam_id in fam_ids:
        with _series_build(f"series of {fam_id}", bound):
            series = family_h(fam_id, bound)
        reports.append(gal_check_series(series, fam_id))
    failed = any(report.violations for report in reports)
    if args.format == "json":
        payload = []
        for report in reports:
            spec = FAMILIES[report.family]
            obj = report.to_json_obj()
            obj["gammas"] = [
                {
                    "k": k,
                    "l": l,
                    "dimension": spec.dim(k, l),
                    "gamma": gv.as_strings(),
                }
                for (k, l), gv in sorted(report.gammas.items(), key=lambda it: (sum(it[0]), it[0]))
            ]
            payload.append(obj)
        _emit_json({"bound": bound, "passed": not failed, "reports": payload})
    else:
        rows = []
        for report in reports:
            spec = FAMILIES[report.family]
            bad = {v.index for v in report.violations}
            for k, l in spec.indices(bound):
                gv = report.gammas.get((k, l))
                rows.append(
                    (
                        report.family,
                        k,
                        l,
                        spec.dim(k, l),
                        "" if gv is None else ";".join(gv.as_strings()),
                        "violation" if (k, l) in bad else "ok",
                    )
                )
        _emit_csv(("family", "k", "l", "dimension", "gamma", "status"), rows)
    return 1 if failed else 0


def _scan_graph_classes(args: argparse.Namespace) -> int:
    if args.graph_class != "connected":
        raise ValueError(f"unknown graph class {args.graph_class!r}")
    if args.nodes is None:
        raise ValueError("--graph-class needs --nodes N")
    if not 1 <= args.nodes <= 7:
        raise ValueError("graph-class scans cover 1..7 nodes")
    classes = [g for g in connected_graphs_upto_iso(args.nodes) if g.n == args.nodes]
    cache = FPolyCache()
    results = [
        (graph_spec(g), g.n - 1, _gal_check_recursion(g, hpoly(g, cache), g.n - 1))
        for g in classes
    ]
    violations = [
        {
            "graph": spec,
            "condition": "gamma-nonnegativity",
            "witness": f"gamma_{result.first_negative[0]} = "
            f"{format_rational(result.first_negative[1])}",
        }
        for spec, _, result in results
        if not result.passed
    ]
    if args.format == "json":
        _emit_json(
            {
                "graph_class": args.graph_class,
                "nodes": args.nodes,
                "checked": len(results),
                "passed": not violations,
                "violations": violations,
                "gammas": [
                    {
                        "graph": spec,
                        "dimension": dim,
                        "gamma": result.gammas.as_strings(),
                    }
                    for spec, dim, result in results
                ],
            }
        )
    else:
        rows = [
            (
                spec,
                dim,
                ";".join(result.gammas.as_strings()),
                "ok" if result.passed else "violation",
            )
            for spec, dim, result in results
        ]
        _emit_csv(("graph", "dimension", "gamma", "status"), rows)
    return 1 if violations else 0


def cmd_gal_scan(args: argparse.Namespace) -> int:
    if args.bound is not None and args.bound < 1:
        raise ValueError("bound must be at least 1")
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
# parser and dispatch


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format (default json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nestohedra",
        description="face counts, h- and gamma-polynomials, and series checks "
        "for nestohedra of graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    family_choices = ("all", *FAMILIES)

    p_inv = sub.add_parser(
        "invariants", help="f-vector, h-polynomial, and gamma-vector of one graph"
    )
    p_inv.add_argument(
        "--graph",
        required=True,
        help="graph spec: complete:N, empty:N, star:N, path:N, cycle:N, "
        "bipartite:M,N, join(SPEC,SPEC), or edges:N:0-1,1-2,...",
    )
    _add_common_flags(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_ver = sub.add_parser(
        "verify",
        help="check that the nested-set recursion matches the closed-form series",
    )
    p_ver.add_argument("--family", choices=family_choices, default="all")
    p_ver.add_argument(
        "--max-order",
        type=int,
        default=DEFAULT_ORDER,
        metavar="M",
        help=f"largest total index k+l to check, 0..{MAX_ORDER} "
        f"(default {DEFAULT_ORDER})",
    )
    _add_common_flags(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_ident = sub.add_parser(
        "identities", help="run the eight differential identities"
    )
    p_ident.add_argument(
        "--order",
        type=int,
        default=DEFAULT_ORDER,
        metavar="N",
        help=f"truncation order, 2..{MAX_ORDER} (default {DEFAULT_ORDER})",
    )
    p_ident.add_argument(
        "--corrupt",
        choices=("pe", "st", "nabla-because", "because-because"),
        metavar="FAMILY",
        help="drop one series term first; the suite must then fail "
        "(negative control)",
    )
    _add_common_flags(p_ident)
    p_ident.set_defaults(func=cmd_identities)

    p_gal = sub.add_parser(
        "gal-scan",
        help="check gamma-nonnegativity over a family or over graph classes",
    )
    p_gal.add_argument("--family", choices=family_choices)
    p_gal.add_argument(
        "--bound",
        type=int,
        metavar="B",
        help=f"largest total index k+l to scan, 1..{MAX_ORDER} (family mode, "
        f"default {DEFAULT_ORDER})",
    )
    p_gal.add_argument(
        "--graph-class",
        choices=("connected",),
        help="scan every isomorphism class of this kind instead of a family",
    )
    p_gal.add_argument(
        "--nodes", type=int, metavar="N", help="node count for --graph-class (1..7)"
    )
    _add_common_flags(p_gal)
    p_gal.set_defaults(func=cmd_gal_scan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (GraphSpecError, NotInFamilyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # valid input whose computation failed an exactness check
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

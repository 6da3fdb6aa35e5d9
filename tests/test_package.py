"""The package root: one public surface, re-exported from the layers."""

from __future__ import annotations

import ast
import builtins
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import mutants
import nestohedra
from nestohedra import algebra, buildingset, cli, invariants, ringcalc, series

LAYERS = (algebra, buildingset, invariants, ringcalc, series)


def test_the_root_exports_each_layers_names() -> None:
    assert nestohedra.__all__ == [name for layer in LAYERS for name in layer.__all__]
    assert len(set(nestohedra.__all__)) == len(nestohedra.__all__)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(nestohedra, name) is getattr(layer, name), (layer.__name__, name)


def test_importing_the_root_leaves_the_command_line_unloaded() -> None:
    # Library users pay for neither the commands nor their output modules.
    src = str(Path(nestohedra.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = "import sys, nestohedra; print(sorted({'nestohedra.cli', 'json', 'csv'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "[]\n"


def test_every_raise_in_the_library_is_a_type_the_exit_codes_read() -> None:
    # cli.main maps ValueError to exit 2 and ArithmeticError to exit 1;
    # TypeError is a library caller passing the wrong kind of object, which
    # no argv can do.  No module defines an exception class of its own.
    allowed = {"ValueError", "ArithmeticError", "TypeError"}
    raised, defined = [], []
    for path in sorted(Path(nestohedra.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.append((path.name, node.lineno, getattr(exc, "id", None)))
            elif isinstance(node, ast.ClassDef):
                bases = [getattr(builtins, getattr(base, "id", ""), None) for base in node.bases]
                if any(isinstance(b, type) and issubclass(b, BaseException) for b in bases):
                    defined.append((path.name, node.name))
    assert len(raised) > 50
    assert [r for r in raised if r[2] not in allowed] == []
    assert defined == []


def test_each_mutant_applies_to_exactly_one_place() -> None:
    # tests/mutants.py edits one exact string per mutant; a refactor that
    # moves or duplicates it would leave the mutant testing nothing
    root = Path(__file__).resolve().parents[1]
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS) >= 40
    package = Path(nestohedra.__file__).parent
    assert {f"src/nestohedra/{path.name}" for path in package.glob("*.py")} <= {
        m.path for m in mutants.MUTANTS
    }
    for m in mutants.MUTANTS:
        assert (root / m.path).read_text(encoding="utf-8").count(m.original) == 1, m.name
    assert set(mutants.EQUIVALENT) <= {m.name for m in mutants.MUTANTS}


def test_cli_takes_only_public_names_from_the_library() -> None:
    # A command is built from public library calls only: every name cli
    # imports from a module of the package is in that module's __all__.
    taken = [
        (module, alias.name)
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "nestohedra")
        for module in [importlib.import_module("." * node.level + (node.module or ""), "nestohedra")]
        for alias in node.names
    ]
    assert {module.__name__ for module, _ in taken} >= {"nestohedra.invariants", "nestohedra.series"}
    assert [(m.__name__, name) for m, name in taken if name not in m.__all__] == []


# the parameter names of every public callable of the layers: a changed
# signature fails here until this pin changes with it
PUBLIC_PARAMETERS = {
    "algebra.Poly2": (),
    "algebra.Poly2.from_coeffs": ("coeffs",),
    "algebra.Poly2.terms": ("self",),
    "algebra.Poly2.to_records": ("self",),
    "algebra.GammaVector": ("n", "gammas"),
    "algebra.GammaVector.as_strings": ("self",),
    "algebra.h_from_f": ("p",),
    "algebra.gamma_from_h": ("p",),
    "buildingset.Graph": ("adj",),
    "buildingset.complete_graph": ("n",),
    "buildingset.empty_graph": ("n",),
    "buildingset.path_graph": ("n",),
    "buildingset.cycle_graph": ("n",),
    "buildingset.star_graph": ("leaves",),
    "buildingset.bipartite_graph": ("m", "n"),
    "buildingset.join_graphs": ("a", "b"),
    "buildingset.graph_from_edges": ("n", "pairs"),
    "buildingset.twin_classes": ("g",),
    "buildingset.parse_graph_spec": ("spec",),
    "buildingset.graph_spec": ("g",),
    "invariants.gal_check_poly": ("p", "n"),
    "invariants.gal_check_graph": ("g",),
    "invariants.gal_check_series": ("fam", "order"),
    "invariants.gal_check_classes": ("n",),
    "invariants.verify_series": ("fams", "order"),
    "ringcalc.FPolyCache.lookup": ("self", "key", "default"),
    "ringcalc.FPolyCache.store": ("self", "key", "value"),
    "ringcalc.class_face_counts": ("n",),
    "ringcalc.fpoly": ("g",),
    "ringcalc.induced_fpolys": ("g", "masks", "cache"),
    "series.Series2": ("order", "offset", "coeffs", "bounds", "width"),
    "series.Series2.monomial": ("order", "k", "l"),
    "series.Series2.coeff": ("self", "k", "l"),
    "series.Series2.items": ("self",),
    "series.exp_series": ("p", "order"),
    "series.inv_series": ("s",),
    "series.eta_linear": ("order",),
    "series.deriv_x": ("s",),
    "series.deriv_y": ("s",),
    "series.deriv_t": ("s",),
    "series.swap_xy": ("s",),
    "series.truncate": ("s", "order"),
    "series.first_mismatch": ("a", "b"),
    "series.FamilySpec": ("id", "offset", "member", "graph_at", "nodes_at"),
    "series.FamilySpec.dim": ("self", "k", "l"),
    "series.FamilySpec.indices": ("self", "bound"),
    "series.family_f": ("fam", "order"),
    "series.identity_suite": ("order", "corrupt"),
}


def _public_parameters() -> dict[str, tuple[str, ...]]:
    """Each public function and class of a layer, and each public method of
    such a class, by ``layer.name``, with its parameter names.  A class
    whose constructor is a builtin's with no signature (an exception,
    ``FPolyCache``) is named by its public methods only."""
    found = {}
    for layer in LAYERS:
        prefix = layer.__name__.rpartition(".")[2]
        for name in layer.__all__:
            obj = getattr(layer, name)
            if not callable(obj):
                continue
            members = [(name, obj)]
            if isinstance(obj, type):
                members += [
                    (f"{name}.{attr}", getattr(obj, attr))
                    for attr in vars(obj)
                    if not attr.startswith("_") and callable(getattr(obj, attr))
                ]
            for label, member in members:
                try:
                    found[f"{prefix}.{label}"] = tuple(inspect.signature(member).parameters)
                except ValueError:
                    pass
    return found


def test_the_public_signatures_are_pinned() -> None:
    assert _public_parameters() == PUBLIC_PARAMETERS

"""The package root: one public surface, re-exported from the layers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import nestohedra
from nestohedra import algebra, buildingset, invariants, ringcalc, series

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

"""Exact face enumeration for nestohedra of graphs.

The package computes face, h- and gamma-polynomials of nestohedra built
from graphical building sets, both by the nested-set recursion and from
closed-form generating functions, and cross-checks the two routes
against each other.  The root re-exports each library layer's public
names; the command line, ``nestohedra.cli``, is left out so that the
library does not load its output modules.
"""

from . import algebra, buildingset, invariants, ringcalc, series
from .algebra import *  # noqa: F401,F403
from .buildingset import *  # noqa: F401,F403
from .invariants import *  # noqa: F401,F403
from .ringcalc import *  # noqa: F401,F403
from .series import *  # noqa: F401,F403

__all__ = [
    *algebra.__all__,
    *buildingset.__all__,
    *invariants.__all__,
    *ringcalc.__all__,
    *series.__all__,
]

__version__ = "0.1.0"

"""Exact face enumeration for nestohedra of graphs.

The package computes face, h- and gamma-polynomials of nestohedra built
from graphical building sets, both by the nested-set recursion and from
closed-form generating functions, and cross-checks the two routes
against each other.
"""

from .algebra import (
    GammaVector,
    InhomogeneousError,
    Poly2,
    gamma_from_h,
    h_from_f,
    homogeneous_degree,
    is_symmetric,
)
from .buildingset import (
    Graph,
    GraphSpecError,
    bipartite_graph,
    complete_graph,
    connected_graphs_upto_iso,
    cycle_graph,
    empty_graph,
    graph_from_edges,
    graph_spec,
    induced_subgraph,
    join_graphs,
    parse_graph_spec,
    path_graph,
    star_graph,
)
from .invariants import (
    GalPolyResult,
    dehn_sommerville,
    euler_relation_holds,
    fvector,
    gal_check_poly,
    gal_check_series,
    gamma,
    hpoly,
)
from .ringcalc import FPolyCache, fpoly
from .series import (
    DEFAULT_ORDER,
    FAMILIES,
    FamilySpec,
    IdentityResult,
    NotInFamilyError,
    Series2,
    coeff_normalized,
    eta_linear,
    exp_series,
    family_f,
    family_h,
    first_mismatch,
    identity_suite,
    inv_series,
    pe_f_xplusy,
    phi_h,
    subst_h_series,
    swap_xy,
    truncate,
)

__version__ = "0.1.0"

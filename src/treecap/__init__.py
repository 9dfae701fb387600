"""Capacities of dyadic-tree boundary sets and of the matching disc condensers.

The tree side is exact: closed boundary sets are canonical tries, capacity
follows the merge recursion c = s / (1 + s), and condenser capacities at a cut
level are sums of subtree capacities.  The disc side minimizes the Dirichlet
integral on a graded polar grid to produce the comparable plane condenser
values.  A CLI (`treecap`) packages the constructions and the named
experiments around them.
"""

from .tree import (
    BoundarySet,
    VertexId,
    boundary_rho,
    confluent,
    prefix_set,
    rho,
)
from .capacity import (
    EquilibriumMeasure,
    FluxTable,
    brute_force_capacity,
    capacity,
    condenser_capacity,
    energy,
    equilibrium_measure,
    extremal,
)
from .builder import (
    SplitFamily,
    calibrated_set,
    cantor_set,
    equal_split,
    lower_bound,
    lower_bound_gap_form,
    plateau_bound,
    psi,
    psi_iterate,
    random_boundary_set,
    set_of_capacity,
    split_levels,
)
from .errors import (
    CalibrationError,
    ConvergenceError,
    DegenerateSetError,
    MisalignedArcError,
    ResolutionError,
    SetSpecError,
    ToleranceError,
    TreecapError,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySet",
    "VertexId",
    "boundary_rho",
    "confluent",
    "prefix_set",
    "rho",
    "EquilibriumMeasure",
    "FluxTable",
    "brute_force_capacity",
    "capacity",
    "condenser_capacity",
    "energy",
    "equilibrium_measure",
    "extremal",
    "SplitFamily",
    "calibrated_set",
    "cantor_set",
    "equal_split",
    "lower_bound",
    "lower_bound_gap_form",
    "plateau_bound",
    "psi",
    "psi_iterate",
    "random_boundary_set",
    "set_of_capacity",
    "split_levels",
    "CalibrationError",
    "ConvergenceError",
    "DegenerateSetError",
    "MisalignedArcError",
    "ResolutionError",
    "SetSpecError",
    "ToleranceError",
    "TreecapError",
    "__version__",
]

"""Exact workbench for twisted group rings over finite-field towers.

Builds towers GF(q) <= GF(q^p) <= GF(q^(p^2)) <= ..., lets a rank-n free
abelian group act through p-adic Frobenius exponents, and provides exact
arithmetic and structural experiments in the resulting twisted group rings:
center lattices and free-module decompositions, support-shrinking
simplicity certificates, standard polynomial identity testing, growth
measurement, and division-ring arithmetic via central fractions.
"""

__version__ = "0.1.0"

from .action import (
    ActionConfig,
    PAdicExponent,
    action_exponent,
    default_action,
    independence_certificate,
    least_certified_level,
    restriction_order,
    truncate,
)
from .center import (
    FreeBasis,
    KernelLattice,
    decompose_over_center,
    free_basis,
    is_central,
    is_central_structural,
    kernel_lattice,
    recompose,
)
from .errors import (
    BudgetError,
    ContextMismatchError,
    IndependenceError,
    InternalFaultError,
    NotAUnitError,
    SeparationError,
    TwistlabError,
)
from .growth import GrowthTable, GKEstimate, gk_estimate, growth_table
from .pi import PIReport, pi_degree_scan, standard_polynomial, test_identity
from .quotient import (
    CentralFraction,
    LaurentPoly,
    center_of_quotient_test,
    invert,
    regular_representation,
)
from .ring import RingContext, RingElement, parse_element
from .simplicity import (
    ShrinkStep,
    ShrinkTrace,
    replay_trace,
    separating_level,
    unit_in_ideal,
)
from .tower import (
    FieldElement,
    Tower,
    TowerConfig,
    TowerLevel,
    build_tower,
    tower_from_json,
    tower_to_json,
)

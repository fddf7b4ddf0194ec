"""Exact tools for seed-matrix limit groups and their projective invariants.

The package computes with the family of block-unipotent groups attached to
rational seed matrices: building group elements, classifying projective
orbits, deciding conjugacy through generalized cross ratios of dual point
configurations, tracing the numerical degeneration of the diagonal group onto
a seed group, testing the flatness and rank-one obstructions, and verifying
the closed-form dimension bounds.
"""

__version__ = "0.1.0"

from .bounds import BoundsReport, best_integer_split, dim_T, g_value, lower_bound, upper_bound, verify_bounds
from .converge import ConvergenceTrace, build_Pr, conjugated_element, convergence_report, diagonal_for_target
from .exactq import QMatrix, det, format_rational, inverse, parse_rational, rank, rational
from .limits import (
    GroupElementParams,
    OrbitClass,
    OrbitKind,
    SeedMatrix,
    alpha_conjugacy_class,
    alpha_orbit,
    alpha_seed,
    are_conjugate,
    conjugate_seed,
    element_params,
    exceptional_dual_basis,
    group_action,
    normalized_slice_member,
    orbit_dimension,
    rho,
    seed_conjugator,
)
from .obstruct import (
    FlatnessReport,
    LinearBlockFamily,
    Poly,
    PolyParamGroup,
    TierOneResult,
    TierReport,
    builtin_block_family,
    builtin_group,
    flag_tier_profile,
    flatness_check,
    has_tier_one_element,
    replay_certificate,
    tier,
)
from .projgeo import (
    AugmentedBasis,
    CrossRatioTuple,
    ProjPoint,
    ProjTransform,
    UnorderedCrossRatio,
    basis_transform,
    ordered_cross_ratio,
    projectively_equivalent,
    unordered_cross_ratio,
)

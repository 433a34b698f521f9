"""Ramification structures on finite groups.

A finite-group engine, the invariants controlling the existence of
(unmixed) ramification structures, constructive procedures for producing
them, closed-form predictions of their admissible sizes, and an exhaustive
search oracle that cross-validates the predictions on small groups.
"""

__version__ = "0.1.0"

from .bitset import ElementSet
from .constructors import (
    ConstructResult,
    construct_any,
    elementary_abelian_structure,
    extend_rank,
    extend_size,
    exponent_p_structure,
    lift_structure_mod_omega,
    lift_tuple,
    omega_context,
    pad_from_beauville,
    product_combine,
    product_project,
    project_mod_omega,
    semi_abelian_2group_odd_odd,
)
from .groups import (
    AbelianGroup,
    CayleyTableGroup,
    DirectProductGroup,
    FiniteGroup,
    HeisenbergGroup,
    QuotientView,
    direct_product,
    quotient,
)
from .invariants import (
    PGroupProfile,
    agemo,
    classify_pgroup,
    derived_subgroup,
    exponent,
    frattini,
    is_semi_abelian,
    min_generators,
    omega,
    pgroup_profile,
    power_image,
    power_map,
    sylow_decomposition,
    torsion_set,
)
from .oracle import (
    FindOutcome,
    SearchBudget,
    SizeSetResult,
    enumerate_spherical,
    enumerate_structures,
    find_structure,
    size_set_up_to,
)
from .parsing import (
    build_group,
    parse_element,
    parse_tuple,
    render_element,
    render_tuple,
)
from .structures import (
    GenTuple,
    RamFailure,
    RamStructure,
    are_disjoint,
    check_ramification,
    is_spherical_system,
    sigma,
    validated,
)
from .theory import (
    SizeConstraintSet,
    predict_elementary_abelian,
    predict_exponent_p,
    predict_nilpotent,
    predict_semi_abelian_pgroup,
    semi_abelian_clauses,
)

__all__ = [name for name in dir() if not name.startswith("_")]

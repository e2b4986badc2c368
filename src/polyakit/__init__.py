"""Verification toolkit for class-group generation by split-prime
products: an exact permutation-group engine for the group-theoretic
criterion, and exact cubic-field arithmetic for its consequences."""

from .abelian import AbelianGroupSNF, Subgroup
from .artin import (
    SplittingType,
    chebotarev_densities,
    densities_to_json,
    pi_class,
    splitting_from_frobenius,
    total_class,
)
from .classgroup import (
    ClassGroupData,
    OstrowskiReport,
    PolyaReport,
    PolyaResult,
    class_group,
    ostrowski_check,
    ostrowski_report,
    pi_class_map,
    polya_group,
    prime_class_vector,
    verify_main_theorem,
)
from .cubicfield import (
    ClassGroupInconclusiveError,
    CubicPoly,
    IntegralIdeal,
    MaximalOrder,
    PrimeIdeal,
    ReduciblePolynomialError,
    SearchBudgetExceededError,
    element_ideal,
    factor_prime,
    ideal_equal,
    ideal_product,
    is_principal,
    maximal_order,
    minkowski_bound,
    parse_cubic,
    pi_ideal,
    splitting_census,
)
from .permgroup import (
    Abelianization,
    ConditionReport,
    CosetAction,
    GroupTooLargeError,
    Perm,
    PermGroup,
    abelianization,
    alternating_group,
    check_condition_2B,
    compute_T,
    compute_T_conjugacy,
    coset_action,
    cycle_structure,
    cyclic_group,
    derived_subgroup,
    dihedral_group,
    family_group,
    frobenius_20,
    group_closure,
    is_2transitive,
    is_frobenius,
    normal_core,
    parse_group_file,
    parse_perm,
    point_stabilizer,
    symmetric_group,
)

__version__ = "0.1.0"

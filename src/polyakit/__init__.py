"""Verification toolkit for class-group generation by split-prime
products: an exact permutation-group engine for the group-theoretic
criterion, and exact cubic-field arithmetic for its consequences."""

from .abelian import AbelianGroupSNF, Subgroup
from .artin import SplittingType, chebotarev_densities, splitting_from_frobenius
from .classgroup import (
    ClassGroupData,
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
    splitting_types,
)
from .permgroup import (
    Abelianization,
    ConditionReport,
    CosetAction,
    GroupTooLargeError,
    PermGroup,
    abelianization,
    check_condition_2B,
    compute_T,
    compose,
    coset_action,
    cycle_structure,
    cycles,
    derived_subgroup,
    family_group,
    from_cycles,
    group_closure,
    identity,
    inverse,
    is_2transitive,
    is_frobenius,
    parse_group_file,
    parse_perm,
    perm,
    point_stabilizer,
)

__version__ = "0.1.0"

"""Exact-arithmetic toolkit for Hopf-algebra quantum symmetries: coefficient
condition checkers, cocyclic modules, Hochschild/cyclic cohomology at small
degree, and cup products on crossed products."""

from .fields import GF, QQ, FieldError
from .groups import (
    ExactFactorization,
    Group,
    cyclic_group,
    direct_product,
    symmetric_group,
    trivial_group,
)
from .linalg import (
    Chain,
    LinMap,
    Space,
    Vector,
    identity,
    kernel_basis,
    leg_permutation,
    membership,
    rank,
    tensor_power,
    tensor_space,
    unit_space,
)
from .hopf import (
    BicrossedProduct,
    Character,
    GroupLike,
    HopfAlgebra,
    StructureError,
    bicrossed_product,
    check_modular_pair,
    co_opposite,
    counit_character,
    enumerate_characters,
    enumerate_group_likes,
    function_hopf,
    group_algebra,
    sweedler_h4,
    trivial_hopf,
    twisted_antipode,
    unit_group_like,
    verify_hopf,
)
from .symmetries import (
    ComoduleAlgebra,
    ComoduleCoalgebra,
    ModuleAlgebra,
    ModuleComodule,
    adjoint_comodule_coalgebra,
    adjoint_module_algebra,
    as_left_comodule_algebra,
    as_right_comodule_algebra,
    bicrossed_function_comodule_algebra,
    bicrossed_group_comodule_coalgebra,
    check_cocommutative_coaction_algebra,
    check_cocommutative_coaction_coalgebra,
    check_commutative_coaction_algebra,
    check_commutative_coaction_coalgebra,
    check_involution_over_algebra,
    check_involution_over_coalgebra,
    check_sayd,
    check_sayd_over_algebra,
    check_sayd_over_coalgebra,
    colinear_hom_space,
    comult_comodule_coalgebra,
    dual_carrier,
    regular_comodule_algebra,
    scalar_coefficients,
    stable_subalgebra,
    translation_module_algebra,
    trivial_comodule_algebra,
    trivial_comodule_coalgebra,
)
from .cocyclic import (
    CocyclicConstructionError,
    CocyclicModule,
    build_comodule_algebra_complex,
    build_comodule_coalgebra_complex,
    build_module_algebra_complex,
    check_hcc,
    verify_cocyclic_identities,
)
from .cohomology import (
    CohomologyTable,
    connes_boundary,
    cyclic_dims,
    differential_identities,
    hochschild_coboundary,
    hochschild_dims,
    trace_space_dimension,
)
from .cup import (
    CrossedPairing,
    CrossedProductAlgebra,
    classical_complex,
)
from .results import CheckResult, Witness

__version__ = "0.1.0"

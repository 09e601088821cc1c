"""Coefficient-condition checkers and carrier constructions."""

import pytest

from hopfcyc import (
    Character,
    GroupLike,
    StructureError,
    adjoint_comodule_coalgebra,
    as_left_comodule_algebra,
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
    co_opposite,
    colinear_hom_space,
    comult_comodule_coalgebra,
    counit_character,
    dual_carrier,
    group_algebra,
    membership,
    regular_comodule_algebra,
    scalar_coefficients,
    stable_subalgebra,
    cyclic_group,
    trivial_comodule_algebra,
    trivial_comodule_coalgebra,
    unit_group_like,
)
from hopfcyc.symmetries import (
    regular_coaction_trivial_action,
    regular_action_trivial_coaction,
    trivial_coaction_module,
)


class TestClassicalSayd:
    def test_trivial_coefficients_over_group_algebra(self, KZ2):
        M = scalar_coefficients(KZ2, counit_character(KZ2), unit_group_like(KZ2))
        assert check_sayd(M)

    def test_trivial_coefficients_fail_over_sweedler(self, H4, H4_eps, H4_one):
        M = scalar_coefficients(H4, H4_eps, H4_one)
        res = check_sayd(M)
        assert not res.passed
        # witness at h=x: one side 0, the other 2x⊗m
        assert "x" in res.witness.location
        assert res.lhs_vector is not None and res.rhs_vector is not None
        assert res.lhs_vector != res.rhs_vector

    def test_sweedler_sign_and_g_coefficients_pass(self, H4, H4_eps, H4_g, H4_sgn, H4_one):
        assert check_sayd(scalar_coefficients(H4, H4_eps, H4_g))
        assert check_sayd(scalar_coefficients(H4, H4_sgn, H4_one))

    def test_modular_pair_gate(self, H4, H4_sgn, H4_g):
        with pytest.raises(StructureError):
            scalar_coefficients(H4, H4_sgn, H4_g)  # δ(σ) = −1

    def test_action_matrix_is_character_row(self, H4, H4_sgn, H4_one):
        M = scalar_coefficients(H4, H4_sgn, H4_one)
        row = {c: v for (_, c), v in M.action.entries.items()}
        want = {c: v for (_, c), v in H4_sgn.delta.entries.items()}
        assert row == want


class TestColinearHom:
    def test_trivial_everything_is_one_dimensional(self, trivial_instance):
        _, A, M = trivial_instance
        for n in range(3):
            assert colinear_hom_space(A, M, n).dim == 1

    def test_group_like_mismatch_kills_maps(self, H4, H4_eps, H4_g):
        A = trivial_comodule_algebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_g)
        assert colinear_hom_space(A, M, 0).dim == 0

    def test_regular_carrier_weight_space(self, KZ2):
        A = regular_comodule_algebra(KZ2)
        M = scalar_coefficients(KZ2, counit_character(KZ2), unit_group_like(KZ2))
        assert colinear_hom_space(A, M, 0).dim == 1

    def test_dims_scale_with_group(self, KS3):
        A = regular_comodule_algebra(KS3)
        M = scalar_coefficients(KS3, counit_character(KS3), unit_group_like(KS3))
        # maps supported on tuples with product 1: 6^n of them in degree n
        assert colinear_hom_space(A, M, 0).dim == 1
        assert colinear_hom_space(A, M, 1).dim == 6
        assert colinear_hom_space(A, M, 2).dim == 36

    def test_degree_four_regular_action(self, KS3):
        # 46,656 unknowns, 77,760 one-entry rows: desk-scale only when the
        # elimination cost follows the fill rather than rank²
        A = regular_comodule_algebra(KS3)
        M = regular_action_trivial_coaction(KS3)
        sub = colinear_hom_space(A, M, 4)
        assert sub.ambient.dim == 46_656
        assert sub.dim == 7_776


def cotensor_space(C, M, n):
    """C^{⊗(n+1)} □_H M, the colinear maps over C* with the value leg last."""
    return colinear_hom_space(dual_carrier(C), M, n, value_last=True)


class TestCotensor:
    def test_regular_comodule_gives_dim_m(self, H4, H4_eps, H4_g, KZ2):
        # C = H with the comultiplication coaction: H □ M ≅ M
        for H, sigma in [(KZ2, unit_group_like(KZ2)), (H4, H4_g)]:
            C = comult_comodule_coalgebra(H)
            M = scalar_coefficients(H, counit_character(H), sigma)
            assert cotensor_space(C, M, 0).dim == M.dim
        M4 = regular_coaction_trivial_action(H4)
        assert cotensor_space(comult_comodule_coalgebra(H4), M4, 0).dim == M4.dim

    def test_trivial_coaction_gives_coinvariants(self, KZ2):
        C = trivial_comodule_coalgebra(KZ2)
        M = scalar_coefficients(KZ2, counit_character(KZ2), unit_group_like(KZ2))
        assert cotensor_space(C, M, 0).dim == 1

    def test_kernel_vectors_satisfy_equalizer(self, H4, H4_eps, H4_g):
        C = adjoint_comodule_coalgebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_g)
        sub = cotensor_space(C, M, 1)
        from chain_oracle import diag_right_coaction
        from hopfcyc.linalg import Chain

        Cs, Hs, Ms = C.space, H4.space, M.space
        legs = [Cs, Cs, Ms]
        rho = diag_right_coaction(C, 2)
        left = Chain(legs).apply(rho, 0, 2, [Cs, Cs, Hs]).to_map()
        right = Chain(legs).apply(M.coaction, 2, 1, [Hs, Ms]).to_map()
        for v in sub.basis:
            assert (left - right).apply(v).is_zero()


class TestInvolution:
    def test_group_algebra_counit_unit(self, KZ2):
        A = regular_comodule_algebra(KZ2)
        assert check_involution_over_algebra(
            A, counit_character(KZ2), unit_group_like(KZ2))

    def test_sweedler_conjugation_pair(self, H4, H4_eps, H4_g, H4_one):
        A = regular_comodule_algebra(H4)
        assert check_involution_over_algebra(A, H4_eps, H4_g)
        res = check_involution_over_algebra(A, H4_eps, H4_one)
        assert not res.passed and "x" in res.witness.location

    def test_coalgebra_side(self, H4, H4_eps, H4_g, H4_one, KZ3):
        C = comult_comodule_coalgebra(H4)
        assert check_involution_over_coalgebra(C, H4_eps, H4_g)
        res = check_involution_over_coalgebra(C, H4_eps, H4_one)
        assert not res.passed and "x" in res.witness.location
        C3 = comult_comodule_coalgebra(KZ3)
        assert check_involution_over_coalgebra(
            C3, counit_character(KZ3), unit_group_like(KZ3))


class TestStableSubalgebra:
    def test_sweedler_kernel_is_span_1_g(self, H4, H4_eps, H4_one):
        A = regular_comodule_algebra(H4)
        B = stable_subalgebra(A, H4_eps, H4_one)
        assert B.dim == 2
        ok1, _ = membership(H4.space.basis_vector(0), B.embedding)
        okg, _ = membership(H4.space.basis_vector(1), B.embedding)
        okx, _ = membership(H4.space.basis_vector(2), B.embedding)
        assert ok1 and okg and not okx

    def test_subalgebra_passes_involution_and_carrier_sayd(self, H4, H4_eps, H4_one):
        A = regular_comodule_algebra(H4)
        B = stable_subalgebra(A, H4_eps, H4_one)
        assert check_involution_over_algebra(B, H4_eps, H4_one)
        M = scalar_coefficients(H4, H4_eps, H4_one)
        assert check_sayd_over_algebra(B, M, n_max=2)

    def test_unit_always_inside(self, KS3):
        A = regular_comodule_algebra(KS3)
        B = stable_subalgebra(A, counit_character(KS3), unit_group_like(KS3))
        ok, _ = membership(KS3.unit, B.embedding)
        assert ok

    def test_involutive_case_recovers_carrier(self, H4, H4_eps, H4_g):
        A = regular_comodule_algebra(H4)
        B = stable_subalgebra(A, H4_eps, H4_g)
        assert B.dim == A.dim


class TestCarrierSayd:
    def test_classical_sayd_is_carrier_sayd(self, H4, H4_eps, H4_g):
        # the inclusion remark, executed over two carriers
        M = scalar_coefficients(H4, H4_eps, H4_g)
        assert check_sayd(M)
        for A in (regular_comodule_algebra(H4), trivial_comodule_algebra(H4)):
            assert check_sayd_over_algebra(A, M, n_max=2)

    def test_involution_lemma_on_sweedler(self, H4, H4_sgn, H4_one):
        A = regular_comodule_algebra(H4)
        assert check_involution_over_algebra(A, H4_sgn, H4_one)
        M = scalar_coefficients(H4, H4_sgn, H4_one)
        assert check_sayd_over_algebra(A, M, n_max=2)

    def test_failure_carries_divergent_witness(self, H4, H4_eps, H4_one):
        A = regular_comodule_algebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_one)
        res = check_sayd_over_algebra(A, M, n_max=1)
        assert not res.passed
        assert res.lhs_vector != res.rhs_vector

    def test_coalgebra_mirror(self, H4, H4_eps, H4_g, H4_one):
        C = adjoint_comodule_coalgebra(H4)
        good = scalar_coefficients(H4, H4_eps, H4_g)
        assert check_sayd(good)
        assert check_sayd_over_coalgebra(C, good, n_max=2)
        bad = scalar_coefficients(H4, H4_eps, H4_one)
        res = check_sayd_over_coalgebra(C, bad, n_max=1)
        assert not res.passed


class TestCoactionCommutativity:
    def test_commutative_hopf_always_commutes(self):
        from hopfcyc import function_hopf, symmetric_group

        F = function_hopf(symmetric_group(3))
        A = regular_comodule_algebra(F)
        assert check_commutative_coaction_algebra(A)

    def test_sym3_coaction_f2_commutes_f3_does_not(self, bicrossed_f2, bicrossed_f3):
        F2 = as_left_comodule_algebra(bicrossed_function_comodule_algebra(bicrossed_f2))
        assert check_commutative_coaction_algebra(F2, n_max=2)
        F3 = as_left_comodule_algebra(bicrossed_function_comodule_algebra(bicrossed_f3))
        res = check_commutative_coaction_algebra(F3)
        assert not res.passed and res.witness is not None

    def test_sym3_coaction_is_cocommutative_both_ways(self, bicrossed_f2, bicrossed_f3):
        for B in (bicrossed_f2, bicrossed_f3):
            F = as_left_comodule_algebra(bicrossed_function_comodule_algebra(B))
            assert check_cocommutative_coaction_algebra(F, n_max=2)

    def test_regular_carrier_over_kS3_not_cocommutative(self, KS3):
        A = regular_comodule_algebra(KS3)
        res = check_cocommutative_coaction_algebra(A, n_max=1)
        assert not res.passed

    def test_bicrossed_regular_carrier_fails_cocommutativity(self, bicrossed_f3):
        A = regular_comodule_algebra(bicrossed_f3.hopf)
        res = check_cocommutative_coaction_algebra(A, n_max=1)
        assert not res.passed

    def test_coalgebra_side_com7(self, bicrossed_f2, KS3):
        U = bicrossed_group_comodule_coalgebra(bicrossed_f2)
        assert check_commutative_coaction_coalgebra(U)
        assert check_cocommutative_coaction_coalgebra(U, n_max=2)
        C = comult_comodule_coalgebra(KS3)
        assert not check_commutative_coaction_coalgebra(C).passed
        assert not check_cocommutative_coaction_coalgebra(C, n_max=1).passed

    def test_commutative_coaction_lemma_executes(self, bicrossed_f2):
        # trivial-action comodules become carrier-SAYD on both sides
        Hcop = co_opposite(bicrossed_f2.hopf)
        F = as_left_comodule_algebra(bicrossed_function_comodule_algebra(bicrossed_f2), Hcop)
        assert check_commutative_coaction_algebra(F)
        M = regular_coaction_trivial_action(Hcop)
        assert check_sayd_over_algebra(F, M, n_max=2)
        U = bicrossed_group_comodule_coalgebra(bicrossed_f2)
        assert check_commutative_coaction_coalgebra(U)
        M2 = regular_coaction_trivial_action(bicrossed_f2.hopf)
        assert check_sayd_over_coalgebra(U, M2, n_max=2)


def test_degree_cap_guard(KS3):
    from hopfcyc.symmetries import DegreeCapError

    A = regular_comodule_algebra(KS3)
    M = scalar_coefficients(KS3, counit_character(KS3), unit_group_like(KS3))
    with pytest.raises(DegreeCapError):
        colinear_hom_space(A, M, 7)  # 6^8 unknowns is far beyond the cap


class TestBicrossedCarriers:
    def test_function_factor_axioms(self, bicrossed_f3):
        A = bicrossed_function_comodule_algebra(bicrossed_f3)
        assert A.dim == 3 and A.side == "right"
        assert A.verify()

    def test_counit_leg_recovers_identity(self, bicrossed_f3):
        A = bicrossed_function_comodule_algebra(bicrossed_f3)
        from hopfcyc.linalg import Chain, identity as ident

        H = bicrossed_f3.hopf
        out = (Chain([A.space])
               .apply(A.coaction, 0, 1, [A.space, H.space])
               .apply(H.counit, 1, 1, [])
               .to_map())
        assert out == ident(A.space)

    def test_group_factor_axioms(self, bicrossed_f3, bicrossed_f2):
        C1 = bicrossed_group_comodule_coalgebra(bicrossed_f3)
        assert C1.dim == 2
        C2 = bicrossed_group_comodule_coalgebra(bicrossed_f2)
        assert C2.dim == 3
        # group-likes coact through group-like tensor legs
        for C, B in ((C1, bicrossed_f3), (C2, bicrossed_f2)):
            for (r, c), v in C.coaction.entries.items():
                assert v == C.space.field.one

    def test_trivial_function_factor_gives_trivial_coaction(self):
        from hopfcyc import bicrossed_product, direct_product

        g = direct_product(cyclic_group(2), cyclic_group(2))
        B = bicrossed_product(g, ["(e,e)", "(t,e)"], ["(e,e)", "(e,t)"])
        U = bicrossed_group_comodule_coalgebra(B)
        # coaction u ↦ u ⊗ (unit-ish leg): every U basis element maps to
        # exactly one tensor term with H-leg inside the function factor span
        H = B.hopf
        from hopfcyc.linalg import Chain

        out = (Chain([U.space])
               .apply(U.coaction, 0, 1, [U.space, H.space])
               .apply(H.counit, 1, 1, [])
               .to_map())
        from hopfcyc.linalg import identity as ident

        assert out == ident(U.space)

    def test_side_conversion_round_trip(self, bicrossed_f2):
        from hopfcyc import as_right_comodule_algebra

        A = bicrossed_function_comodule_algebra(bicrossed_f2)
        left = as_left_comodule_algebra(A)
        assert left.side == "left"
        back = as_right_comodule_algebra(left, hopf_cop=bicrossed_f2.hopf)
        assert back.coaction == A.coaction

"""Complex builders, the identity verifier, and the HCC decision procedure."""

import pytest

from hopfcyc import (
    CocyclicConstructionError,
    adjoint_comodule_coalgebra,
    adjoint_module_algebra,
    build_comodule_algebra_complex,
    build_comodule_coalgebra_complex,
    build_module_algebra_complex,
    check_hcc,
    check_sayd,
    colinear_hom_space,
    counit_character,
    cyclic_group,
    group_algebra,
    identity,
    regular_comodule_algebra,
    scalar_coefficients,
    translation_module_algebra,
    trivial_hopf,
    unit_group_like,
    verify_cocyclic_identities,
)
from hopfcyc.cocyclic import CocyclicModule
from hopfcyc.symmetries import (
    regular_action_trivial_coaction,
    regular_coaction_trivial_action,
    trivial_coaction_module,
    trivial_comodule_algebra,
)


class TestComoduleAlgebraComplex:
    def test_trivial_ladder(self, trivial_instance):
        _, A, M = trivial_instance
        X = build_comodule_algebra_complex(A, M, 3)
        assert X.dims() == [1, 1, 1, 1]
        for n in range(4):
            assert X.tau(n) == identity(X.spaces[n])
        assert verify_cocyclic_identities(X)

    def test_kz2_regular(self, KZ2):
        A = regular_comodule_algebra(KZ2)
        M = scalar_coefficients(KZ2, counit_character(KZ2), unit_group_like(KZ2))
        X = build_comodule_algebra_complex(A, M, 3)
        assert verify_cocyclic_identities(X)
        # degree-n dimensions match an independent recomputation
        for n in range(4):
            assert X.spaces[n].dim == colinear_hom_space(A, M, n).dim

    def test_sweedler_regular_with_group_like_twist(self, H4, H4_eps, H4_g):
        A = regular_comodule_algebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_g)
        X = build_comodule_algebra_complex(A, M, 3)
        assert X.dims() == [1, 4, 16, 64]
        assert verify_cocyclic_identities(X)

    def test_corrupted_cyclic_operator_detected(self, KZ3):
        A = regular_comodule_algebra(KZ3)
        M = scalar_coefficients(KZ3, counit_character(KZ3), unit_group_like(KZ3))
        X = build_comodule_algebra_complex(A, M, 2)
        assert X.tau(1) != identity(X.spaces[1])  # genuinely nontrivial
        corrupted = CocyclicModule(
            X.kind, X.field, X.max_degree, X.spaces, X.cofaces,
            X.codegeneracies,
            {**X.cyclic, 1: identity(X.spaces[1])},
            X.ambient_descriptions)
        res = verify_cocyclic_identities(corrupted)
        assert not res.passed
        assert "τ_1" in res.condition and res.witness is not None


class TestComoduleCoalgebraComplex:
    def test_trivial_ladder(self):
        from hopfcyc import trivial_comodule_coalgebra

        Hk = trivial_hopf()
        C = trivial_comodule_coalgebra(Hk)
        M = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
        X = build_comodule_coalgebra_complex(C, M, 3)
        assert X.dims() == [1, 1, 1, 1]
        assert verify_cocyclic_identities(X)

    def test_adjoint_carrier_over_sweedler(self, H4, H4_eps, H4_g):
        C = adjoint_comodule_coalgebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_g)
        X = build_comodule_coalgebra_complex(C, M, 3)
        assert verify_cocyclic_identities(X)

    def test_tau_escapes_for_incompatible_coefficient(self, H4, H4_eps, H4_one):
        # the coefficient fails the coalgebra-side SAYD test, and the complex
        # construction reports the membership failure instead of crashing
        C = adjoint_comodule_coalgebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_one)
        res = check_hcc("comodule-coalgebra", C, M, N=2)
        assert not res.passed
        assert res.condition == "well-defined"
        assert res.witness.location == "coface δ_2 of basis element 4 at degree 2"
        assert res.to_dict() == {
            "passed": False, "condition": "well-defined",
            "detail": "operator image escapes the subspace",
            "witness": {
                "location": "coface δ_2 of basis element 4 at degree 2",
                "lhs": "1⊗x⊗x⊗m + 1⊗gx⊗x⊗m + g⊗x⊗gx⊗m + g⊗gx⊗gx⊗m + x⊗x⊗g⊗m"
                       " + x⊗gx⊗g⊗m + gx⊗x⊗1⊗m + gx⊗gx⊗1⊗m",
                "rhs": "an element of the computed subspace"}}

    def test_kz2_adjoint(self, KZ2):
        C = adjoint_comodule_coalgebra(KZ2)
        M = scalar_coefficients(KZ2, counit_character(KZ2), unit_group_like(KZ2))
        X = build_comodule_coalgebra_complex(C, M, 2)
        assert verify_cocyclic_identities(X)


class TestModuleAlgebraComplex:
    def test_classical_reduction(self, KZ2):
        # trivial Hopf symmetry: the classical cyclic cochain complex of kZ2
        from hopfcyc.symmetries import algebra_over_trivial_hopf

        Hk = trivial_hopf()
        A = algebra_over_trivial_hopf(KZ2.space, KZ2.mult, KZ2.unit, Hk)
        M = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
        X = build_module_algebra_complex(A, M, 3)
        assert X.dims() == [2, 4, 8, 16]
        assert verify_cocyclic_identities(X)
        # classical operators: τ on degree 0 is the identity
        assert X.tau(0) == identity(X.spaces[0])

    def test_translation_action_instance(self):
        H, A = translation_module_algebra(cyclic_group(2))
        M = scalar_coefficients(H, counit_character(H), unit_group_like(H))
        X = build_module_algebra_complex(A, M, 3)
        assert verify_cocyclic_identities(X)

    def test_trivial_coefficient_over_trivial_algebra(self):
        from hopfcyc.symmetries import trivial_module_algebra

        Hk = trivial_hopf()
        A = trivial_module_algebra(Hk)
        M = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
        X = build_module_algebra_complex(A, M, 3)
        assert all(d == 1 for d in X.dims())
        assert verify_cocyclic_identities(X)

    def test_incompatible_coefficient_escapes(self, H4, H4_eps, H4_one):
        # the adjoint action with the ε-unit coefficient: the last coface
        # leaves the invariant functionals at degree 2
        A = adjoint_module_algebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_one)
        with pytest.raises(CocyclicConstructionError) as err:
            build_module_algebra_complex(A, M, 2)
        assert err.value.check.condition == "well-defined"
        assert err.value.check.witness.location == "coface δ_2 of basis element 4 at degree 2"
        assert err.value.check.to_dict() == {
            "passed": False, "condition": "well-defined",
            "detail": "operator image escapes the subspace",
            "witness": {
                "location": "coface δ_2 of basis element 4 at degree 2",
                "lhs": "m⊗1⊗x⊗x* + (-1)·m⊗g⊗x⊗gx* + m⊗x⊗x⊗1* + m⊗gx⊗x⊗g*",
                "rhs": "an element of the computed subspace"}}


class TestCheckHcc:
    def test_carrier_sayd_passes(self, H4, H4_eps, H4_g):
        A = regular_comodule_algebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_g)
        assert check_hcc("comodule-algebra", A, M, N=2)

    def test_cocommutative_lemma_gives_hcc(self, bicrossed_f3):
        from hopfcyc import as_left_comodule_algebra, bicrossed_function_comodule_algebra, co_opposite
        from hopfcyc import check_cocommutative_coaction_algebra

        Hcop = co_opposite(bicrossed_f3.hopf)
        F = as_left_comodule_algebra(
            bicrossed_function_comodule_algebra(bicrossed_f3), Hcop)
        assert check_cocommutative_coaction_algebra(F, n_max=2)
        M = trivial_coaction_module(Hcop, Hcop.mult, space=Hcop.space)
        assert check_hcc("comodule-algebra", F, M, N=2)

    def test_incompatible_coefficient_fails_with_witness(self, H4, H4_eps, H4_one):
        A = regular_comodule_algebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_one)
        res = check_hcc("comodule-algebra", A, M, N=2)
        assert not res.passed
        assert res.condition == "well-defined"
        assert res.witness.location == "coface δ_1 of basis element 0 at degree 1"
        assert res.to_dict() == {
            "passed": False, "condition": "well-defined",
            "detail": "operator image escapes the subspace",
            "witness": {
                "location": "coface δ_1 of basis element 0 at degree 1",
                "lhs": "m←1⊗gx + (-1)·m←g⊗x + m←x⊗g + m←gx⊗1",
                "rhs": "an element of the computed subspace"}}

    def test_unknown_flavor_rejected(self, H4, H4_eps, H4_g):
        with pytest.raises(ValueError):
            check_hcc("module-coalgebra", None, None, N=1)


def test_serialization_shape(KZ2):
    A = regular_comodule_algebra(KZ2)
    M = scalar_coefficients(KZ2, counit_character(KZ2), unit_group_like(KZ2))
    X = build_comodule_algebra_complex(A, M, 2)
    d = X.to_dict()
    assert d["kind"] == "comodule-algebra"
    assert [deg["dim"] for deg in d["degrees"]] == X.dims()
    assert set(d["cofaces"]) == {"1", "2"}
    assert all(len(ops) == int(n) + 1 for n, ops in d["cofaces"].items())


@pytest.mark.parametrize("kind", ["comodule-algebra", "comodule-coalgebra", "module-algebra"])
def test_size_cap_trips_at_the_top_degree_before_any_work(kind, monkeypatch):
    # over kZ2 with a 1-dim coefficient degree 17 has 2^18 = 262,144 unknowns,
    # above the cap; degree 16 (131,072) is under it and must not be solved
    from hopfcyc import symmetries
    from hopfcyc.linalg import Chain
    from hopfcyc.symmetries import DegreeCapError

    H, Aact = translation_module_algebra(cyclic_group(2))
    M = scalar_coefficients(H, counit_character(H), unit_group_like(H))
    if kind == "module-algebra":
        build, carrier, what = build_module_algebra_complex, Aact, "invariant functionals"
    elif kind == "comodule-algebra":
        build, carrier, what = (build_comodule_algebra_complex, regular_comodule_algebra(H),
                                "colinear hom space")
    else:
        build, carrier, what = (build_comodule_coalgebra_complex,
                                adjoint_comodule_coalgebra(H), "cotensor space")
    if kind == "module-algebra":
        H.antipode_inverse()  # built before any degree; not part of the count
    walks = []
    materialize = Chain._materialize
    monkeypatch.setattr(Chain, "_materialize",
                        lambda self, *args: walks.append(self) or materialize(self, *args))
    # all three subspaces are solved by symmetries._equalizer
    monkeypatch.setattr(symmetries, "_null_vectors",
                        lambda *args: pytest.fail("a degree was solved"))
    with pytest.raises(DegreeCapError) as err:
        build(carrier, M, 17)
    assert str(err.value) == (
        "%s at degree 17 needs 262144 unknowns, above the configured cap 200000" % what)
    assert walks == []


def test_invariant_functionals_are_size_capped():
    from hopfcyc.cocyclic import invariant_functionals
    from hopfcyc.symmetries import DegreeCapError

    H, Aact = translation_module_algebra(cyclic_group(2))
    M = scalar_coefficients(H, counit_character(H), unit_group_like(H))
    with pytest.raises(DegreeCapError, match="invariant functionals at degree 17 needs 262144"):
        invariant_functionals(Aact, M, 17)
    assert invariant_functionals(Aact, M, 2).dim == 4

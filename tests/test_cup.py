"""Crossed products, the diagonal complex, the pairing map, and cup products."""

from fractions import Fraction

import pytest

from hopfcyc import (
    CrossedPairing,
    StructureError,
    counit_character,
    crossed_product,
    cyclic_group,
    diagonal_complex,
    group_algebra,
    regular_comodule_algebra,
    scalar_coefficients,
    translation_module_algebra,
    trivial_hopf,
    unit_group_like,
    verify_cocyclic_identities,
)
from hopfcyc.cohomology import cyclic_eigenvalue_operator, hochschild_coboundary
from hopfcyc.linalg import SubspaceSolver, Vector, identity, kernel_basis
from hopfcyc.symmetries import (
    algebra_over_trivial_hopf,
    comodule_algebra_over_trivial_hopf,
)
from hopfcyc.corpus import crossed_product_instances

import chain_oracle


@pytest.fixture(scope="module")
def trivial_pairing():
    name, A, B, M = crossed_product_instances()[0]
    return CrossedPairing(A, B, M, N=2)


@pytest.fixture(scope="module")
def twisted_pairing():
    name, A, B, M = crossed_product_instances()[1]
    return CrossedPairing(A, B, M, N=2)


class TestCrossedProduct:
    def test_trivial_hopf_gives_componentwise_product(self):
        _, A, B, _ = crossed_product_instances()[0]
        xp = crossed_product(A, B)
        assert xp.dim == A.dim * B.dim
        # (a⋊b)(a′⋊b′) = aa′⋊bb′ when the coaction is trivial
        d = xp.dim
        for i in range(d):
            for j in range(d):
                ai, bi = divmod(i, B.dim)
                aj, bj = divmod(j, B.dim)
                prod_a = A.mult.column(ai * A.dim + aj)
                prod_b = B.mult.column(bi * B.dim + bj)
                got = xp.mult.column(i * d + j)
                expected = {}
                for x, vx in prod_a.entries.items():
                    for y, vy in prod_b.entries.items():
                        expected[x * B.dim + y] = vx * vy
                assert got.entries == expected

    def test_twisted_instance_associative(self):
        _, A, B, _ = crossed_product_instances()[1]
        xp = crossed_product(A, B)  # constructor verifies all basis triples
        assert xp.dim == 4

    def test_hopf_mismatch_rejected(self, KZ2, KZ3):
        from hopfcyc.symmetries import trivial_module_algebra, trivial_comodule_algebra

        with pytest.raises(StructureError):
            crossed_product(trivial_module_algebra(KZ2),
                            trivial_comodule_algebra(KZ3))


class TestDiagonalComplex:
    def test_trivial_diagonal(self, trivial_pairing):
        X = trivial_pairing.module_side
        D = diagonal_complex(X, X, 2)
        assert D.dims() == [d * d for d in X.dims()[:3]]
        assert verify_cocyclic_identities(D)

    def test_twisted_diagonal_identities(self, twisted_pairing):
        assert verify_cocyclic_identities(twisted_pairing.diagonal)


class TestPairingMap:
    def test_intertwines_all_operators(self, trivial_pairing, twisted_pairing):
        assert trivial_pairing.check_cocyclic_map(2)
        assert twisted_pairing.check_cocyclic_map(2)

    def test_degree_zero_formula(self, twisted_pairing):
        # Ψ(φ⊗ψ)(a⋊b) = φ(ψ(b⟨0⟩) ⊗ S⁻¹(b⟨−1⟩)▷a): expand by hand for the
        # group-like coaction, where b⟨−1⟩ = b and S⁻¹(b) = b⁻¹
        pairing = twisted_pairing
        A, B, M, H = (pairing.action_algebra, pairing.comodule_algebra,
                      pairing.M, pairing.hopf)
        from hopfcyc.cocyclic import invariant_functionals
        from hopfcyc.symmetries import colinear_hom_space

        phis = invariant_functionals(A, M, 0).basis
        psis = colinear_hom_space(B, M, 0).basis
        from hopfcyc.linalg import vector_to_functional, vector_to_linmap

        for phi_vec in phis:
            for psi_vec in psis:
                func = chain_oracle.psi_on_pair(pairing, phi_vec, psi_vec, 0)
                phi = vector_to_functional(
                    phi_vec, invariant_functionals(A, M, 0).domain)
                psi = vector_to_linmap(psi_vec, B.space, M.space)
                d = pairing.crossed.dim
                for col in range(d):
                    ai, bi = divmod(col, B.dim)
                    # b is a group element: coaction leg = b, S⁻¹(b) = b⁻¹
                    expected = Fraction(0)
                    mval = psi.column(bi)
                    binv = 1 - bi if H.dim == 2 and bi == 1 else bi
                    binv = {0: 0, 1: 1}[bi]  # on Z2 every element is its own inverse
                    for m_idx, mv in mval.entries.items():
                        # S⁻¹(b)▷a = translation by b
                        a_img = A.action.column(binv * A.dim + ai)
                        for a_idx, av in a_img.entries.items():
                            expected += mv * av * phi.entries.get(
                                (0, m_idx * A.dim + a_idx), Fraction(0))
                    got = func.entries.get((0, col), Fraction(0))
                    assert got == expected


class TestCup:
    def test_product_of_traces(self, trivial_pairing):
        pairing = trivial_pairing
        X, Y = pairing.module_side, pairing.comodule_side
        # every degree-0 basis functional of the classical complexes is a
        # trace on the commutative factor algebras
        from hopfcyc.cocyclic import invariant_functionals
        from hopfcyc.symmetries import colinear_hom_space

        phis = invariant_functionals(pairing.action_algebra, pairing.M, 0)
        psis = colinear_hom_space(pairing.comodule_algebra, pairing.M, 0)
        A, B = pairing.action_algebra, pairing.comodule_algebra
        for i in range(X.spaces[0].dim):
            for j in range(Y.spaces[0].dim):
                phi = X.spaces[0].basis_vector(i)
                psi = Y.spaces[0].basis_vector(j)
                out, check = pairing.cup(phi, 0, psi, 0)
                assert check.passed
                # expected: the product functional φ(a)ψ(b) on all basis pairs
                from hopfcyc.linalg import vector_to_functional, vector_to_linmap

                phi_f = vector_to_functional(phis.basis[i], phis.domain)
                psi_f = vector_to_linmap(psis.basis[j], B.space, pairing.M.space)
                d = pairing.crossed.dim
                target = pairing.target
                func = {c: v for c, v in out.entries.items()}
                for col in range(d):
                    ai, bi = divmod(col, B.dim)
                    expected = Fraction(0)
                    for m_idx, mv in psi_f.column(bi).entries.items():
                        expected += mv * phi_f.entries.get(
                            (0, m_idx * A.dim + ai), Fraction(0))
                    assert func.get(col, Fraction(0)) == expected

    def test_cup_refuses_non_cocycles(self, trivial_pairing):
        X = trivial_pairing.module_side
        # a functional that is not a cyclic eigenvector at degree 1
        lam = cyclic_eigenvalue_operator(X, 1)
        bad = None
        for i in range(X.spaces[1].dim):
            v = X.spaces[1].basis_vector(i)
            if lam.apply(v) != v:
                bad = v
                break
        assert bad is not None
        psi = trivial_pairing.comodule_side.spaces[0].basis_vector(0)
        with pytest.raises(StructureError):
            trivial_pairing.cup(bad, 1, psi, 0)

    def test_bilinearity(self, trivial_pairing):
        pairing = trivial_pairing
        X, Y = pairing.module_side, pairing.comodule_side
        phi1 = X.spaces[0].basis_vector(0)
        phi2 = X.spaces[0].basis_vector(1)
        psi = Y.spaces[0].basis_vector(0)
        out1, _ = pairing.cup(phi1, 0, psi, 0)
        out2, _ = pairing.cup(phi2, 0, psi, 0)
        out12, _ = pairing.cup(phi1 + phi2, 0, psi, 0)
        assert out12 == out1 + out2

    def test_unit_cocycle_pullback(self, trivial_pairing):
        # cup with the B-side functional ψ₀ reproduces φ weighted by
        # ψ₀(product of the B-legs): verified against a directly built map
        pairing = trivial_pairing
        X, Y = pairing.module_side, pairing.comodule_side
        from hopfcyc.cocyclic import invariant_functionals
        from hopfcyc.symmetries import colinear_hom_space
        from hopfcyc.linalg import vector_to_functional, vector_to_linmap

        A, B = pairing.action_algebra, pairing.comodule_algebra
        phis = invariant_functionals(A, pairing.M, 2)
        psis0 = colinear_hom_space(B, pairing.M, 0)
        # pick a degree-2 cyclic cocycle on the A side
        lam = cyclic_eigenvalue_operator(X, 2)
        b = hochschild_coboundary(X, 2)
        cocycles = [v for v in kernel_basis(lam - identity(X.spaces[2]))
                    if b.apply(v).is_zero()]
        assert cocycles
        phi = cocycles[0]
        psi0 = Y.spaces[0].basis_vector(0)
        out, check = pairing.cup(phi, 2, psi0, 0)
        assert check.passed
        # independent expected value: Ψ(φ ⊗ δ₀²ψ₀) with
        # (δ₀²ψ₀)(b₀,b₁,b₂) = ψ₀(b₀b₁b₂)
        phi_amb = Vector(phis.ambient, {})
        solver_basis = phis.basis
        for j, c in phi.entries.items():
            phi_amb = phi_amb + solver_basis[j].scaled(c)
        phi_f = vector_to_functional(phi_amb, phis.domain)
        psi_f = vector_to_linmap(psis0.basis[0], B.space, pairing.M.space)
        d = pairing.crossed.dim
        got = dict(out.entries)
        import itertools

        for cols in itertools.product(range(d), repeat=3):
            col = (cols[0] * d + cols[1]) * d + cols[2]
            a_idx = [c // B.dim for c in cols]
            b_idx = [c % B.dim for c in cols]
            prod = B.space.basis_vector(b_idx[0])
            for bi in b_idx[1:]:
                step = B.mult.column(list(prod.entries)[0] * B.dim + bi)
                prod = step
            expected = Fraction(0)
            for m_idx, mv in psi_f.apply(prod).entries.items():
                flat = ((m_idx * A.dim + a_idx[0]) * A.dim + a_idx[1]) * A.dim + a_idx[2]
                expected += mv * phi_f.entries.get((0, flat), Fraction(0))
            assert got.get(col, Fraction(0)) == expected

    def test_higher_degree_cups_are_closed(self, twisted_pairing):
        pairing = twisted_pairing
        X, Y = pairing.module_side, pairing.comodule_side
        lam = cyclic_eigenvalue_operator(X, 2)
        b = hochschild_coboundary(X, 2)
        cocycles = [v for v in kernel_basis(lam - identity(X.spaces[2]))
                    if b.apply(v).is_zero()]
        psi = Y.spaces[0].basis_vector(0)
        assert pairing.is_cyclic_cocycle(Y, psi, 0)
        for phi in cocycles:
            out, check = pairing.cup(phi, 2, psi, 0)
            assert check.passed

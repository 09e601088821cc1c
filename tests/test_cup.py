"""Crossed products, the diagonal complex (kept in the oracle), the pairing
map, and cup products."""

from fractions import Fraction

import pytest

from hopfcyc import (
    CrossedPairing,
    CrossedProductAlgebra,
    GroupLike,
    StructureError,
    counit_character,
    cyclic_group,
    group_algebra,
    regular_comodule_algebra,
    scalar_coefficients,
    translation_module_algebra,
    trivial_hopf,
    unit_group_like,
    verify_cocyclic_identities,
)
from hopfcyc.cohomology import cyclic_eigenvalue_operator, hochschild_coboundary
from hopfcyc.linalg import LinMap, Vector, identity, kernel_basis
from hopfcyc.fields import GF, QQ
from hopfcyc.symmetries import (
    adjoint_module_algebra,
    algebra_over_trivial_hopf,
    comodule_algebra_over_trivial_hopf,
)
from hopfcyc.corpus import crossed_product_instances, get_hopf, sweedler_sign_character

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
        xp = CrossedProductAlgebra(A, B)
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
        xp = CrossedProductAlgebra(A, B)  # constructor verifies all basis triples
        assert xp.dim == 4

    def test_hopf_mismatch_rejected(self, KZ2, KZ3):
        from hopfcyc.symmetries import trivial_module_algebra, trivial_comodule_algebra

        with pytest.raises(StructureError):
            CrossedProductAlgebra(trivial_module_algebra(KZ2),
                                  trivial_comodule_algebra(KZ3))


class TestDiagonalComplex:
    def test_trivial_diagonal(self, trivial_pairing):
        X = trivial_pairing.module_side
        D = chain_oracle.diagonal_complex(X, X, 2)
        assert D.dims() == [d * d for d in X.dims()[:3]]
        assert verify_cocyclic_identities(D)

    def test_twisted_diagonal_identities(self, twisted_pairing):
        X, Y = twisted_pairing.module_side, twisted_pairing.comodule_side
        assert verify_cocyclic_identities(
            chain_oracle.diagonal_complex(X, Y, twisted_pairing.N + 1))


def _verdicts_with_one_entry_broken(pairing, N, ops, i, key):
    """``check_cocyclic_map(N)`` and the diagonal oracle's verdict with 1 added
    to entry ``key`` of the target operator ``ops[i]``, restored after."""
    kept = ops[i]
    ops[i] = LinMap(kept.domain, kept.codomain, {**kept.entries, key: kept.entries[key] + 1})
    try:
        return (pairing.check_cocyclic_map(N),
                chain_oracle.check_cocyclic_map_on_diagonal(pairing, N))
    finally:
        ops[i] = kept


class TestPairingMap:
    def test_intertwines_all_operators(self, trivial_pairing, twisted_pairing):
        assert trivial_pairing.check_cocyclic_map(2)
        assert twisted_pairing.check_cocyclic_map(2)

    @pytest.mark.parametrize("slot", ["cofaces[2][1]", "codegeneracies[1][1]", "cyclic[1]"])
    def test_failing_witness_matches_the_diagonal_oracle(self, trivial_pairing,
                                                         twisted_pairing, slot):
        # one target operator broken at its smallest (row, col) entry: the
        # verdict of the walk on X⊗Y (condition, location and both sides)
        # is the one of Ψ compared over the Kronecker products
        for pairing in (trivial_pairing, twisted_pairing):
            T = pairing.target
            ops = {"cofaces[2][1]": T.cofaces[2], "codegeneracies[1][1]": T.codegeneracies[1],
                   "cyclic[1]": T.cyclic}[slot]
            got, want = _verdicts_with_one_entry_broken(pairing, 2, ops, 1, min(ops[1].entries))
            assert not got and got.witness.location.startswith("degree ")
            assert got.to_dict() == want.to_dict()
            assert pairing.check_cocyclic_map(2).to_dict() == \
                chain_oracle.check_cocyclic_map_on_diagonal(pairing, 2).to_dict()

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
        from chain_oracle import vector_to_functional
        from hopfcyc.linalg import vector_to_linmap

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

    def test_colinear_hom_spaces_solved_once(self, monkeypatch):
        # each degree of the module side (A over the predual with M*) and of
        # the classical complex of A⋊B is solved once; the comodule side is
        # solved at degrees 0-2 by the SAYD check and again by its complex,
        # and at degree 3 by the complex alone
        import hopfcyc.cocyclic
        import hopfcyc.symmetries
        from hopfcyc.symmetries import predual_carrier, predual_coefficient

        solve, calls = hopfcyc.symmetries.colinear_hom_space, []

        def counted(A, M, n):
            calls.append((id(A), id(M), n))
            return solve(A, M, n)

        monkeypatch.setattr(hopfcyc.symmetries, "colinear_hom_space", counted)
        monkeypatch.setattr(hopfcyc.cocyclic, "colinear_hom_space", counted, raising=False)
        name, A, B, M = crossed_product_instances()[1]
        pairing = CrossedPairing(A, B, M, N=2)
        comodule_side = [(id(B), id(M), n) for n in range(4)]
        module_side = [(id(predual_carrier(A)), id(predual_coefficient(M)), n)
                       for n in range(4)]
        assert [calls.count(c) for c in comodule_side] == [2, 2, 2, 1]
        assert len(set(calls)) == 12 and len(calls) == 15
        assert set(module_side) <= set(calls)
        classical = sorted(set(calls) - set(comodule_side + module_side), key=lambda c: c[2])
        assert all(calls.count(c) == 1 for c in module_side + classical)
        assert [n for _, _, n in classical] == [0, 1, 2, 3]
        assert len({(a, m) for a, m, _ in classical}) == 1
        assert pairing.check_cocyclic_map(2)

    def test_non_sayd_coefficient_refused_with_witness(self, H4, H4_eps, H4_one):
        from hopfcyc.symmetries import check_sayd_over_algebra, trivial_module_algebra

        B = regular_comodule_algebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_one)
        expected = check_sayd_over_algebra(B, M, n_max=1)
        assert not expected
        with pytest.raises(StructureError) as err:
            CrossedPairing(trivial_module_algebra(H4), B, M, N=1)
        assert err.value.check.to_dict() == expected.to_dict()


@pytest.fixture(scope="module", params=[(QQ, 0), (QQ, 1), (GF(7), 0), (GF(7), 1)],
                ids=["Q-eps-g", "Q-sgn-1", "GF7-eps-g", "GF7-sgn-1"])
def h4_pairing(request):
    """adjoint(H4) ⋊ regular(H4) at N = 1 with a classical SAYD scalar,
    (ε, g) or (sgn, 1): S⁻¹ ≠ S and Δ is not cocommutative, so a wrong leg
    order or an S for S⁻¹ in the twist changes Ψ."""
    field, k = request.param
    H = get_hopf("sweedler-h4", field)
    delta, sigma = [(counit_character(H), GroupLike(H, H.space.basis_vector(1), name="g")),
                    (sweedler_sign_character(H), unit_group_like(H))][k]
    return CrossedPairing(adjoint_module_algebra(H), regular_comodule_algebra(H),
                          scalar_coefficients(H, delta, sigma), N=1)


class TestNonCocommutativePairing:
    def test_antipode_is_not_an_involution(self, h4_pairing):
        H = h4_pairing.hopf
        assert H.antipode_inverse().entries != H.antipode.entries

    def test_psi_matches_the_matrix_by_pair(self, h4_pairing):
        for n in range(3):
            fast, slow = h4_pairing.psi_matrix(n), chain_oracle.psi_matrix_by_pair(h4_pairing, n)
            assert fast.entries == slow.entries, "Ψ_%d differs" % n

    def test_twist_matches_the_iterated_coaction_walk(self, h4_pairing):
        # the old P_2 as one map, curried on its B legs like the library's
        n, As, Bs = 2, h4_pairing.action_algebra.space, h4_pairing.comodule_algebra.space
        rdim, ddim = As.dim ** (n + 1), (As.dim * Bs.dim) ** (n + 1)
        slow = chain_oracle.twist_chain(h4_pairing, n).entries()
        assert h4_pairing._twist_pipeline(n).entries == {
            (row % rdim * ddim + col, row // rdim): v for (row, col), v in slow.items()}

    def test_failing_witness_matches_the_diagonal_oracle(self, h4_pairing):
        # X_n and Y_n differ in dimension here, so a witness located on the
        # wrong factor shows; each operator is broken in a column Ψ reaches
        T = h4_pairing.target
        for ops, i, m in ((T.cofaces[1], 1, 0), (T.codegeneracies[0], 0, 1), (T.cyclic, 1, 1)):
            reached = {r for r, _ in h4_pairing.psi_matrix(m).entries}
            key = min(k for k in ops[i].entries if k[1] in reached)
            got, want = _verdicts_with_one_entry_broken(h4_pairing, 1, ops, i, key)
            assert not got and got.to_dict() == want.to_dict()

    def test_cocyclic_map_and_closed_cups(self, h4_pairing):
        pairing = h4_pairing
        assert pairing.check_cocyclic_map(1)
        nonzero = 0
        for p, q in ((0, 1), (1, 0)):
            for phi in _cyclic_cocycles(pairing.module_side, p):
                for psi in _cyclic_cocycles(pairing.comodule_side, q):
                    out, check = pairing.cup(phi, p, psi, q)
                    assert check.passed
                    nonzero += not out.is_zero()
        assert nonzero


def _cyclic_cocycles(X, n):
    b = hochschild_coboundary(X, n)
    return [v for v in kernel_basis(cyclic_eigenvalue_operator(X, n) - identity(X.spaces[n]))
            if b.apply(v).is_zero()]


def test_twist_map_is_size_capped_before_any_walk(monkeypatch):
    # P_2 over the kZ2-translation instance has (2·2)^3 = 64 source columns;
    # one below that cap, psi_matrix refuses before any Chain walks, and P_1
    # (16 columns) is still built
    from hopfcyc import symmetries
    from hopfcyc.linalg import Chain
    from hopfcyc.symmetries import DegreeCapError

    name, A, B, M = crossed_product_instances()[1]
    pairing = CrossedPairing(A, B, M, N=2)
    monkeypatch.setattr(symmetries, "SIZE_CAP", 63)
    walks = []
    walk = Chain.walk
    monkeypatch.setattr(Chain, "walk", lambda self, state: walks.append(self) or walk(self, state))
    with pytest.raises(DegreeCapError) as err:
        pairing.psi_matrix(2)
    assert str(err.value) == "pairing twist P_2 needs 64 unknowns, above the configured cap 63"
    assert walks == []
    assert pairing.psi_matrix(1).domain.dim > 0 and walks


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
                from chain_oracle import vector_to_functional
                from hopfcyc.linalg import vector_to_linmap

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
        from chain_oracle import vector_to_functional
        from hopfcyc.linalg import vector_to_linmap

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

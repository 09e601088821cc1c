"""Hopf algebra zoo: axiom audits, antipode behavior, characters, bicrossed."""

import pytest

from hopfcyc import (
    Character,
    GF,
    GroupLike,
    HopfAlgebra,
    StructureError,
    bicrossed_product,
    check_modular_pair,
    co_opposite,
    counit_character,
    cyclic_group,
    direct_product,
    enumerate_characters,
    enumerate_group_likes,
    function_hopf,
    group_algebra,
    identity,
    sweedler_h4,
    symmetric_group,
    trivial_group,
    trivial_hopf,
    twisted_antipode,
    unit_group_like,
    verify_hopf,
)
from hopfcyc import corpus
from hopfcyc.corpus import get_hopf
from hopfcyc.fields import QQ
from hopfcyc.groups import ExactFactorization, GroupError
from hopfcyc.linalg import Chain, maps_first_difference
from hopfcyc.hopf import (
    _characters,
    _multiplication,
    predual,
)

import structure_oracle


class TestZoo:
    def test_group_algebra_z2(self, KZ2):
        assert verify_hopf(KZ2)
        assert KZ2.dim == 2
        assert KZ2.antipode == identity(KZ2.space)  # inverses are themselves

    def test_trivial_group(self):
        H = group_algebra(trivial_group())
        assert H.dim == 1
        assert verify_hopf(H)

    def test_s3_antipode_involutive(self, KS3):
        S2 = KS3.antipode @ KS3.antipode
        # oracle: S(g) = g⁻¹ entrywise, so S² = id
        assert S2 == identity(KS3.space)
        assert verify_hopf(KS3)

    def test_function_hopf_z2(self):
        F = function_hopf(cyclic_group(2))
        assert F.is_commutative() and F.is_cocommutative()
        assert verify_hopf(F)

    def test_function_hopf_z3_cocommutative(self):
        F = function_hopf(cyclic_group(3))
        # oracle: flip∘Δ = Δ entrywise for an abelian group
        assert maps_first_difference(F.comult, F.flip() @ F.comult) is None

    def test_function_hopf_s3_not_cocommutative(self):
        F = function_hopf(symmetric_group(3))
        assert F.is_commutative()
        col = maps_first_difference(F.comult, F.flip() @ F.comult)
        assert col is not None  # explicit witness basis element exists
        assert verify_hopf(F)

    def test_sweedler_axioms(self, H4):
        assert verify_hopf(H4)

    def test_sweedler_antipode_order_four(self, H4):
        S = H4.antipode
        S2 = S @ S
        assert S2 != identity(H4.space)
        assert (S2 @ S2) == identity(H4.space)
        assert S2.column(2).describe() == "(-1)·x"

    def test_sweedler_s2_is_conjugation_by_g(self, H4):
        # oracle: compare with g·h·g⁻¹ built directly from multiplication
        g = H4.space.basis_vector(1)
        conj = _multiplication(H4, g, "left") @ _multiplication(H4, g, "right")
        assert (H4.antipode @ H4.antipode) == conj

    def test_broken_antipode_detected(self, H4):
        broken = HopfAlgebra(
            H4.space, H4.mult, H4.unit, H4.comult, H4.counit,
            identity(H4.space), name="broken", validate=False)
        check = verify_hopf(broken)
        assert not check.passed
        assert check.condition.startswith("antipode")
        assert check.witness is not None and "x" in check.witness.location

    def test_eager_validation_raises(self, H4):
        with pytest.raises(StructureError):
            HopfAlgebra(H4.space, H4.mult, H4.unit, H4.comult, H4.counit,
                        identity(H4.space))


class TestBicrossed:
    def test_s3_factorizations(self, bicrossed_f3, bicrossed_f2):
        H1, H2 = bicrossed_f3.hopf, bicrossed_f2.hopf
        assert H1.dim == 6 and H2.dim == 6
        assert verify_hopf(H1) and verify_hopf(H2)
        # the two factorizations split the failure of (co)commutativity:
        # a bismash of S3 is never both noncommutative and noncocommutative
        assert not H1.is_commutative() and H1.is_cocommutative()
        assert H2.is_commutative() and not H2.is_cocommutative()

    def test_direct_product_trivial_actions(self):
        g = direct_product(cyclic_group(2), cyclic_group(2))
        B = bicrossed_product(g, ["(e,e)", "(t,e)"], ["(e,e)", "(e,t)"])
        assert B.hopf.dim == 4
        assert verify_hopf(B.hopf)
        # trivial mutual actions: both commutative and cocommutative
        assert B.hopf.is_commutative() and B.hopf.is_cocommutative()

    def test_dimension_is_product(self, bicrossed_f3):
        fz = bicrossed_f3.factorization
        assert bicrossed_f3.hopf.dim == len(fz.left) * len(fz.right)

    def test_non_unique_factorization_rejected(self):
        s3 = symmetric_group(3)
        with pytest.raises(GroupError):
            ExactFactorization(s3, ["e", "(12)"], ["e", "(13)"])

    def test_solve_antipode_matches_known(self, KZ2):
        S = structure_oracle.solve_antipode(KZ2.space, KZ2.mult, KZ2.unit, KZ2.comult, KZ2.counit)
        assert S == KZ2.antipode


class TestTwistedAntipode:
    def test_counit_twist_is_antipode(self, H4, H4_eps):
        assert twisted_antipode(H4, H4_eps) == H4.antipode

    def test_group_algebra_twist(self, KZ2):
        # S_δ(g) = δ(g)g⁻¹ for group-likes
        field = KZ2.field
        sgn = Character.from_values(KZ2, [field.one, field.from_int(-1)], name="sgn")
        S_d = twisted_antipode(KZ2, sgn)
        assert S_d.column(1) == KZ2.space.basis_vector(1).scaled(field.from_int(-1))

    def test_sweedler_sign_twist_square(self, H4, H4_sgn):
        # independent Sweedler-leg expansion oracle for S_δ on the basis
        field = H4.field
        S_d = twisted_antipode(H4, H4_sgn)
        for col in range(H4.dim):
            expected = {}
            for (pair, h), v in H4.comult.entries.items():
                if h != col:
                    continue
                h1, h2 = divmod(pair, H4.dim)
                dval = H4_sgn.value(h1)
                if not dval:
                    continue
                for (r, c), sv in H4.antipode.entries.items():
                    if c == h2:
                        expected[r] = expected.get(r, field.zero) + v * dval * sv
            got = S_d.column(col)
            assert {k: v for k, v in expected.items() if v} == got.entries
        # S_δ² is the identity for the sign character: the classical
        # involutive twist on this algebra
        assert (S_d @ S_d) == identity(H4.space)

    def test_anti_algebra_map(self, H4, H4_sgn):
        S_d = twisted_antipode(H4, H4_sgn)
        Hs = H4.space
        lhs = S_d @ H4.mult
        rhs = (
            Chain([Hs, Hs])
            .permute([1, 0])
            .apply(S_d, 0, 1, [Hs])
            .apply(S_d, 1, 1, [Hs])
            .apply(H4.mult, 0, 2, [Hs])
            .to_map()
        )
        assert maps_first_difference(lhs, rhs) is None


class TestCharactersAndGroupLikes:
    def test_modular_pair(self, H4, H4_eps, H4_one, H4_g, H4_sgn):
        assert check_modular_pair(H4, H4_eps, H4_one)
        assert check_modular_pair(H4, H4_eps, H4_g)
        res = check_modular_pair(H4, H4_sgn, H4_g)
        assert not res.passed and res.witness is not None

    @pytest.mark.parametrize("n", [2, 3])
    def test_characters_of_cyclic_group_algebras(self, n):
        H = group_algebra(cyclic_group(n))
        found = enumerate_characters(H)
        # characters of k[G] over Q = homs G → {±1}: 2 for even order, 1 for odd
        field = H.field
        homs = []
        for signs in [[field.one] * n] + (
            [[field.from_int(-1) if i % 2 else field.one for i in range(n)]]
            if n % 2 == 0 else []):
            homs.append(signs)
        got = sorted(tuple(c.value(i) for i in range(n)) for c in found)
        want = sorted(tuple(h) for h in homs)
        assert got == want

    def test_characters_of_s3(self, KS3):
        found = enumerate_characters(KS3)
        assert len(found) == 2  # trivial and sign

    def test_group_likes_of_group_algebra(self, KS3, H4):
        gl = enumerate_group_likes(KS3)
        # exactly the six group elements
        assert len(gl) == 6
        assert all(len(x.sigma.entries) == 1 for x in gl)
        # Sweedler's algebra: 1 and g; k^Z3 over ℚ: only the unit Σ δ_t
        assert sorted(x.name for x in enumerate_group_likes(H4)) == ["1", "g"]
        dual = get_hopf("dualZ3")
        assert [x.sigma for x in enumerate_group_likes(dual)] == [dual.unit]

    def test_search_over_gf2_lists_each_value_once(self):
        # −1 = 1 in characteristic 2, so {0, 1, −1} holds two values
        F = GF(2)
        kZ2 = group_algebra(cyclic_group(2), F)
        assert [c.name for c in enumerate_characters(kZ2)] == ["ε"]
        assert [g.name for g in enumerate_group_likes(kZ2)] == ["t", "e"]
        dual = function_hopf(cyclic_group(2), F)
        assert [c.name for c in enumerate_characters(dual)] == ["δ[δe↦0]", "δ[δt↦0]"]
        assert [g.sigma for g in enumerate_group_likes(dual)] == [dual.unit]

    def test_group_like_inverse(self, KZ3):
        t = GroupLike(KZ3, KZ3.space.basis_vector(1), name="t")
        prod = _multiplication(KZ3, t.sigma, "left").apply(t.sigma_inverse)
        assert prod == KZ3.unit


class TestCoOpposite:
    def test_cop_is_hopf(self, H4):
        Hc = co_opposite(H4)
        assert verify_hopf(Hc)
        assert maps_first_difference(Hc.comult, H4.flip() @ H4.comult) is None

    def test_cop_antipode_is_inverse(self, H4):
        Hc = co_opposite(H4)
        assert (Hc.antipode @ H4.antipode) == identity(H4.space)


def multiply_legs(H, k):
    """H^{⊗k} → H, left-to-right product; k=0 gives the unit map."""
    if k == 0:
        return H.unit_map()
    chain = Chain([H.space] * k)
    for _ in range(k - 1):
        chain.apply(H.mult, 0, 2, [H.space])
    return chain.to_map()


def test_multiply_legs_and_iterated_comult(H4):
    m3 = multiply_legs(H4, 3)
    d2 = H4.iterated_comult(2)
    # m∘Δ-legs collapses to counit-scaled identity patterns: (m3∘Δ²) = id·(εε..)
    # sanity: Δ² then multiply all legs = id (antipode-free Sweedler identity
    # m∘(m⊗id)∘Δ² = id holds since m∘Δ = id is false; instead check shapes)
    assert m3.domain.dim == H4.dim ** 3
    assert d2.codomain.dim == H4.dim ** 3
    # counit on any leg of Δ² recovers Δ
    Hs = H4.space
    out = Chain([Hs]).apply(d2, 0, 1, [Hs, Hs, Hs]).apply(H4.counit, 1, 1, []).to_map()
    assert out == H4.comult


def test_iterated_comult_and_antipode_inverse_are_memoized(H4):
    # one object per instance and degree; a fresh algebra computes its own
    assert H4.iterated_comult(2) is H4.iterated_comult(2)
    assert H4.iterated_comult(1) == H4.comult
    assert H4.antipode_inverse() is H4.antipode_inverse()
    assert H4.antipode_inverse() @ H4.antipode == identity(H4.space)
    fresh = sweedler_h4()
    assert fresh.iterated_comult(2) is not H4.iterated_comult(2)
    assert fresh.iterated_comult(2) == H4.iterated_comult(2)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "GF3"])
def test_group_likes_are_read_without_the_predual(field, monkeypatch):
    # the search and every GroupLike audit read H*'s product and unit off Δ
    # and ε; the lists are the predual's characters, in the same order
    monkeypatch.setattr(corpus, "_HOPF_CACHE", {})
    for name in corpus.hopf_names():
        H = get_hopf(name, field)
        found = enumerate_group_likes(H)
        for sigma in [H.unit] + [g.sigma for g in found]:
            GroupLike(H, sigma)
        assert "predual" not in H._memo, name
        K = predual(H)
        combos = _characters(K.space, K.mult.by_col(), K.unit.entries)
        assert [g.sigma.entries for g in found] == [
            {i: v for i, v in enumerate(combo) if v} for combo in combos], name

"""Pipeline contraction: the oracle's per-map contraction against a Chain
with the map in between, and a differential test of every library operator
that puts a cochain between two fixed maps, each a walk of the cochains'
coordinates, against the per-cochain Chain oracle.  The maps kept on a
coefficient (the action, the two AYD sides, their difference and s_M) equal
the appender pipelines they replaced, on every corpus coefficient."""

import random

import pytest

from hopfcyc.cocyclic import build_comodule_algebra_complex
from hopfcyc.corpus import (
    classical_sayd_coefficients,
    comodule_algebras_for,
    crossed_product_instances,
    get_hopf,
    hopf_names,
    trivial_comodule_M,
)
from hopfcyc.cup import CrossedPairing
from hopfcyc.fields import GF, QQ
from hopfcyc.linalg import Chain, DimensionMismatch, LinMap, Space, tensor_space
from hopfcyc.hopf import (
    check_modular_pair,
    counit_character,
    enumerate_characters,
    enumerate_group_likes,
    unit_group_like,
)
from hopfcyc.symmetries import (
    _acting,
    _ayd_difference,
    _ayd_sides,
    _bent_coaction,
    _carrier_ayd,
    _stability,
    check_sayd,
    colinear_hom_space,
    regular_action_trivial_coaction,
    regular_coaction_trivial_action,
    regular_comodule_algebra,
    scalar_coefficients,
    trivial_comodule_algebra,
)

import chain_oracle

# every corpus Hopf algebra with comodule-algebra carriers
HOPF_NAMES = ["kZ2", "kZ3", "kS3", "dualZ3", "sweedler-h4",
              "bicrossed-s3-f3", "bicrossed-s3-f2"]
# the comodule-algebra complexes tier-1 builds: check_hcc at N=2 on every
# pair over HCC_NAMES, and the degree-3 identity suite on regular carriers
# with one-dimensional coefficients over DEGREE_3_NAMES and on the bicrossed
# function factor
HCC_NAMES = ["kZ2", "kZ3", "sweedler-h4", "bicrossed-s3-f2"]
DEGREE_3_NAMES = ["kZ2", "kZ3", "kS3", "sweedler-h4"]


def _pairs(name):
    return [(aname, A, mname, M)
            for aname, A in comodule_algebras_for(name)
            for mname, M in classical_sayd_coefficients(name)]


def _space(name, dim, field):
    return Space(tuple("%s%d" % (name, i) for i in range(dim)), field)


def _random_map(rng, dom, cod, field, fill=0.5):
    entries = {}
    for r in range(cod.dim):
        for c in range(dom.dim):
            if rng.random() < fill:
                entries[(r, c)] = field.from_int(rng.randint(-3, 3))
    return LinMap(dom, cod, entries)


class TestContraction:
    @pytest.mark.parametrize("field", [None, GF(7)], ids=["Q", "GF7"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_chain_with_f_in_between(self, field, seed):
        field = field or QQ
        rng = random.Random(seed)
        X, Y, Z = (_space(n, d, field) for n, d in (("x", 2), ("y", 3), ("z", 2)))
        g = _random_map(rng, tensor_space(X, Y), tensor_space(Y, X, Z), field)
        h = _random_map(rng, tensor_space(Z, Y), X, field)
        pre = Chain([X, Y]).apply(g, 0, 2, [Y, X, Z])
        post = Chain([Y, Z, Y, Z]).permute([3, 0, 1, 2]).apply(h, 0, 2, [X])
        for _ in range(3):
            f = _random_map(rng, X, tensor_space(Z, Y), field)
            whole = (Chain([X, Y]).apply(g, 0, 2, [Y, X, Z]).apply(f, 1, 1, [Z, Y])
                     .permute([3, 0, 1, 2]).apply(h, 0, 2, [X]).to_map())
            got = chain_oracle.contract((pre, 1, 1, post), f)
            assert got.entries == whole.entries
            assert got.domain == whole.domain and got.codomain == whole.codomain
            # the suffix given as its map contracts the same
            assert chain_oracle.contract((pre, 1, 1, post.to_map()), f).entries == whole.entries

    def test_without_post_is_the_bare_prefix(self):
        rng = random.Random(9)
        X, Y = _space("x", 2, QQ), _space("y", 3, QQ)
        g = _random_map(rng, X, tensor_space(X, Y), QQ)
        f = _random_map(rng, X, Y, QQ)
        pipeline = (Chain([X]).apply(g, 0, 1, [X, Y]), 0, 1, Chain([Y, Y]))
        whole = Chain([X]).apply(g, 0, 1, [X, Y]).apply(f, 0, 1, [Y]).to_map()
        assert chain_oracle.contract(pipeline, f).entries == whole.entries

    def test_shape_errors(self):
        X, Y = _space("x", 2, QQ), _space("y", 3, QQ)
        pre, f = Chain([X, Y]), LinMap(X, Y, {})
        with pytest.raises(DimensionMismatch):
            chain_oracle.contract((pre, 0, 1, Chain([Y, X])), f)  # right leg changed
        with pytest.raises(DimensionMismatch):
            chain_oracle.contract((pre, 0, 1, Chain([Y, Y])), LinMap(Y, Y, {}))
        with pytest.raises(DimensionMismatch):
            chain_oracle.contract((pre, 0, 1, LinMap(X, X, {})), f)  # cannot hold the right leg


def test_bent_coaction_is_kept_once_per_carrier():
    # the carrier's one kept piece of the AYD walk serves every degree and
    # coefficient; besides it the carrier keeps only its diagonal coactions
    from hopfcyc.symmetries import check_sayd_over_algebra

    H = get_hopf("kZ3")
    A = regular_comodule_algebra(H)
    kept = []
    for M in (regular_coaction_trivial_action(H),
              scalar_coefficients(H, counit_character(H), unit_group_like(H))):
        assert all(colinear_hom_space(A, M, n).dim for n in range(3))
        assert check_sayd_over_algebra(A, M, n_max=2)
        kept.append(A._diag["bent"])
        assert set(A._diag) == {0, 1, 2, 3, "bent"}
    bent = _bent_coaction(A)
    assert kept == [bent, bent] and kept[0] is kept[1] is bent
    # another carrier with the same structure keeps its own
    other = regular_comodule_algebra(H)
    assert _bent_coaction(other) is not bent and _bent_coaction(other) == bent


@pytest.mark.parametrize("instance", range(2))
def test_psi_matrices_match_oracle(instance):
    _, A, B, M = crossed_product_instances()[instance]
    pairing = CrossedPairing(A, B, M, N=2)
    for n in range(4):
        fast = pairing.psi_matrix(n)
        slow = chain_oracle.psi_matrix(pairing, n)
        assert fast.domain.dim == slow.domain.dim
        assert fast.entries == slow.entries, "Ψ_%d differs" % n


def _wrap_instances(name):
    """(label, carrier, coefficient, top degree) for one wrap test case."""
    if name == "bicrossed-s3-f2/F":
        from hopfcyc.corpus import get_bicrossed
        from hopfcyc.hopf import co_opposite
        from hopfcyc.symmetries import (
            as_left_comodule_algebra,
            bicrossed_function_comodule_algebra,
            regular_coaction_trivial_action,
        )

        B2 = get_bicrossed("bicrossed-s3-f2")
        Hcop = co_opposite(B2.hopf)
        F = as_left_comodule_algebra(bicrossed_function_comodule_algebra(B2), Hcop)
        return [("F", F, regular_coaction_trivial_action(Hcop), 3)]
    out = []
    for aname, A, mname, M in _pairs(name):
        if name in DEGREE_3_NAMES and aname == "regular" and M.dim == 1:
            out.append(((aname, mname), A, M, 3))  # its degree-2 operators too
        elif name in HCC_NAMES:
            out.append(((aname, mname), A, M, 2))
    return out


@pytest.mark.parametrize("name", sorted(set(HCC_NAMES + DEGREE_3_NAMES)) + ["bicrossed-s3-f2/F"])
def test_comodule_algebra_wrap_matches_oracle(name):
    for label, A, M, N in _wrap_instances(name):
        X = build_comodule_algebra_complex(A, M, N)
        oracle = chain_oracle.wrap_matrices(A, M, N)
        for n in range(N + 1):
            last, tau = oracle[n]
            if n:
                assert X.coface(n, n).entries == last, (label, N, n)
            assert X.tau(n).entries == tau, (label, N, n)


def _assert_carrier_sides_match_oracle(pairs):
    for aname, A, mname, M in pairs:
        # the oracle walks every column of three pipelines per cochain; with a
        # six-dimensional carrier and coefficient degree 2 costs about a
        # minute, so those pairs stop at degree 1 (the index arithmetic is
        # the same at every degree, and degree 2 is covered on the others)
        top = 1 if A.dim * M.dim > 16 else 2
        lhs_s, rhs_s = _ayd_sides(M)
        for n in range(top + 1):
            sub = colinear_hom_space(A, M, n)
            if not sub.dim:
                continue
            cols = [v.entries for v in sub.basis]
            walked = [_carrier_ayd(A, M, n, suffix).images(cols)
                      for suffix in (lhs_s, rhs_s, _ayd_difference(M))]
            for k, phi in enumerate(chain_oracle.subspace_maps(sub)):
                lhs, rhs = chain_oracle.carrier_ayd_sides(A, M, phi, n)
                for images, want in zip(walked, (lhs, rhs, lhs - rhs)):
                    assert images[k] == chain_oracle.hom_coords(want), (aname, mname, n)
                stab = chain_oracle.stability_map(A, M, phi, n)
                assert (_stability(M) @ phi).entries == stab.entries, (aname, mname, n)


@pytest.mark.parametrize("name", HOPF_NAMES)
def test_carrier_sayd_sides_match_oracle(name):
    _assert_carrier_sides_match_oracle(_pairs(name))


@pytest.mark.parametrize("name", ["kS3", "sweedler-h4", "dualZ3"])
def test_carrier_sayd_sides_match_oracle_over_gfp(name):
    # the module-comodules of tests/test_coactions.py, SAYD or not: the two
    # sides must agree with the oracle entry by entry either way
    H = get_hopf(name, GF(32003))
    carriers = [("regular", regular_comodule_algebra(H)),
                ("trivial", trivial_comodule_algebra(H))]
    coefficients = [regular_coaction_trivial_action(H), regular_action_trivial_coaction(H),
                    scalar_coefficients(H, counit_character(H), unit_group_like(H))]
    _assert_carrier_sides_match_oracle(
        [(aname, A, M.name, M) for aname, A in carriers for M in coefficients])


def _every_coefficient(name, field):
    """The corpus coefficients over one Hopf algebra, SAYD or not: the scalar
    coefficient of every modular pair found over ``field``, the trivial one,
    and the regular coaction and the regular action."""
    H = get_hopf(name, field)
    sigmas = enumerate_group_likes(H)
    out = [scalar_coefficients(H, delta, sigma) for delta in enumerate_characters(H)
           for sigma in sigmas if check_modular_pair(H, delta, sigma)]
    return out + [trivial_comodule_M(H), regular_coaction_trivial_action(H),
                  regular_action_trivial_coaction(H)]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("name", hopf_names())
def test_kept_coefficient_maps_match_the_appenders(name, field):
    # the maps kept on M against the appender pipelines they replaced, built
    # afresh by the oracle: the same entries on the same spaces
    sayd = 0
    for M in _every_coefficient(name, field):
        want = chain_oracle.coefficient_maps(M)
        lhs, rhs = _ayd_sides(M)
        for have, key in ((_acting(M), "act"), (lhs, "lhs"), (rhs, "rhs"),
                          (_ayd_difference(M), "difference"), (_stability(M), "stab")):
            assert have == want[key], (M.name, key)
            assert (have.domain, have.codomain) == (want[key].domain, want[key].codomain)
        sayd += bool(check_sayd(M))
    assert sayd


def _recording_chains(monkeypatch):
    """Record every Chain that materializes its entries, once per walk, and
    every (Chain, map) pair that ``to_map`` returns."""
    walked, built = [], []
    materialize, to_map = Chain._materialize, Chain.to_map

    def counting(self):
        walked.append(self)
        return materialize(self)

    def recording(self):
        out = to_map(self)
        built.append((self, out))
        return out

    monkeypatch.setattr(Chain, "_materialize", counting)
    monkeypatch.setattr(Chain, "to_map", recording)
    return walked, built


def test_coefficient_suffixes_are_materialized_once(monkeypatch):
    # the maps kept on the coefficient (the action and L − R on H⊗M, and s_M
    # on M) are built once, for every degree and carrier of the check and
    # every wrap of a complex: the action, s_M and each AYD side are one
    # Chain, walked once, and L − R is computed from the two sides
    from hopfcyc import symmetries

    H = get_hopf("kZ3")
    A, M = regular_comodule_algebra(H), regular_coaction_trivial_action(H)
    assert all(colinear_hom_space(A, M, n).dim for n in range(3))
    walked, built = _recording_chains(monkeypatch)
    sides, ayd_sides = [], symmetries._ayd_sides

    def recording_sides(M):
        sides.append(ayd_sides(M))
        return sides[-1]

    monkeypatch.setattr(symmetries, "_ayd_sides", recording_sides)
    assert symmetries.check_sayd_over_algebra(A, M, n_max=2)
    # the check reads L − R and s_M; the complex adds the action
    assert sorted(M._memo) == ["ayd", "stab"]
    build_comodule_algebra_complex(A, M, 3)
    assert symmetries.check_sayd_over_algebra(regular_comodule_algebra(H), M, n_max=2)
    build_comodule_algebra_complex(regular_comodule_algebra(H), M, 2)
    assert len(sides) == 1
    lhs, rhs = sides[0]
    assert M._memo["ayd"] == lhs - rhs
    made = [M._memo["act"], lhs, rhs, M._memo["stab"]]
    makers = [[chain for chain, f in built if f is g] for g in made]
    assert [len(chains) for chains in makers] == [1, 1, 1, 1]
    assert [sum(w is chains[0] for w in walked) for chains in makers] == [1, 1, 1, 1]
    assert symmetries._acting(M) is M._memo["act"]
    assert symmetries._ayd_difference(M) is M._memo["ayd"]
    assert symmetries._stability(M) is M._memo["stab"]
    # another coefficient with the same structure builds its own
    other = regular_coaction_trivial_action(H)
    build_comodule_algebra_complex(A, other, 2)
    assert other._memo["act"] is not M._memo["act"]
    assert sum(f is other._memo["act"] for _, f in built) == 1


def test_failing_witness_matches_oracle(H4, H4_eps, H4_one):
    # the ε-unit coefficient over Sweedler's algebra is not carrier-SAYD; the
    # reported sides are the oracle's sides at the first failing input
    from hopfcyc import regular_comodule_algebra, scalar_coefficients
    from hopfcyc.linalg import maps_first_difference
    from hopfcyc.symmetries import check_sayd_over_algebra

    A = regular_comodule_algebra(H4)
    M = scalar_coefficients(H4, H4_eps, H4_one)
    res = check_sayd_over_algebra(A, M, n_max=2)
    assert not res.passed
    for n in range(3):
        for phi in chain_oracle.subspace_maps(colinear_hom_space(A, M, n)):
            lhs, rhs = chain_oracle.carrier_ayd_sides(A, M, phi, n)
            for lhs, rhs in ((lhs, rhs), (chain_oracle.stability_map(A, M, phi, n), phi)):
                col = maps_first_difference(lhs, rhs)
                if col is not None:
                    assert res.lhs_vector == lhs.column(col)
                    assert res.rhs_vector == rhs.column(col)
                    assert res.witness.location.endswith(lhs.domain.labels[col])
                    return
    pytest.fail("oracle found no carrier-SAYD failure")

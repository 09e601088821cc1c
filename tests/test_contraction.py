"""Pipeline contraction: the primitive on its own, and a differential test of
every library operator built on it against the per-cochain Chain oracle."""

import random

import pytest

from hopfcyc.cocyclic import build_comodule_algebra_complex
from hopfcyc.corpus import (
    classical_sayd_coefficients,
    comodule_algebras_for,
    crossed_product_instances,
)
from hopfcyc.cup import CrossedPairing
from hopfcyc.fields import GF, QQ
from hopfcyc.linalg import Chain, Contraction, DimensionMismatch, LinMap, Space, tensor_space
from hopfcyc.symmetries import _carrier_sayd_pipelines, colinear_hom_space

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
        pipeline = Contraction(pre, 1, 1, post)
        for _ in range(3):
            f = _random_map(rng, X, tensor_space(Z, Y), field)
            whole = (Chain([X, Y]).apply(g, 0, 2, [Y, X, Z]).apply(f, 1, 1, [Z, Y])
                     .permute([3, 0, 1, 2]).apply(h, 0, 2, [X]).to_map())
            got = pipeline.contract(f)
            assert got.entries == whole.entries
            assert got.domain == whole.domain and got.codomain == whole.codomain

    def test_without_post_is_the_bare_prefix(self):
        rng = random.Random(9)
        X, Y = _space("x", 2, QQ), _space("y", 3, QQ)
        g = _random_map(rng, X, tensor_space(X, Y), QQ)
        f = _random_map(rng, X, Y, QQ)
        pipeline = Contraction(Chain([X]).apply(g, 0, 1, [X, Y]), 0, 1, Chain([Y, Y]))
        whole = Chain([X]).apply(g, 0, 1, [X, Y]).apply(f, 0, 1, [Y]).to_map()
        assert pipeline.contract(f).entries == whole.entries

    def test_shape_errors(self):
        X, Y = _space("x", 2, QQ), _space("y", 3, QQ)
        pre = Chain([X, Y])
        with pytest.raises(DimensionMismatch):
            Contraction(pre, 0, 1, Chain([Y, X]))  # right leg changed
        pipeline = Contraction(pre, 0, 1, Chain([Y, Y]))
        with pytest.raises(DimensionMismatch):
            pipeline.contract(LinMap(Y, Y, {}))


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


@pytest.mark.parametrize("name", HOPF_NAMES)
def test_carrier_sayd_sides_match_oracle(name):
    for aname, A, mname, M in _pairs(name):
        # the oracle walks every column of three pipelines per cochain; with a
        # six-dimensional carrier and coefficient degree 2 costs about a
        # minute, so those pairs stop at degree 1 (the index arithmetic is
        # the same at every degree, and degree 2 is covered on the others)
        top = 1 if A.dim * M.dim > 16 else 2
        for n in range(top + 1):
            sub = colinear_hom_space(A, M, n)
            if not sub.dim:
                continue
            lhs_p, rhs_p, stab_p = _carrier_sayd_pipelines(A, M, n)
            for phi in sub.maps():
                lhs, rhs = chain_oracle.carrier_ayd_sides(A, M, phi, n)
                assert lhs_p.contract(phi).entries == lhs.entries, (aname, mname, n)
                assert rhs_p.contract(phi).entries == rhs.entries, (aname, mname, n)
                stab = chain_oracle.stability_map(A, M, phi, n)
                assert stab_p.contract(phi).entries == stab.entries, (aname, mname, n)


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
        for phi in colinear_hom_space(A, M, n).maps():
            lhs, rhs = chain_oracle.carrier_ayd_sides(A, M, phi, n)
            for lhs, rhs in ((lhs, rhs), (chain_oracle.stability_map(A, M, phi, n), phi)):
                col = maps_first_difference(lhs, rhs)
                if col is not None:
                    assert res.lhs_vector == lhs.column(col)
                    assert res.rhs_vector == rhs.column(col)
                    assert res.witness.location.endswith(lhs.domain.labels[col])
                    return
    pytest.fail("oracle found no carrier-SAYD failure")

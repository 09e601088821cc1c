"""Acceptance gate: one test per criterion, exact arithmetic throughout
(tolerance is strict equality everywhere).  Each test prints a one-line
verdict; run with ``pytest tests/test_acceptance.py -v -s`` for the report.
"""

import time

import pytest

from hopfcyc import (
    GroupLike,
    adjoint_comodule_coalgebra,
    as_left_comodule_algebra,
    bicrossed_function_comodule_algebra,
    bicrossed_group_comodule_coalgebra,
    bicrossed_product,
    build_comodule_algebra_complex,
    build_comodule_coalgebra_complex,
    build_module_algebra_complex,
    check_cocommutative_coaction_algebra,
    check_cocommutative_coaction_coalgebra,
    check_commutative_coaction_algebra,
    check_commutative_coaction_coalgebra,
    check_hcc,
    check_involution_over_algebra,
    check_involution_over_coalgebra,
    check_modular_pair,
    check_sayd,
    check_sayd_over_algebra,
    check_sayd_over_coalgebra,
    co_opposite,
    counit_character,
    cyclic_dims,
    cyclic_group,
    differential_identities,
    function_hopf,
    group_algebra,
    hochschild_dims,
    membership,
    regular_comodule_algebra,
    scalar_coefficients,
    stable_subalgebra,
    sweedler_h4,
    symmetric_group,
    translation_module_algebra,
    trivial_comodule_algebra,
    trivial_hopf,
    unit_group_like,
    verify_cocyclic_identities,
    verify_hopf,
)
from hopfcyc.hopf import _multiplication
from hopfcyc.corpus import (
    classical_sayd_coefficients,
    comodule_algebras_for,
    comodule_coalgebras_for,
    crossed_product_instances,
    get_bicrossed,
    get_hopf,
    modular_pairs,
    trivial_comodule_M,
)
from hopfcyc.symmetries import (
    regular_coaction_trivial_action,
    trivial_coaction_module,
)
from hopfcyc.cup import CrossedPairing
from hopfcyc.cohomology import cyclic_eigenvalue_operator, hochschild_coboundary
from hopfcyc.linalg import Vector, identity, kernel_basis


def _report(num, label, elapsed=None):
    suffix = "" if elapsed is None else " (%.2f s)" % elapsed
    print("ACCEPTANCE %d PASS — %s%s" % (num, label, suffix))


def test_criterion_1_hopf_axiom_suite():
    t0 = time.time()
    zoo = [
        group_algebra(cyclic_group(2)),
        group_algebra(cyclic_group(3)),
        group_algebra(symmetric_group(3)),
        function_hopf(cyclic_group(3)),
        function_hopf(symmetric_group(3)),
        sweedler_h4(),
        bicrossed_product(symmetric_group(3), ["e", "(123)", "(132)"], ["e", "(12)"]).hopf,
        bicrossed_product(symmetric_group(3), ["e", "(12)"], ["e", "(123)", "(132)"]).hopf,
    ]
    for H in zoo:
        assert verify_hopf(H), H.name
    H4 = zoo[5]
    g = H4.space.basis_vector(1)
    conj = _multiplication(H4, g, "left") @ _multiplication(H4, g, "right")
    assert (H4.antipode @ H4.antipode) == conj  # S²(h) = g·h·g⁻¹ entrywise
    elapsed = time.time() - t0
    assert elapsed < 1.0, "zoo audit took %.2f s (budget 1 s)" % elapsed
    _report(1, "full zoo passes the axiom audit; S² = conjugation on the "
               "four-dimensional example", elapsed)


def test_criterion_2_involution_lemma_executions():
    t0 = time.time()
    executed = 0
    for name in ["kZ2", "kZ3", "kS3", "dualZ3", "sweedler-h4",
                 "bicrossed-s3-f3", "bicrossed-s3-f2"]:
        H = get_hopf(name)
        for delta, sigma in modular_pairs(name):
            assert check_modular_pair(H, delta, sigma)
            M = scalar_coefficients(H, delta, sigma)
            for _, A in comodule_algebras_for(name):
                if check_involution_over_algebra(A, delta, sigma):
                    assert check_sayd_over_algebra(A, M, n_max=2), (
                        "%s (%s,%s)" % (name, delta.name, sigma.name))
                    executed += 1
            for _, C in comodule_coalgebras_for(name):
                if check_involution_over_coalgebra(C, delta, sigma):
                    assert check_sayd_over_coalgebra(C, M, n_max=2), (
                        "%s (%s,%s)" % (name, delta.name, sigma.name))
                    executed += 1
    elapsed = time.time() - t0
    assert executed >= 20
    assert elapsed < 30.0, "lemma executions took %.2f s (budget 30 s)" % elapsed
    _report(2, "involution ⟹ carrier-SAYD on %d corpus instances" % executed,
            elapsed)


def test_criterion_3_stable_subalgebra():
    H4 = sweedler_h4()
    eps, one = counit_character(H4), unit_group_like(H4)
    A = regular_comodule_algebra(H4)
    B = stable_subalgebra(A, eps, one)  # constructor re-verifies the axioms
    assert B.dim == 2
    # equality with span{1, g} decided by membership in both directions
    for i in (0, 1):
        ok, _ = membership(H4.space.basis_vector(i), B.embedding)
        assert ok
    span = [H4.space.basis_vector(0), H4.space.basis_vector(1)]
    for vec in B.embedding:
        ok, _ = membership(vec, span)
        assert ok
    assert check_involution_over_algebra(B, eps, one)
    M = scalar_coefficients(H4, eps, one)
    assert check_sayd_over_algebra(B, M, n_max=2)
    _report(3, "twisted-square kernel on the four-dimensional example is "
               "exactly span{1, g} and carries the scalar coefficient")


def test_criterion_4_coaction_commutativity_lemmas():
    executed = []
    for bname in ("bicrossed-s3-f3", "bicrossed-s3-f2"):
        B = get_bicrossed(bname)
        H = B.hopf
        Hcop = co_opposite(H)
        F = as_left_comodule_algebra(bicrossed_function_comodule_algebra(B), Hcop)
        U = bicrossed_group_comodule_coalgebra(B)
        trivial_action = [
            ("H(Δ,triv)", regular_coaction_trivial_action(Hcop)),
            ("k(triv)", trivial_comodule_M(Hcop)),
        ]
        if check_commutative_coaction_algebra(F, n_max=2):
            for mname, M in trivial_action:
                assert check_sayd_over_algebra(F, M, n_max=2), (bname, mname)
                executed.append("%s/F/%s" % (bname, mname))
        if check_commutative_coaction_coalgebra(U):
            for mname, M in [("H(Δ,triv)", regular_coaction_trivial_action(H)),
                             ("k(triv)", trivial_comodule_M(H))]:
                assert check_sayd_over_coalgebra(U, M, n_max=2), (bname, mname)
                executed.append("%s/U/%s" % (bname, mname))
        if check_cocommutative_coaction_algebra(F, n_max=2):
            M = trivial_coaction_module(Hcop, Hcop.mult, space=Hcop.space)
            assert check_hcc("comodule-algebra", F, M, N=2), bname
            executed.append("%s/F/hcc" % bname)
        if check_cocommutative_coaction_coalgebra(U, n_max=2):
            M = trivial_coaction_module(H, H.mult, space=H.space)
            assert check_hcc("comodule-coalgebra", U, M, N=2), bname
            executed.append("%s/U/hcc" % bname)
    assert len(executed) >= 6, executed
    _report(4, "commutative/cocommutative coaction lemmas executed on %d "
               "bicrossed scenarios" % len(executed))


def _corpus_complexes():
    """(name, cocyclic module) for every corpus coefficient that passed its
    SAYD checker, built to degree 3.  Cached across the acceptance tests."""
    if _corpus_complexes.cache is not None:
        return _corpus_complexes.cache
    out = []
    Hk = trivial_hopf()
    A0 = trivial_comodule_algebra(Hk)
    M0 = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
    out.append(("trivial/algebra", build_comodule_algebra_complex(A0, M0, 3)))

    algebra_instances = []
    for name in ["kZ2", "kZ3", "kS3", "sweedler-h4"]:
        H = get_hopf(name)
        A = regular_comodule_algebra(H)
        for mname, M in classical_sayd_coefficients(name):
            if M.dim > 1:
                continue  # keep the degree-3 ladders desk-sized
            if check_sayd_over_algebra(A, M, n_max=1):
                algebra_instances.append(("%s/regular/%s" % (name, mname), A, M))
    B2 = get_bicrossed("bicrossed-s3-f2")
    Hcop = co_opposite(B2.hopf)
    F = as_left_comodule_algebra(bicrossed_function_comodule_algebra(B2), Hcop)
    algebra_instances.append(
        ("bicrossed-s3-f2/F/H(Δ,triv)", F, regular_coaction_trivial_action(Hcop)))
    for name, A, M in algebra_instances:
        out.append((name + "/algebra", build_comodule_algebra_complex(A, M, 3)))

    for name in ["kZ2", "kZ3", "kS3", "sweedler-h4"]:
        H = get_hopf(name)
        C = adjoint_comodule_coalgebra(H)
        for mname, M in classical_sayd_coefficients(name):
            if M.dim > 1:
                continue
            if check_sayd_over_coalgebra(C, M, n_max=1):
                out.append(("%s/adjoint/%s/coalgebra" % (name, mname),
                            build_comodule_coalgebra_complex(C, M, 3)))
                break  # one coefficient per carrier keeps the suite quick
    U2 = bicrossed_group_comodule_coalgebra(B2)
    M_U = regular_coaction_trivial_action(B2.hopf)
    assert check_sayd_over_coalgebra(U2, M_U, n_max=1)
    out.append(("bicrossed-s3-f2/U/H(Δ,triv)/coalgebra",
                build_comodule_coalgebra_complex(U2, M_U, 3)))

    H, A = translation_module_algebra(cyclic_group(2))
    M = scalar_coefficients(H, counit_character(H), unit_group_like(H))
    assert check_sayd(M)
    out.append(("kZ2-translation/module-algebra",
                build_module_algebra_complex(A, M, 3)))
    _corpus_complexes.cache = out
    return out


_corpus_complexes.cache = None


def test_criterion_5_cocyclic_identity_suite():
    t0 = time.time()
    complexes = _corpus_complexes()
    assert len(complexes) >= 10
    for name, X in complexes:
        assert X.max_degree == 3
        res = verify_cocyclic_identities(X)
        assert res.passed, "%s:\n%s" % (name, res.describe())
    elapsed = time.time() - t0
    assert elapsed < 120.0, "identity suite took %.2f s (budget 120 s)" % elapsed
    _report(5, "all cocyclic identities (including τ^(n+1) = id) hold on %d "
               "degree-3 corpus complexes" % len(complexes), elapsed)


def test_criterion_6_cohomology_sanity():
    Hk = trivial_hopf()
    A0 = trivial_comodule_algebra(Hk)
    M0 = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
    X = build_comodule_algebra_complex(A0, M0, 4)
    assert hochschild_dims(X, 3).dims == [1, 0, 0, 0]
    assert cyclic_dims(X, 3).dims == [1, 0, 1, 0]
    checked = 0
    for name, Y in _corpus_complexes():
        for idname, ok in differential_identities(Y):
            assert ok, "%s: %s" % (name, idname)
            checked += 1
    _report(6, "trivial instance has Hochschild (1,0,0,0) and cyclic "
               "(1,0,1,0); %d differential identities hold" % checked)


def test_criterion_7_cup_product():
    # product of traces at p = q = 0 over the trivial Hopf algebra
    name, A, B, M = crossed_product_instances()[0]
    pairing = CrossedPairing(A, B, M, N=2)
    X, Y = pairing.module_side, pairing.comodule_side
    from hopfcyc.cocyclic import invariant_functionals
    from hopfcyc.symmetries import colinear_hom_space
    from chain_oracle import vector_to_functional
    from hopfcyc.linalg import vector_to_linmap
    from fractions import Fraction

    phis = invariant_functionals(A, M, 0)
    psis = colinear_hom_space(B, M, 0)
    for i in range(X.spaces[0].dim):
        for j in range(Y.spaces[0].dim):
            out, check = pairing.cup(X.spaces[0].basis_vector(i), 0,
                                     Y.spaces[0].basis_vector(j), 0)
            assert check.passed
            phi_f = vector_to_functional(phis.basis[i], phis.domain)
            psi_f = vector_to_linmap(psis.basis[j], B.space, M.space)
            for col in range(pairing.crossed.dim):
                ai, bi = divmod(col, B.dim)
                expected = Fraction(0)
                for m_idx, mv in psi_f.column(bi).entries.items():
                    expected += mv * phi_f.entries.get(
                        (0, m_idx * A.dim + ai), Fraction(0))
                assert out.entries.get(col, Fraction(0)) == expected
            # the output is a trace: it kills all commutators of A⋊B
            xp = pairing.crossed
            d = xp.dim
            func = vector_to_functional(
                Vector(pairing.target.spaces[0], out.entries)
                if False else out, xp.space)
            for a in range(d):
                for b in range(d):
                    comm = xp.mult.column(a * d + b) - xp.mult.column(b * d + a)
                    val = Fraction(0)
                    for idx, v in comm.entries.items():
                        val += v * out.entries.get(idx, Fraction(0))
                    assert val == 0

    # the pairing intertwines every operator at degrees ≤ 2 on the twisted
    # corpus instance
    name2, A2, B2, M2 = crossed_product_instances()[1]
    pairing2 = CrossedPairing(A2, B2, M2, N=2)
    assert pairing2.check_cocyclic_map(2)

    # cup output is Hochschild-closed whenever the inputs are cyclic cocycles
    closed = 0
    for pairing_k in (pairing, pairing2):
        Xk, Yk = pairing_k.module_side, pairing_k.comodule_side
        for (p, q) in [(0, 0), (2, 0), (0, 2)]:
            for phi in _cyclic_cocycles(Xk, p):
                for psi in _cyclic_cocycles(Yk, q):
                    _, check = pairing_k.cup(phi, p, psi, q)
                    assert check.passed
                    closed += 1
    assert closed >= 10
    _report(7, "degree-zero cups are product traces; the pairing is a "
               "cocyclic map; %d cups of cyclic cocycles are b-closed" % closed)


def _cyclic_cocycles(X, n):
    lam = cyclic_eigenvalue_operator(X, n)
    eig = kernel_basis(lam - identity(X.spaces[n]))
    b = hochschild_coboundary(X, n)
    return [v for v in eig if b.apply(v).is_zero()]


def test_criterion_8_hierarchy_inclusions():
    checked = 0
    for name in ["kZ2", "kZ3", "kS3", "dualZ3", "sweedler-h4",
                 "bicrossed-s3-f3", "bicrossed-s3-f2"]:
        for mname, M in classical_sayd_coefficients(name):
            assert check_sayd(M)
            for aname, A in comodule_algebras_for(name):
                assert check_sayd_over_algebra(A, M, n_max=2), (name, aname, mname)
                checked += 1
            for cname, C in comodule_coalgebras_for(name):
                assert check_sayd_over_coalgebra(C, M, n_max=2), (name, cname, mname)
                checked += 1
    # carrier-SAYD coefficients define honest cocyclic modules
    for name in ["kZ2", "kZ3", "sweedler-h4"]:
        for mname, M in classical_sayd_coefficients(name):
            for aname, A in comodule_algebras_for(name):
                if check_sayd_over_algebra(A, M, n_max=2):
                    assert check_hcc("comodule-algebra", A, M, N=2)
                    checked += 1
            for cname, C in comodule_coalgebras_for(name):
                if check_sayd_over_coalgebra(C, M, n_max=2):
                    assert check_hcc("comodule-coalgebra", C, M, N=2)
                    checked += 1
    assert checked >= 60
    _report(8, "inclusion chain executed on %d corpus pairs: classical SAYD "
               "⟹ carrier-SAYD ⟹ cocyclic coefficients" % checked)

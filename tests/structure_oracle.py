"""Reference oracle: every structure audit and the classical and
cotensor-carrier SAYD identities written out in full, one copy per class,
as each class spelled them before the shared axiom kit.  Each function
builds its maps exactly as written down, in the same order of checks, so a
differential test can demand identical verdicts, witnesses and witness
vectors from the library.

The four coaction (co)commutativity checkers are written out the same way,
each with both sides spelled in full, as they were before they shared one
two-pipeline helper.

The multiplication matrices of an element and the twisted antipode are
written out as they were before they became one pass over the product's
entries and one pipeline: one pass per entry of the element, for each side,
and one pipeline per convention.

The bicrossed product k^F ⋈ k[U] and its two carrier factors are built as
they were before the closed form: product and coproduct by filtering nested
loops over positions in F and U, each with its own position maps, and the
antipode solved from the bialgebra data by ``solve_antipode``, a d²-unknown
linear system read off ``rref_oracle.solve_linear``.

The character search is kept as it was before the minimal-polynomial
routine: every assignment of 0, 1 and −1 to the basis, 3^d candidates in
``itertools.product`` order, each checked on raw entries.  It is complete
only where every character takes those values, and it is the reference for
the lists' names, values and order there.

The one deliberate difference from those bodies: ``verify_module_algebra``
also checks the right unit law (``algebra-right-unit``), right after the
left one; without it an algebra with only a left unit passed."""

import itertools

import rref_oracle
from hopfcyc import results
from hopfcyc.hopf import HopfAlgebra, StructureError
from hopfcyc.linalg import Chain, LinMap, Space, Vector, identity, tensor_space, unit_space
from hopfcyc.results import compare
from hopfcyc.symmetries import ComoduleAlgebra, ComoduleCoalgebra, diag_left_coaction

from chain_oracle import cotensor_space_by_rows, diag_right_coaction


def coalgebra_stability(C, M, k):
    """w ↦ w⟨0⟩◁w⟨1⟩ on C^{⊗k} ⊗ M, one vector at a time: act on the
    coefficient by the diagonal right-coaction leg, read from the entries of
    ρ_diag and the action (the library walks the whole cotensor basis at
    once instead)."""
    Hdim, Mdim = C.hopf.space.dim, M.space.dim
    rho = diag_right_coaction(C, k).by_col()
    act = M.action.by_col()
    zero = C.space.field.zero

    def stab(w):
        out = {}
        for i, coeff in w.entries.items():
            c, m = divmod(i, Mdim)
            for r, v in rho.get(c, ()):
                cp, h = divmod(r, Hdim)
                for mp, a in act.get(m * Hdim + h, ()):
                    key = cp * Mdim + mp
                    out[key] = out.get(key, zero) + coeff * v * a
        return Vector(w.space, out)

    return stab


def _unit_map(space, unit):
    k = unit_space(space.field)
    return LinMap(k, space, {(i, 0): v for i, v in unit.entries.items()})


def bialgebra_checks(H):
    Hs = H.space
    k = unit_space(H.field)
    unit_map = _unit_map(Hs, H.unit)
    checks = []

    assoc_l = Chain([Hs, Hs, Hs]).apply(H.mult, 0, 2, [Hs]).apply(H.mult, 0, 2, [Hs]).to_map()
    assoc_r = Chain([Hs, Hs, Hs]).apply(H.mult, 1, 2, [Hs]).apply(H.mult, 0, 2, [Hs]).to_map()
    checks.append(("associativity", assoc_l, assoc_r, tensor_space(Hs, Hs, Hs)))

    unit_l = Chain([Hs]).apply(unit_map, 0, 0, [Hs]).apply(H.mult, 0, 2, [Hs]).to_map()
    unit_r = Chain([Hs]).apply(unit_map, 1, 0, [Hs]).apply(H.mult, 0, 2, [Hs]).to_map()
    checks.append(("left-unit", unit_l, identity(Hs), Hs))
    checks.append(("right-unit", unit_r, identity(Hs), Hs))

    coassoc_l = Chain([Hs]).apply(H.comult, 0, 1, [Hs, Hs]).apply(H.comult, 0, 1, [Hs, Hs]).to_map()
    coassoc_r = Chain([Hs]).apply(H.comult, 0, 1, [Hs, Hs]).apply(H.comult, 1, 1, [Hs, Hs]).to_map()
    checks.append(("coassociativity", coassoc_l, coassoc_r, Hs))

    counit_l = Chain([Hs]).apply(H.comult, 0, 1, [Hs, Hs]).apply(H.counit, 0, 1, []).to_map()
    counit_r = Chain([Hs]).apply(H.comult, 0, 1, [Hs, Hs]).apply(H.counit, 1, 1, []).to_map()
    checks.append(("left-counit", counit_l, identity(Hs), Hs))
    checks.append(("right-counit", counit_r, identity(Hs), Hs))

    dm_l = Chain([Hs, Hs]).apply(H.mult, 0, 2, [Hs]).apply(H.comult, 0, 1, [Hs, Hs]).to_map()
    dm_r = (
        Chain([Hs, Hs])
        .apply(H.comult, 0, 1, [Hs, Hs])
        .apply(H.comult, 2, 1, [Hs, Hs])
        .permute([0, 2, 1, 3])
        .apply(H.mult, 0, 2, [Hs])
        .apply(H.mult, 1, 2, [Hs])
        .to_map()
    )
    checks.append(("comult-multiplicative", dm_l, dm_r, tensor_space(Hs, Hs)))

    em_l = Chain([Hs, Hs]).apply(H.mult, 0, 2, [Hs]).apply(H.counit, 0, 1, []).to_map()
    em_r = Chain([Hs, Hs]).apply(H.counit, 0, 1, []).apply(H.counit, 0, 1, []).to_map()
    checks.append(("counit-multiplicative", em_l, em_r, tensor_space(Hs, Hs)))

    results_list = [compare(name, lhs, rhs, dom.label) for name, lhs, rhs, dom in checks]

    unit_image = H.comult.apply(H.unit)
    unit_sq = Chain([k]).apply(unit_map, 0, 0, [Hs]).apply(unit_map, 1, 0, [Hs]).to_map()
    expected = unit_sq.column(0)
    if unit_image == expected:
        results_list.append(results.passed("comult-unital"))
    else:
        results_list.append(results.failed("comult-unital", "1", unit_image, expected))

    eps_unit = H.counit.apply(H.unit)
    if eps_unit.entries == {0: H.field.one}:
        results_list.append(results.passed("counit-unital"))
    else:
        results_list.append(
            results.failed("counit-unital", "1", eps_unit, Vector(unit_space(H.field), {0: H.field.one}))
        )
    return results_list


def verify_hopf(H):
    Hs = H.space
    all_checks = bialgebra_checks(H)
    unit_eps = (
        Chain([Hs]).apply(H.counit, 0, 1, []).apply(_unit_map(Hs, H.unit), 0, 0, [Hs]).to_map()
    )
    anti_l = (
        Chain([Hs])
        .apply(H.comult, 0, 1, [Hs, Hs])
        .apply(H.antipode, 0, 1, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .to_map()
    )
    anti_r = (
        Chain([Hs])
        .apply(H.comult, 0, 1, [Hs, Hs])
        .apply(H.antipode, 1, 1, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .to_map()
    )
    all_checks.append(compare("antipode-left", anti_l, unit_eps, Hs.label))
    all_checks.append(compare("antipode-right", anti_r, unit_eps, Hs.label))
    return results.merge("hopf-axioms", all_checks)


def verify_comodule_algebra(X):
    A, H = X.space, X.hopf
    unit_map, h_unit = _unit_map(A, X.unit), _unit_map(H.space, H.unit)
    checks = []
    assoc_l = Chain([A, A, A]).apply(X.mult, 0, 2, [A]).apply(X.mult, 0, 2, [A]).to_map()
    assoc_r = Chain([A, A, A]).apply(X.mult, 1, 2, [A]).apply(X.mult, 0, 2, [A]).to_map()
    checks.append(compare("algebra-associativity", assoc_l, assoc_r,
                          tensor_space(A, A, A).label))
    u_l = Chain([A]).apply(unit_map, 0, 0, [A]).apply(X.mult, 0, 2, [A]).to_map()
    u_r = Chain([A]).apply(unit_map, 1, 0, [A]).apply(X.mult, 0, 2, [A]).to_map()
    checks.append(compare("algebra-left-unit", u_l, identity(A), A.label))
    checks.append(compare("algebra-right-unit", u_r, identity(A), A.label))

    Hs = H.space
    if X.side == "left":
        co_l = Chain([A]).apply(X.coaction, 0, 1, [Hs, A]).apply(X.coaction, 1, 1, [Hs, A]).to_map()
        co_r = Chain([A]).apply(X.coaction, 0, 1, [Hs, A]).apply(H.comult, 0, 1, [Hs, Hs]).to_map()
        checks.append(compare("comodule-coassociativity", co_l, co_r, A.label))
        cu = Chain([A]).apply(X.coaction, 0, 1, [Hs, A]).apply(H.counit, 0, 1, []).to_map()
        checks.append(compare("comodule-counit", cu, identity(A), A.label))
        mult_co = Chain([A, A]).apply(X.mult, 0, 2, [A]).apply(X.coaction, 0, 1, [Hs, A]).to_map()
        co_mult = (
            Chain([A, A])
            .apply(X.coaction, 0, 1, [Hs, A])
            .apply(X.coaction, 2, 1, [Hs, A])
            .permute([0, 2, 1, 3])
            .apply(H.mult, 0, 2, [Hs])
            .apply(X.mult, 1, 2, [A])
            .to_map()
        )
        checks.append(compare("coaction-multiplicative", mult_co, co_mult,
                              tensor_space(A, A).label))
        co_unit = X.coaction.apply(X.unit)
        expected = (
            Chain([], field=A.field).apply(h_unit, 0, 0, [Hs]).apply(unit_map, 1, 0, [A]).to_map().column(0)
        )
    else:
        co_l = Chain([A]).apply(X.coaction, 0, 1, [A, Hs]).apply(X.coaction, 0, 1, [A, Hs]).to_map()
        co_r = Chain([A]).apply(X.coaction, 0, 1, [A, Hs]).apply(H.comult, 1, 1, [Hs, Hs]).to_map()
        checks.append(compare("comodule-coassociativity", co_l, co_r, A.label))
        cu = Chain([A]).apply(X.coaction, 0, 1, [A, Hs]).apply(H.counit, 1, 1, []).to_map()
        checks.append(compare("comodule-counit", cu, identity(A), A.label))
        mult_co = Chain([A, A]).apply(X.mult, 0, 2, [A]).apply(X.coaction, 0, 1, [A, Hs]).to_map()
        co_mult = (
            Chain([A, A])
            .apply(X.coaction, 0, 1, [A, Hs])
            .apply(X.coaction, 2, 1, [A, Hs])
            .permute([0, 2, 1, 3])
            .apply(X.mult, 0, 2, [A])
            .apply(H.mult, 1, 2, [Hs])
            .to_map()
        )
        checks.append(compare("coaction-multiplicative", mult_co, co_mult,
                              tensor_space(A, A).label))
        co_unit = X.coaction.apply(X.unit)
        expected = (
            Chain([], field=A.field).apply(unit_map, 0, 0, [A]).apply(h_unit, 1, 0, [Hs]).to_map().column(0)
        )
    if co_unit == expected:
        checks.append(results.passed("coaction-unital"))
    else:
        checks.append(results.failed("coaction-unital", "1", co_unit, expected))
    return results.merge("comodule-algebra", checks)


def verify_comodule_coalgebra(X):
    C, H, Hs = X.space, X.hopf, X.hopf.space
    checks = []
    co_l = Chain([C]).apply(X.comult, 0, 1, [C, C]).apply(X.comult, 0, 1, [C, C]).to_map()
    co_r = Chain([C]).apply(X.comult, 0, 1, [C, C]).apply(X.comult, 1, 1, [C, C]).to_map()
    checks.append(compare("coalgebra-coassociativity", co_l, co_r, C.label))
    cu_l = Chain([C]).apply(X.comult, 0, 1, [C, C]).apply(X.counit, 0, 1, []).to_map()
    cu_r = Chain([C]).apply(X.comult, 0, 1, [C, C]).apply(X.counit, 1, 1, []).to_map()
    checks.append(compare("coalgebra-left-counit", cu_l, identity(C), C.label))
    checks.append(compare("coalgebra-right-counit", cu_r, identity(C), C.label))

    cm_l = Chain([C]).apply(X.coaction, 0, 1, [C, Hs]).apply(X.coaction, 0, 1, [C, Hs]).to_map()
    cm_r = Chain([C]).apply(X.coaction, 0, 1, [C, Hs]).apply(H.comult, 1, 1, [Hs, Hs]).to_map()
    checks.append(compare("comodule-coassociativity", cm_l, cm_r, C.label))
    cm_u = Chain([C]).apply(X.coaction, 0, 1, [C, Hs]).apply(H.counit, 1, 1, []).to_map()
    checks.append(compare("comodule-counit", cm_u, identity(C), C.label))

    lhs = (
        Chain([C])
        .apply(X.comult, 0, 1, [C, C])
        .apply(X.coaction, 0, 1, [C, Hs])
        .apply(X.coaction, 2, 1, [C, Hs])
        .permute([0, 2, 1, 3])
        .apply(H.mult, 2, 2, [Hs])
        .to_map()
    )
    rhs = (
        Chain([C])
        .apply(X.coaction, 0, 1, [C, Hs])
        .apply(X.comult, 0, 1, [C, C])
        .to_map()
    )
    checks.append(compare("comult-colinear", lhs, rhs, C.label))
    lhs_e = (
        Chain([C]).apply(X.coaction, 0, 1, [C, Hs]).apply(X.counit, 0, 1, []).to_map()
    )
    rhs_e = (
        Chain([C]).apply(X.counit, 0, 1, []).apply(_unit_map(Hs, H.unit), 0, 0, [Hs]).to_map()
    )
    checks.append(compare("counit-colinear", lhs_e, rhs_e, C.label))
    return results.merge("comodule-coalgebra", checks)


def verify_module_algebra(X):
    A, H, Hs = X.space, X.hopf, X.hopf.space
    unit_map, h_unit = _unit_map(A, X.unit), _unit_map(Hs, H.unit)
    checks = []
    assoc_l = Chain([A, A, A]).apply(X.mult, 0, 2, [A]).apply(X.mult, 0, 2, [A]).to_map()
    assoc_r = Chain([A, A, A]).apply(X.mult, 1, 2, [A]).apply(X.mult, 0, 2, [A]).to_map()
    checks.append(compare("algebra-associativity", assoc_l, assoc_r,
                          tensor_space(A, A, A).label))
    u_l = Chain([A]).apply(unit_map, 0, 0, [A]).apply(X.mult, 0, 2, [A]).to_map()
    checks.append(compare("algebra-unit", u_l, identity(A), A.label))
    u_r = Chain([A]).apply(unit_map, 1, 0, [A]).apply(X.mult, 0, 2, [A]).to_map()
    checks.append(compare("algebra-right-unit", u_r, identity(A), A.label))

    act_assoc_l = Chain([Hs, Hs, A]).apply(H.mult, 0, 2, [Hs]).apply(X.action, 0, 2, [A]).to_map()
    act_assoc_r = Chain([Hs, Hs, A]).apply(X.action, 1, 2, [A]).apply(X.action, 0, 2, [A]).to_map()
    checks.append(compare("module-associativity", act_assoc_l, act_assoc_r,
                          tensor_space(Hs, Hs, A).label))
    act_unit = Chain([A]).apply(h_unit, 0, 0, [Hs]).apply(X.action, 0, 2, [A]).to_map()
    checks.append(compare("module-unit", act_unit, identity(A), A.label))

    lhs = Chain([Hs, A, A]).apply(X.mult, 1, 2, [A]).apply(X.action, 0, 2, [A]).to_map()
    rhs = (
        Chain([Hs, A, A])
        .apply(H.comult, 0, 1, [Hs, Hs])
        .permute([0, 2, 1, 3])
        .apply(X.action, 0, 2, [A])
        .apply(X.action, 1, 2, [A])
        .apply(X.mult, 0, 2, [A])
        .to_map()
    )
    checks.append(compare("action-multiplicative", lhs, rhs, tensor_space(Hs, A, A).label))
    lhs_u = Chain([Hs]).apply(unit_map, 1, 0, [A]).apply(X.action, 0, 2, [A]).to_map()
    rhs_u = Chain([Hs]).apply(H.counit, 0, 1, []).apply(unit_map, 0, 0, [A]).to_map()
    checks.append(compare("action-unital", lhs_u, rhs_u, Hs.label))
    return results.merge("module-algebra", checks)


def verify_module_comodule(X):
    M, H, Hs = X.space, X.hopf, X.hopf.space
    checks = []
    a_l = Chain([M, Hs, Hs]).apply(X.action, 0, 2, [M]).apply(X.action, 0, 2, [M]).to_map()
    a_r = Chain([M, Hs, Hs]).apply(H.mult, 1, 2, [Hs]).apply(X.action, 0, 2, [M]).to_map()
    checks.append(compare("module-associativity", a_l, a_r, tensor_space(M, Hs, Hs).label))
    a_u = Chain([M]).apply(_unit_map(Hs, H.unit), 1, 0, [Hs]).apply(X.action, 0, 2, [M]).to_map()
    checks.append(compare("module-unit", a_u, identity(M), M.label))
    c_l = Chain([M]).apply(X.coaction, 0, 1, [Hs, M]).apply(X.coaction, 1, 1, [Hs, M]).to_map()
    c_r = Chain([M]).apply(X.coaction, 0, 1, [Hs, M]).apply(H.comult, 0, 1, [Hs, Hs]).to_map()
    checks.append(compare("comodule-coassociativity", c_l, c_r, M.label))
    c_u = Chain([M]).apply(X.coaction, 0, 1, [Hs, M]).apply(H.counit, 0, 1, []).to_map()
    checks.append(compare("comodule-counit", c_u, identity(M), M.label))
    return results.merge("module-comodule", checks)


def verify_crossed_product(X):
    P = X.space
    unit_map = _unit_map(P, X.unit)
    lhs = Chain([P, P, P]).apply(X.mult, 0, 2, [P]).apply(X.mult, 0, 2, [P]).to_map()
    rhs = Chain([P, P, P]).apply(X.mult, 1, 2, [P]).apply(X.mult, 0, 2, [P]).to_map()
    checks = [compare("crossed-product-associativity", lhs, rhs,
                      lambda col: tensor_space(P, P, P).labels[col])]
    for name, at in (("left", 0), ("right", 1)):
        unit = Chain([P]).apply(unit_map, at, 0, [P]).apply(X.mult, 0, 2, [P])
        checks.append(compare("crossed-product-%s-unit" % name, unit.to_map(),
                              identity(P), P.label))
    return results.merge("crossed-product", checks)


def check_sayd(M):
    H, Hs, Ms = M.hopf, M.hopf.space, M.space
    lhs = (
        Chain([Ms, Hs])
        .apply(M.action, 0, 2, [Ms])
        .apply(M.coaction, 0, 1, [Hs, Ms])
        .to_map()
    )
    rhs = (
        Chain([Ms, Hs])
        .apply(H.iterated_comult(2), 1, 1, [Hs, Hs, Hs])
        .apply(M.coaction, 0, 1, [Hs, Ms])
        .permute([4, 0, 2, 1, 3])
        .apply(H.antipode, 0, 1, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .apply(M.action, 1, 2, [Ms])
        .to_map()
    )
    ayd = compare("anti-yetter-drinfeld", lhs, rhs, tensor_space(Ms, Hs).label)
    if not ayd:
        return ayd
    stab = (
        Chain([Ms])
        .apply(M.coaction, 0, 1, [Hs, Ms])
        .permute([1, 0])
        .apply(M.action, 0, 2, [Ms])
        .to_map()
    )
    res = compare("stability", stab, identity(Ms), Ms.label)
    if not res:
        return res
    return results.passed("sayd", detail=M.name)


def check_sayd_over_coalgebra(C, M, n_max=2):
    H, Hs, Ms, Cs = C.hopf, C.hopf.space, M.space, C.space
    lhs = (
        Chain([Cs, Ms])
        .apply(C.coaction, 0, 1, [Cs, Hs])
        .permute([0, 2, 1])
        .apply(M.action, 1, 2, [Ms])
        .apply(M.coaction, 1, 1, [Hs, Ms])
        .to_map()
    )
    rhs = (
        Chain([Cs, Ms])
        .apply(C.coaction, 0, 1, [Cs, Hs])
        .apply(H.iterated_comult(2), 1, 1, [Hs, Hs, Hs])
        .apply(M.coaction, 4, 1, [Hs, Ms])
        .permute([0, 3, 4, 1, 5, 2])
        .apply(H.antipode, 1, 1, [Hs])
        .apply(H.mult, 1, 2, [Hs])
        .apply(H.mult, 1, 2, [Hs])
        .apply(M.action, 2, 2, [Ms])
        .to_map()
    )
    res = compare("carrier-ayd-coalgebra", lhs, rhs, tensor_space(Cs, Ms).label)
    if not res:
        return res
    dims_notes = []
    for n in range(n_max + 1):
        sub = cotensor_space_by_rows(C, M, n)
        dims_notes.append("n=%d, dim=%d" % (n, sub.dim))
        stab = coalgebra_stability(C, M, n + 1)
        for j, w in enumerate(sub.basis):
            out = stab(w)
            if out != w:
                return results.failed(
                    "carrier-stability-coalgebra",
                    "n=%d, basis element %d = %s" % (n, j, w.describe()),
                    out,
                    w,
                )
    return results.passed("sayd-over-coalgebra", detail="; ".join(dims_notes))


def check_commutative_coaction_algebra(A, n_max=0):
    """Coaction legs commute with every element of H, on A^{⊗(n+1)} under the
    diagonal coaction for 0 ≤ n ≤ n_max.  The elementwise (n=0) identity
    propagates leg-by-leg, so n ≥ 1 only re-verifies what n = 0 implies."""
    H, Hs, As = A.hopf, A.hopf.space, A.space
    for n in range(n_max + 1):
        lam = diag_left_coaction(A, n + 1)
        legs = [As] * (n + 1) + [Hs]
        lhs_n = (
            Chain(legs)
            .apply(lam, 0, n + 1, [Hs] + [As] * (n + 1))
            .permute([0, n + 2] + list(range(1, n + 2)))
            .apply(H.mult, 0, 2, [Hs])
            .to_map()
        )
        rhs_n = (
            Chain(legs)
            .apply(lam, 0, n + 1, [Hs] + [As] * (n + 1))
            .permute([n + 2, 0] + list(range(1, n + 2)))
            .apply(H.mult, 0, 2, [Hs])
            .to_map()
        )
        res_n = compare(
            "commutative-coaction-algebra" + ("(n=%d)" % n if n else ""), lhs_n, rhs_n,
            tensor_space(*legs).label
        )
        if not res_n:
            return res_n
    return results.passed("commutative-coaction-algebra", detail=A.name)


def check_cocommutative_coaction_algebra(A, n_max=2):
    """b̃⟨−1⟩a⟨−1⟩⁽¹⁾ ⊗ a⟨−1⟩⁽²⁾ ⊗ a⟨0⟩ ⊗ b̃⟨0⟩ =
    a⟨−1⟩⁽²⁾b̃⟨−1⟩ ⊗ a⟨−1⟩⁽¹⁾ ⊗ a⟨0⟩ ⊗ b̃⟨0⟩ for a ∈ A, b̃ ∈ A^{⊗n}, 1 ≤ n ≤ n_max."""
    H, Hs, As = A.hopf, A.hopf.space, A.space
    coact = A.left_coaction()
    for n in range(1, n_max + 1):
        lam_n = diag_left_coaction(A, n)
        legs = [As] * (n + 1)

        def base(chain):
            chain.apply(coact, 0, 1, [Hs, As])
            chain.apply(lam_n, 2, n, [Hs] + [As] * n)
            chain.apply(H.comult, 0, 1, [Hs, Hs])
            # legs now: ha1 ha2 a0 hb b1..bn
            return chain

        lhs = (
            base(Chain(legs))
            .permute([3, 0, 1, 2] + list(range(4, n + 4)))
            .apply(H.mult, 0, 2, [Hs])
            .to_map()
        )
        rhs = (
            base(Chain(legs))
            .permute([1, 3, 0, 2] + list(range(4, n + 4)))
            .apply(H.mult, 0, 2, [Hs])
            .to_map()
        )
        res = compare(
            "cocommutative-coaction-algebra(n=%d)" % n, lhs, rhs, tensor_space(*legs).label
        )
        if not res:
            return res
    return results.passed("cocommutative-coaction-algebra", detail=A.name)


def check_commutative_coaction_coalgebra(C):
    """c⟨0⟩ ⊗ h·c⟨1⟩ = c⟨0⟩ ⊗ c⟨1⟩·h for all basis c ∈ C, h ∈ H."""
    H, Hs, Cs = C.hopf, C.hopf.space, C.space
    lhs = (
        Chain([Cs, Hs])
        .apply(C.coaction, 0, 1, [Cs, Hs])
        .permute([0, 2, 1])
        .apply(H.mult, 1, 2, [Hs])
        .to_map()
    )
    rhs = (
        Chain([Cs, Hs])
        .apply(C.coaction, 0, 1, [Cs, Hs])
        .apply(H.mult, 1, 2, [Hs])
        .to_map()
    )
    res = compare("commutative-coaction-coalgebra", lhs, rhs, tensor_space(Cs, Hs).label)
    if res:
        return results.passed("commutative-coaction-coalgebra", detail=C.name)
    return res


def check_cocommutative_coaction_coalgebra(C, n_max=2):
    """c̃⟨0⟩ ⊗ d⟨0⟩ ⊗ c̃⟨1⟩d⟨1⟩⁽¹⁾ ⊗ d⟨1⟩⁽²⁾ =
    c̃⟨0⟩ ⊗ d⟨0⟩ ⊗ d⟨1⟩⁽²⁾c̃⟨1⟩ ⊗ d⟨1⟩⁽¹⁾ for d ∈ C, c̃ ∈ C^{⊗n}, 0 ≤ n ≤ n_max."""
    H, Hs, Cs = C.hopf, C.hopf.space, C.space
    for n in range(n_max + 1):
        rho_n = diag_right_coaction(C, n)
        legs = [Cs] * n + [Cs]

        def base(chain):
            if n:
                chain.apply(rho_n, 0, n, [Cs] * n + [Hs])
            else:
                chain.apply(rho_n, 0, 0, [Hs])
            chain.apply(C.coaction, n + 1, 1, [Cs, Hs])
            chain.apply(H.comult, n + 2, 1, [Hs, Hs])
            # legs: c̃(n) hc d0 hd1 hd2
            return chain

        lhs = (
            base(Chain(legs))
            .permute(list(range(n)) + [n + 1, n, n + 2, n + 3])
            .apply(H.mult, n + 1, 2, [Hs])
            .to_map()
        )
        rhs = (
            base(Chain(legs))
            .permute(list(range(n)) + [n + 1, n + 3, n, n + 2])
            .apply(H.mult, n + 1, 2, [Hs])
            .to_map()
        )
        res = compare(
            "cocommutative-coaction-coalgebra(n=%d)" % n, lhs, rhs, tensor_space(*legs).label
        )
        if not res:
            return res
    return results.passed("cocommutative-coaction-coalgebra", detail=C.name)


def left_multiplication(H, vec):
    """h ↦ vec·h as a matrix on H, one pass over the product per entry of vec."""
    d = H.dim
    entries = {}
    for i, coeff in vec.entries.items():
        for (r, c), v in H.mult.entries.items():
            a, b = divmod(c, d)
            if a == i:
                key = (r, b)
                entries[key] = entries.get(key, H.field.zero) + coeff * v
    return LinMap(H.space, H.space, {k: v for k, v in entries.items() if v})


def right_multiplication(H, vec):
    """h ↦ h·vec as a matrix on H, one pass over the product per entry of vec."""
    d = H.dim
    entries = {}
    for i, coeff in vec.entries.items():
        for (r, c), v in H.mult.entries.items():
            a, b = divmod(c, d)
            if b == i:
                key = (r, a)
                entries[key] = entries.get(key, H.field.zero) + coeff * v
    return LinMap(H.space, H.space, {k: v for k, v in entries.items() if v})


def twisted_antipode(H, delta, convention="first-leg"):
    """S_δ(h) = δ(h⁽¹⁾)S(h⁽²⁾), or δ(h⁽²⁾)S(h⁽¹⁾) with convention="second-leg",
    one pipeline written out per convention."""
    Hs = H.space
    if convention == "first-leg":
        chain = (
            Chain([Hs])
            .apply(H.comult, 0, 1, [Hs, Hs])
            .apply(delta.delta, 0, 1, [])
            .apply(H.antipode, 0, 1, [Hs])
        )
    elif convention == "second-leg":
        chain = (
            Chain([Hs])
            .apply(H.comult, 0, 1, [Hs, Hs])
            .apply(delta.delta, 1, 1, [])
            .apply(H.antipode, 0, 1, [Hs])
        )
    else:
        raise ValueError("unknown twisted-antipode convention %r" % convention)
    return chain.to_map()


def solve_antipode(space, mult, unit_vec, comult, counit):
    """Solve m∘(S⊗id)∘Δ = unit∘ε for S (linear in S); unique when it exists."""
    d = space.dim
    field = space.field
    # unknown S[z, h1]; flat index z*d + h1
    rows = []
    rhs = []
    mult_cols = mult.by_col()
    comult_cols = comult.by_col()
    eps = {c: v for (_, c), v in counit.entries.items()}
    for h in range(d):
        coeffs_per_y = {}
        for hh, dv in comult_cols.get(h, ()):
            h1, h2 = divmod(hh, d)
            for z in range(d):
                for y, mv in mult_cols.get(z * d + h2, ()):
                    key = (y, z * d + h1)
                    coeffs_per_y[key] = coeffs_per_y.get(key, field.zero) + dv * mv
        for y in range(d):
            row = {
                zh1: v for (yy, zh1), v in coeffs_per_y.items() if yy == y and v
            }
            rows.append(row)
            target = eps.get(h, field.zero) * unit_vec.entries.get(y, field.zero)
            rhs.append(target)
    sol = rref_oracle.solve_linear(rows, rhs, d * d, field)
    if sol is None:
        raise StructureError(
            results.failed("antipode-solvable", "bialgebra", "no antipode", "required")
        )
    entries = {}
    for flat, v in sol.items():
        z, h1 = divmod(flat, d)
        entries[(z, h1)] = v
    return LinMap(space, space, entries)


def bicrossed_product(fz, field, name=None):
    """k^F ⋈ k[U] on the basis e_f⋈u at position fi·|U| + ui: product and
    coproduct filtered out of four nested loops, antipode solved."""
    group = fz.group
    nf, nu = len(fz.left), len(fz.right)
    labels = tuple(
        "δ%s⋈%s" % (group.labels[f], group.labels[u])
        for f in fz.left
        for u in fz.right
    )
    space = Space(labels, field)
    one = field.one
    fpos = {f: i for i, f in enumerate(fz.left)}
    upos = {u: i for i, u in enumerate(fz.right)}

    def flat(fi, ui):
        return fi * nu + ui

    d = nf * nu
    mult_entries = {}
    for fi, f in enumerate(fz.left):
        for ui, u in enumerate(fz.right):
            for gi, g in enumerate(fz.left):
                for vi, v in enumerate(fz.right):
                    if fpos[fz.act_left(u, g)] != fi:
                        continue
                    uv = upos[group.mul(u, v)]
                    col = flat(fi, ui) * d + flat(gi, vi)
                    mult_entries[(flat(fi, uv), col)] = one
    mult = LinMap(tensor_space(space, space), space, mult_entries)
    unit = Vector(
        space, {flat(fi, upos[group.identity]): one for fi in range(nf)}
    )
    comult_entries = {}
    for fi, f in enumerate(fz.left):
        for ui, u in enumerate(fz.right):
            for ai, a in enumerate(fz.left):
                for bi, b in enumerate(fz.left):
                    if group.mul(a, b) != f:
                        continue
                    # left leg carries u ◁ b⁻¹
                    ub = upos[fz.act_right(u, group.inv(b))]
                    row = flat(ai, ub) * d + flat(bi, ui)
                    comult_entries[(row, flat(fi, ui))] = one
    comult = LinMap(space, tensor_space(space, space), comult_entries)
    counit = LinMap(
        space,
        unit_space(field),
        {(0, flat(fpos[group.identity], ui)): one for ui in range(nu)},
    )
    antipode = solve_antipode(space, mult, unit, comult, counit)
    return HopfAlgebra(
        space, mult, unit, comult, counit, antipode,
        name=name
        or "k^%s⋈k[%s]" % ("{" + ",".join(fz.f_labels()) + "}", "{" + ",".join(fz.u_labels()) + "}"),
    )


def bicrossed_function_comodule_algebra(fz, H):
    """e_f ↦ Σ_{ab=f} e_a ⊗ (e_b⋈1) on the function-algebra factor of
    H = k^F ⋈ k[U], filtered out of three nested loops."""
    group = fz.group
    field = H.field
    nf, nu = len(fz.left), len(fz.right)
    labels = tuple("δ%s" % group.labels[f] for f in fz.left)
    A = Space(labels, field)
    one = field.one
    mult = LinMap(tensor_space(A, A), A, {(a, a * nf + a): one for a in range(nf)})
    unit = Vector(A, {a: one for a in range(nf)})
    upos_e = fz.right.index(group.identity)
    entries = {}
    for fi, f in enumerate(fz.left):
        for ai, a in enumerate(fz.left):
            for bi, b in enumerate(fz.left):
                if group.mul(a, b) != f:
                    continue
                h = bi * nu + upos_e
                entries[(ai * (nf * nu) + h, fi)] = one
    coaction = LinMap(A, tensor_space(A, H.space), entries)
    return ComoduleAlgebra(H, A, mult, unit, coaction, side="right", name="F-factor")


def bicrossed_group_comodule_coalgebra(fz, H):
    """u ↦ Σ_f (u◁f) ⊗ (e_{f⁻¹}⋈1) on the group-algebra factor of
    H = k^F ⋈ k[U]."""
    group = fz.group
    field = H.field
    nf, nu = len(fz.left), len(fz.right)
    labels = tuple(group.labels[u] for u in fz.right)
    C = Space(labels, field)
    one = field.one
    comult = LinMap(C, tensor_space(C, C), {(u * nu + u, u): one for u in range(nu)})
    counit = LinMap(C, unit_space(field), {(0, u): one for u in range(nu)})
    upos = {u: i for i, u in enumerate(fz.right)}
    fpos = {f: i for i, f in enumerate(fz.left)}
    upos_e = fz.right.index(group.identity)
    entries = {}
    for ui, u in enumerate(fz.right):
        for f in fz.left:
            uf = upos[fz.act_right(u, f)]
            h = fpos[group.inv(f)] * nu + upos_e
            key = (uf * (nf * nu) + h, ui)
            entries[key] = entries.get(key, field.zero) + one
    coaction = LinMap(C, tensor_space(C, H.space), entries)
    return ComoduleCoalgebra(H, C, comult, counit, coaction, name="U-factor")


def search_characters(field, d, products, unit):
    """Every character with basis values in {0, 1, -1}, in ``itertools.product``
    order, of the d-dimensional algebra whose product sends basis pair (i, j)
    to ``products[i·d + j]`` (pairs (r, v)) and whose unit has the entries
    ``unit``.  Each value is drawn once, as −1 = 1 over GF(2)."""
    values = dict.fromkeys((field.zero, field.one, field.from_int(-1)))
    return [combo for combo in itertools.product(values, repeat=d)
            if is_character(field, products, unit, combo)]


def is_character(field, products, unit, values):
    """δ(1) = 1 and δ(ab) = δ(a)δ(b) on basis pairs of an algebra given as in
    ``search_characters``, on raw entries (no witness), over GF(p) reduced."""
    p, d = field.modulus, len(values)
    at_unit = sum(v * values[i] for i, v in unit.items())
    if p is None:
        return at_unit == 1 and all(
            sum(v * values[r] for r, v in products.get(i * d + j, ())) == a * b
            for i, a in enumerate(values) for j, b in enumerate(values))
    return at_unit % p == 1 and all(
        (sum(v * values[r] for r, v in products.get(i * d + j, ())) - a * b) % p == 0
        for i, a in enumerate(values) for j, b in enumerate(values))

"""The built-in example corpus and the named runnable scenarios.

Every lemma- or proposition-style statement the kit mechanizes has one named
scenario here; ``run_scenario`` executes it and returns one CheckResult per
instance, with skipped-premise instances reported as passes whose detail
says why.  The full corpus passing is an acceptance gate.
"""

from __future__ import annotations

from .fields import QQ
from .groups import cyclic_group, direct_product, symmetric_group
from .hopf import (
    Character,
    HopfAlgebra,
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
    unit_group_like,
)
from .symmetries import (
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
    comodule_algebra_over_trivial_hopf,
    comult_comodule_coalgebra,
    algebra_over_trivial_hopf,
    regular_comodule_algebra,
    regular_action_trivial_coaction,
    regular_coaction_trivial_action,
    scalar_coefficients,
    stable_subalgebra,
    translation_module_algebra,
    trivial_comodule_algebra,
    trivial_comodule_coalgebra,
    trivial_coaction_module,
)
from .cocyclic import check_hcc
from .cup import CrossedPairing
from .linalg import membership
from . import results
from .results import CheckResult


_HOPF_CACHE = {}


def hopf_names():
    return [
        "trivial", "kZ2", "kZ3", "kS3", "dualZ3", "dualS3", "sweedler-h4",
        "bicrossed-s3-f3", "bicrossed-s3-f2", "bicrossed-z2xz2",
    ]


def bicrossed_names():
    return ["bicrossed-s3-f3", "bicrossed-s3-f2", "bicrossed-z2xz2"]


def get_bicrossed(name, field=QQ):
    key = (name, field.name)
    if key in _HOPF_CACHE:
        return _HOPF_CACHE[key]
    s3 = symmetric_group(3)
    if name == "bicrossed-s3-f3":
        out = bicrossed_product(s3, ["e", "(123)", "(132)"], ["e", "(12)"], field=field)
    elif name == "bicrossed-s3-f2":
        out = bicrossed_product(s3, ["e", "(12)"], ["e", "(123)", "(132)"], field=field)
    elif name == "bicrossed-z2xz2":
        g = direct_product(cyclic_group(2), cyclic_group(2))
        out = bicrossed_product(g, ["(e,e)", "(t,e)"], ["(e,e)", "(e,t)"], field=field)
    else:
        raise KeyError("unknown bicrossed product %r" % name)
    _HOPF_CACHE[key] = out
    return out


def get_hopf(name, field=QQ) -> HopfAlgebra:
    key = ("H", name, field.name)
    if key in _HOPF_CACHE:
        return _HOPF_CACHE[key]
    if name == "trivial":
        out = trivial_hopf(field)
    elif name == "kZ2":
        out = group_algebra(cyclic_group(2), field, name="k[Z2]")
    elif name == "kZ3":
        out = group_algebra(cyclic_group(3), field, name="k[Z3]")
    elif name == "kS3":
        out = group_algebra(symmetric_group(3), field, name="k[S3]")
    elif name == "dualZ3":
        out = function_hopf(cyclic_group(3), field, name="k^Z3")
    elif name == "dualS3":
        out = function_hopf(symmetric_group(3), field, name="k^S3")
    elif name == "sweedler-h4":
        out = sweedler_h4(field)
    elif name in bicrossed_names():
        out = get_bicrossed(name, field).hopf
    else:
        raise KeyError("unknown corpus Hopf algebra %r" % name)
    _HOPF_CACHE[key] = out
    return out


def sweedler_sign_character(H4):
    field = H4.field
    return Character.from_values(
        H4, [field.one, field.from_int(-1), field.zero, field.zero], name="sgn")


def modular_pairs(name, max_pairs=6):
    """Modular pairs (δ, σ) for a corpus Hopf algebra over ℚ, from the
    complete lists of characters and group-likes, in their order."""
    H = get_hopf(name)
    pairs = []
    sigmas = enumerate_group_likes(H)
    for delta in enumerate_characters(H):
        for sigma in sigmas:
            if check_modular_pair(H, delta, sigma):
                pairs.append((delta, sigma))
    return pairs[:max_pairs] if max_pairs else pairs


# carriers small enough for degree-2 colinear computations
_SIDE_NAMES = [
    "kZ2", "kZ3", "kS3", "dualZ3", "sweedler-h4", "bicrossed-s3-f3", "bicrossed-s3-f2",
]


def comodule_algebras_for(name):
    H = get_hopf(name)
    out = [("regular", regular_comodule_algebra(H)),
           ("trivial", trivial_comodule_algebra(H))]
    return out


def comodule_coalgebras_for(name):
    H = get_hopf(name)
    out = [("adjoint", adjoint_comodule_coalgebra(H)),
           ("trivial", trivial_comodule_coalgebra(H))]
    if name in bicrossed_names():
        out.append(("u-factor", bicrossed_group_comodule_coalgebra(get_bicrossed(name))))
    return out


def classical_sayd_coefficients(name):
    """Module-comodules over the named Hopf algebra that pass the classical
    SAYD test, with labels."""
    H = get_hopf(name)
    out = []
    for delta, sigma in modular_pairs(name):
        M = scalar_coefficients(H, delta, sigma)
        if check_sayd(M):
            out.append(("scalar(%s,%s)" % (delta.name, sigma.name), M))
    M = regular_coaction_trivial_action(H)
    if check_sayd(M):
        out.append(("regular-coaction", M))
    M = regular_action_trivial_coaction(H)
    if check_sayd(M):
        out.append(("regular-action", M))
    return out


def _named(name, check):
    return CheckResult(check.passed, "%s :: %s" % (name, check.condition),
                       check.witness, check.detail)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


# each carrier side: its carriers over a corpus Hopf algebra, its involution
# check, its carrier-SAYD check and its hcc flavor
_SIDES = {
    "algebra": (comodule_algebras_for, check_involution_over_algebra,
                check_sayd_over_algebra, "comodule-algebra"),
    "coalgebra": (comodule_coalgebras_for, check_involution_over_coalgebra,
                  check_sayd_over_coalgebra, "comodule-coalgebra"),
}


def _scalar_involution(side):
    carriers, involution, carrier_sayd, _ = _SIDES[side]
    out = []
    for name in ["kZ2", "kZ3", "sweedler-h4", "bicrossed-s3-f2"]:
        for delta, sigma in modular_pairs(name):
            for cname, X in carriers(name):
                tag = "%s/%s/(%s,%s)" % (name, cname, delta.name, sigma.name)
                if not involution(X, delta, sigma).passed:
                    out.append(results.passed(
                        tag, detail="involution premise fails; implication vacuous"))
                    continue
                M = scalar_coefficients(X.hopf, delta, sigma)
                out.append(_named(tag, carrier_sayd(X, M, n_max=2)))
    return out


def _sayd_lands_in_carrier_sayd(side):
    carriers, _, carrier_sayd, _ = _SIDES[side]
    out = []
    for name in _SIDE_NAMES:
        for mname, M in classical_sayd_coefficients(name):
            for cname, X in carriers(name):
                tag = "%s/%s/%s" % (name, cname, mname)
                out.append(_named(tag, carrier_sayd(X, M, n_max=2)))
    return out


def _carrier_sayd_gives_cocyclic(side):
    carriers, _, carrier_sayd, flavor = _SIDES[side]
    out = []
    for name in ["kZ2", "kZ3", "sweedler-h4", "bicrossed-s3-f2"]:
        for mname, M in classical_sayd_coefficients(name):
            for cname, X in carriers(name):
                if not carrier_sayd(X, M, n_max=2):
                    continue
                tag = "%s/%s/%s" % (name, cname, mname)
                out.append(_named(tag, check_hcc(flavor, X, M, N=2)))
    return out


def scenario_scalar_involution_algebra():
    """Modular pair + involution over the coaction legs of A forces the
    one-dimensional twisted coefficient to pass the algebra-side SAYD test."""
    return _scalar_involution("algebra")


def scenario_stable_subalgebra():
    """The twisted-square-antipode kernel is a comodule subalgebra on which
    the scalar coefficient becomes carrier-SAYD."""
    out = []
    H4 = get_hopf("sweedler-h4")
    eps = counit_character(H4)
    one = unit_group_like(H4)
    A = regular_comodule_algebra(H4)
    B = stable_subalgebra(A, eps, one)
    expected = [H4.space.basis_vector(0), H4.space.basis_vector(1)]
    ok = B.dim == 2 and all(
        membership(vec, B.embedding)[0] for vec in expected)
    out.append(CheckResult(ok, "sweedler-h4 :: kernel is span{1,g}",
                           detail="dim=%d" % B.dim))
    out.append(_named("sweedler-h4 :: subalgebra involution",
                      check_involution_over_algebra(B, eps, one)))
    M = scalar_coefficients(H4, eps, one)
    out.append(_named("sweedler-h4 :: scalar coefficient over the subalgebra",
                      check_sayd_over_algebra(B, M, n_max=2)))
    # a case where the condition holds everywhere: kernel is all of A
    H2 = get_hopf("kZ2")
    A2 = regular_comodule_algebra(H2)
    sign = [c for c in enumerate_characters(H2)
            if c.value(1) == H2.field.from_int(-1) and c.value(0) == H2.field.one]
    B2 = stable_subalgebra(A2, sign[0], unit_group_like(H2))
    out.append(CheckResult(B2.dim == A2.dim, "kZ2 :: involutive case recovers A",
                           detail="dim=%d" % B2.dim))
    return out


def scenario_commutative_coaction_algebra():
    """When every coaction leg commutes with H, any comodule with the trivial
    action passes the algebra-side SAYD test."""
    out = []
    # positive case: the function factor of the U-act-trivial bismash
    B2 = get_bicrossed("bicrossed-s3-f2")
    Hcop = co_opposite(B2.hopf)
    F = as_left_comodule_algebra(bicrossed_function_comodule_algebra(B2), Hcop)
    comm = check_commutative_coaction_algebra(F, n_max=2)
    out.append(_named("bicrossed-s3-f2/F", comm))
    if comm:
        for mname, M in [("regular-coaction", regular_coaction_trivial_action(Hcop)),
                         ("unit-coaction", trivial_comodule_M(Hcop))]:
            out.append(_named("bicrossed-s3-f2/F/%s" % mname,
                              check_sayd_over_algebra(F, M, n_max=2)))
    # trivial carrier is always commutative
    for name in ["kS3", "sweedler-h4"]:
        H = get_hopf(name)
        A = trivial_comodule_algebra(H)
        comm = check_commutative_coaction_algebra(A)
        out.append(_named("%s/trivial-carrier" % name, comm))
        if comm:
            out.append(_named("%s/trivial-carrier/regular-coaction" % name,
                              check_sayd_over_algebra(
                                  A, regular_coaction_trivial_action(H), n_max=2)))
    # negative control: the noncommutative-coaction factorization fails
    B1 = get_bicrossed("bicrossed-s3-f3")
    F1 = as_left_comodule_algebra(bicrossed_function_comodule_algebra(B1))
    neg = check_commutative_coaction_algebra(F1)
    out.append(CheckResult(not neg.passed,
                           "bicrossed-s3-f3/F :: commutativity fails as expected",
                           neg.witness))
    return out


def trivial_comodule_M(H):
    """M = k with trivial action and trivial coaction."""
    return scalar_coefficients(H, counit_character(H), unit_group_like(H), name="k(triv,triv)")


def scenario_cocommutative_coaction_algebra():
    """When the coaction is cocommutative against the diagonal legs, any
    module with the trivial coaction yields a well-defined cocyclic module."""
    out = []
    for bname in ["bicrossed-s3-f3", "bicrossed-s3-f2"]:
        B = get_bicrossed(bname)
        Hcop = co_opposite(B.hopf)
        F = as_left_comodule_algebra(bicrossed_function_comodule_algebra(B), Hcop)
        coco = check_cocommutative_coaction_algebra(F, n_max=2)
        out.append(_named("%s/F" % bname, coco))
        if coco:
            M = trivial_coaction_module(Hcop, Hcop.mult, space=Hcop.space,
                                        name="H(mult,triv)")
            out.append(_named("%s/F/regular-action" % bname,
                              check_hcc("comodule-algebra", F, M, N=2)))
    # negative control: the regular carrier over a noncommutative group algebra
    A = regular_comodule_algebra(get_hopf("kS3"))
    neg = check_cocommutative_coaction_algebra(A, n_max=1)
    out.append(CheckResult(not neg.passed,
                           "kS3/regular :: cocommutativity fails as expected",
                           neg.witness))
    return out


def scenario_sayd_lands_in_carrier_sayd_algebra():
    """Classical SAYD coefficients pass the algebra-side carrier test for
    every carrier in the corpus."""
    return _sayd_lands_in_carrier_sayd("algebra")


def scenario_carrier_sayd_gives_cocyclic_algebra():
    """Carrier-SAYD coefficients make the algebra-side operators well-defined
    and cocyclic (membership plus all identities)."""
    return _carrier_sayd_gives_cocyclic("algebra")


def scenario_scalar_involution_coalgebra():
    """Modular pair + involution over the coaction legs of C forces the
    one-dimensional twisted coefficient to pass the coalgebra-side SAYD test."""
    return _scalar_involution("coalgebra")


def scenario_commutative_coaction_coalgebra():
    """Commutative coaction legs on C make trivial-action comodules pass the
    coalgebra-side SAYD test."""
    out = []
    B2 = get_bicrossed("bicrossed-s3-f2")
    U = bicrossed_group_comodule_coalgebra(B2)
    comm = check_commutative_coaction_coalgebra(U)
    out.append(_named("bicrossed-s3-f2/U", comm))
    if comm:
        H = B2.hopf
        for mname, M in [("regular-coaction", regular_coaction_trivial_action(H)),
                         ("unit-coaction", trivial_comodule_M(H))]:
            out.append(_named("bicrossed-s3-f2/U/%s" % mname,
                              check_sayd_over_coalgebra(U, M, n_max=2)))
    for name in ["kS3", "sweedler-h4"]:
        H = get_hopf(name)
        C = trivial_comodule_coalgebra(H)
        comm = check_commutative_coaction_coalgebra(C)
        out.append(_named("%s/trivial-carrier" % name, comm))
        if comm:
            out.append(_named("%s/trivial-carrier/regular-coaction" % name,
                              check_sayd_over_coalgebra(
                                  C, regular_coaction_trivial_action(H), n_max=2)))
    # negative control: the comultiplication comodule over a noncommutative
    # group algebra (a comodule only; the checker consumes just the coaction)
    neg = check_commutative_coaction_coalgebra(comult_comodule_coalgebra(get_hopf("kS3")))
    out.append(CheckResult(not neg.passed,
                           "kS3/comult-comodule :: commutativity fails as expected",
                           neg.witness))
    return out


def scenario_cocommutative_coaction_coalgebra():
    """Cocommutative coaction on C makes trivial-coaction modules yield a
    well-defined cocyclic module on the cotensor chains."""
    out = []
    for bname in ["bicrossed-s3-f3", "bicrossed-s3-f2"]:
        B = get_bicrossed(bname)
        U = bicrossed_group_comodule_coalgebra(B)
        coco = check_cocommutative_coaction_coalgebra(U, n_max=2)
        out.append(_named("%s/U" % bname, coco))
        if coco:
            H = B.hopf
            M = trivial_coaction_module(H, H.mult, space=H.space, name="H(mult,triv)")
            out.append(_named("%s/U/regular-action" % bname,
                              check_hcc("comodule-coalgebra", U, M, N=2)))
    neg = check_cocommutative_coaction_coalgebra(
        comult_comodule_coalgebra(get_hopf("kS3")), n_max=1)
    out.append(CheckResult(not neg.passed,
                           "kS3/comult-comodule :: cocommutativity fails as expected",
                           neg.witness))
    return out


def scenario_sayd_lands_in_carrier_sayd_coalgebra():
    """Classical SAYD coefficients pass the coalgebra-side carrier test for
    every carrier in the corpus."""
    return _sayd_lands_in_carrier_sayd("coalgebra")


def scenario_carrier_sayd_gives_cocyclic_coalgebra():
    """Carrier-SAYD coefficients make the cotensor-side operators well-defined
    and cocyclic (membership plus all identities)."""
    return _carrier_sayd_gives_cocyclic("coalgebra")


def crossed_product_instances():
    """(name, action algebra, comodule algebra, coefficient) for the pairing
    scenarios: one classical tensor-product case and one honestly twisted."""
    inst = []
    Hk = get_hopf("trivial")
    KZ2 = get_hopf("kZ2")
    A0 = algebra_over_trivial_hopf(KZ2.space, KZ2.mult, KZ2.unit, Hk, name="kZ2")
    B0 = comodule_algebra_over_trivial_hopf(KZ2.space, KZ2.mult, KZ2.unit, Hk, name="kZ2")
    M0 = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
    inst.append(("trivial-H", A0, B0, M0))
    H, A1 = translation_module_algebra(cyclic_group(2))
    B1 = regular_comodule_algebra(H)
    M1 = scalar_coefficients(H, counit_character(H), unit_group_like(H))
    inst.append(("kZ2-translation", A1, B1, M1))
    return inst


def scenario_pairing_map_is_cocyclic():
    """The pairing into the crossed product's cyclic complex intertwines all
    cocyclic operators at degrees ≤ 2."""
    out = []
    for name, A, B, M in crossed_product_instances():
        pairing = CrossedPairing(A, B, M, N=2)
        out.append(_named(name, pairing.check_cocyclic_map(2)))
    return out


def scenario_cup_product_on_crossed_products():
    """Degree-zero cups of traces multiply; outputs are Hochschild-closed."""
    out = []
    for name, A, B, M in crossed_product_instances():
        pairing = CrossedPairing(A, B, M, N=2)
        X, Y = pairing.module_side, pairing.comodule_side
        found = False
        for i in range(X.spaces[0].dim):
            phi = X.spaces[0].basis_vector(i)
            if not pairing.is_cyclic_cocycle(X, phi, 0):
                continue
            for j in range(Y.spaces[0].dim):
                psi = Y.spaces[0].basis_vector(j)
                if not pairing.is_cyclic_cocycle(Y, psi, 0):
                    continue
                _, check = pairing.cup(phi, 0, psi, 0)
                out.append(_named("%s/0-cocycle(%d,%d)" % (name, i, j), check))
                found = True
        if not found:
            out.append(CheckResult(False, "%s :: no degree-0 cocycles found" % name))
    return out


SCENARIOS = {
    "scalar-involution-algebra": scenario_scalar_involution_algebra,
    "stable-subalgebra": scenario_stable_subalgebra,
    "commutative-coaction-algebra": scenario_commutative_coaction_algebra,
    "cocommutative-coaction-algebra": scenario_cocommutative_coaction_algebra,
    "sayd-lands-in-carrier-sayd-algebra": scenario_sayd_lands_in_carrier_sayd_algebra,
    "carrier-sayd-gives-cocyclic-algebra": scenario_carrier_sayd_gives_cocyclic_algebra,
    "scalar-involution-coalgebra": scenario_scalar_involution_coalgebra,
    "commutative-coaction-coalgebra": scenario_commutative_coaction_coalgebra,
    "cocommutative-coaction-coalgebra": scenario_cocommutative_coaction_coalgebra,
    "sayd-lands-in-carrier-sayd-coalgebra": scenario_sayd_lands_in_carrier_sayd_coalgebra,
    "carrier-sayd-gives-cocyclic-coalgebra": scenario_carrier_sayd_gives_cocyclic_coalgebra,
    "pairing-map-is-cocyclic": scenario_pairing_map_is_cocyclic,
    "cup-product-on-crossed-products": scenario_cup_product_on_crossed_products,
}

SCENARIO_SUMMARIES = {
    name: (fn.__doc__ or "").strip().split("\n")[0]
    for name, fn in SCENARIOS.items()
}


def run_scenario(name):
    if name not in SCENARIOS:
        raise KeyError("unknown scenario %r" % name)
    return SCENARIOS[name]()

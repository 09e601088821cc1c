"""Differential tests of the structure audits and the SAYD identities
against the written-out oracle in ``structure_oracle.py``: every one-entry
mutation of every tensor of the corpus structures must give the same verdict,
witness and witness vectors, and every corpus coefficient the same SAYD
verdicts.  The four coaction (co)commutativity checkers must agree with
their written-out copies on every corpus carrier, over ℚ and GF(32003), and
on every one-entry mutation of its coaction.  The multiplication matrices
and the twisted antipode must equal their written-out copies on every zoo
Hopf algebra over ℚ and GF(3).  The closed-form bicrossed products and
their two carrier factors must equal the written-out construction with the
solved antipode, over ℚ, GF(2), GF(3) and GF(7).  A few failing verdicts are
also pinned as literal text."""

import copy

import pytest

from hopfcyc import StructureError, bicrossed_product, trivial_hopf
from hopfcyc.corpus import (
    bicrossed_names,
    crossed_product_instances,
    get_bicrossed,
    get_hopf,
    hopf_names,
    modular_pairs,
)
from hopfcyc.cup import CrossedProductAlgebra
from hopfcyc.fields import GF, QQ
from hopfcyc.hopf import (
    _multiplication,
    co_opposite,
    enumerate_characters,
    enumerate_group_likes,
    twisted_antipode,
    verify_hopf,
)
from hopfcyc.linalg import LinMap, Space, Vector, tensor_space
from hopfcyc.symmetries import (
    ComoduleAlgebra,
    ComoduleCoalgebra,
    ModuleAlgebra,
    ModuleComodule,
    adjoint_comodule_coalgebra,
    adjoint_module_algebra,
    algebra_over_trivial_hopf,
    as_left_comodule_algebra,
    bicrossed_function_comodule_algebra,
    bicrossed_group_comodule_coalgebra,
    check_cocommutative_coaction_algebra,
    check_cocommutative_coaction_coalgebra,
    check_commutative_coaction_algebra,
    check_commutative_coaction_coalgebra,
    check_sayd,
    check_sayd_over_coalgebra,
    comodule_algebra_over_trivial_hopf,
    comult_comodule_coalgebra,
    regular_action_trivial_coaction,
    regular_coaction_trivial_action,
    regular_comodule_algebra,
    scalar_coefficients,
    translation_module_algebra,
    trivial_comodule_algebra,
    trivial_comodule_coalgebra,
    trivial_module_algebra,
)
from hopfcyc.groups import cyclic_group, symmetric_group

import structure_oracle as oracle

HOPF_NAMES = ["kZ2", "kZ3", "kS3", "dualZ3", "sweedler-h4",
              "bicrossed-s3-f3", "bicrossed-s3-f2"]

# (tensor attributes, library audit, oracle audit) per structure class
AUDITS = {
    "HopfAlgebra": (("mult", "unit", "comult", "counit", "antipode"),
                    verify_hopf, oracle.verify_hopf),
    "ComoduleAlgebra": (("mult", "unit", "coaction"),
                        ComoduleAlgebra.verify, oracle.verify_comodule_algebra),
    "ComoduleCoalgebra": (("comult", "counit", "coaction"),
                          ComoduleCoalgebra.verify, oracle.verify_comodule_coalgebra),
    "ModuleAlgebra": (("mult", "unit", "action"),
                      ModuleAlgebra.verify, oracle.verify_module_algebra),
    "ModuleComodule": (("action", "coaction"),
                       ModuleComodule.verify, oracle.verify_module_comodule),
    "CrossedProductAlgebra": (("mult", "unit"),
                              CrossedProductAlgebra._verify, oracle.verify_crossed_product),
}


def _structures(name):
    """(label, structure) for the corpus structures over one Hopf algebra."""
    H = get_hopf(name)
    out = [("hopf", H),
           ("regular", regular_comodule_algebra(H)),
           ("trivial-left", trivial_comodule_algebra(H, "left")),
           ("trivial-right", trivial_comodule_algebra(H, "right")),
           ("adjoint", adjoint_comodule_coalgebra(H)),
           ("trivial-coalgebra", trivial_comodule_coalgebra(H)),
           ("trivial-module-algebra", trivial_module_algebra(H)),
           ("adjoint-module-algebra", adjoint_module_algebra(H)),
           ("regular-coaction", regular_coaction_trivial_action(H)),
           ("regular-action", regular_action_trivial_coaction(H))]
    out += [("scalar(%s,%s)" % (d.name, s.name), scalar_coefficients(H, d, s))
            for d, s in modular_pairs(name, max_pairs=2)]
    if name.startswith("bicrossed"):
        B = get_bicrossed(name)
        out += [("u-factor", bicrossed_group_comodule_coalgebra(B)),
                ("f-factor", bicrossed_function_comodule_algebra(B))]
    if name == "kZ2":
        out.append(("translation", translation_module_algebra(cyclic_group(2))[1]))
        for label, A, B, _ in crossed_product_instances():
            out.append(("crossed(%s)" % label, CrossedProductAlgebra(A, B)))
    return out


def _mutations(tensor):
    """(tag, tensor) for each one-entry mutation: every stored entry bumped
    by one and deleted, and a one added at the first empty place of every
    column (of the vector, for a unit)."""
    if isinstance(tensor, Vector):
        field = tensor.space.field
        empty = [next((i for i in range(tensor.space.dim) if i not in tensor.entries), None)]

        def make(entries):
            return Vector(tensor.space, entries)
    else:
        field = tensor.domain.field
        empty = [next(((r, c) for r in range(tensor.codomain.dim)
                       if (r, c) not in tensor.entries), None)
                 for c in range(tensor.domain.dim)]

        def make(entries):
            return LinMap(tensor.domain, tensor.codomain, entries)
    for key in sorted(tensor.entries):  # both constructors drop zero entries
        yield "bump %s" % (key,), make({**tensor.entries, key: tensor.entries[key] + field.one})
        deleted = dict(tensor.entries)
        del deleted[key]
        yield "delete %s" % (key,), make(deleted)
    for key in empty:
        if key is not None:
            yield "add %s" % (key,), make({**tensor.entries, key: field.one})


def _mutants(X):
    """(tag, mutated copy) for every one-entry mutation of X's tensors."""
    for attr in AUDITS[type(X).__name__][0]:
        for tag, tensor in _mutations(getattr(X, attr)):
            Y = copy.copy(X)
            setattr(Y, attr, tensor)
            for memo in ("_memo", "_diag"):
                if hasattr(Y, memo):
                    setattr(Y, memo, {})
            yield "%s %s" % (attr, tag), Y


def _same_verdict(lib, ref, where):
    assert lib.to_dict() == ref.to_dict(), where
    assert lib.lhs_vector == ref.lhs_vector, where
    assert lib.rhs_vector == ref.rhs_vector, where


@pytest.mark.parametrize("name", HOPF_NAMES)
def test_mutated_structures_match_oracle(name):
    seen = set()
    for label, X in _structures(name):
        _, audit, ref = AUDITS[type(X).__name__]
        _same_verdict(audit(X), ref(X), (name, label))
        for tag, Y in _mutants(X):
            lib, want = audit(Y), ref(Y)
            _same_verdict(lib, want, (name, label, tag))
            if not want.passed:
                seen.add(want.condition)
    # the mutations reach well beyond the first axiom of each class
    assert len(seen) >= 8, sorted(seen)


def _coefficients(name):
    H = get_hopf(name)
    out = [scalar_coefficients(H, d, s) for d, s in modular_pairs(name, max_pairs=0)]
    return out + [regular_coaction_trivial_action(H), regular_action_trivial_coaction(H)]


@pytest.mark.parametrize("name", ["trivial"] + HOPF_NAMES)
def test_sayd_verdicts_match_oracle(name):
    H = get_hopf(name)
    carriers = [adjoint_comodule_coalgebra(H), trivial_comodule_coalgebra(H)]
    if name.startswith("bicrossed"):
        carriers.append(bicrossed_group_comodule_coalgebra(get_bicrossed(name)))
    failing = 0
    for M in _coefficients(name):
        res = check_sayd(M)
        _same_verdict(res, oracle.check_sayd(M), (name, M.name))
        failing += not res.passed
        for C in carriers:
            n_max = 1 if C.dim * M.dim > 12 else 2
            res = check_sayd_over_coalgebra(C, M, n_max=n_max)
            _same_verdict(res, oracle.check_sayd_over_coalgebra(C, M, n_max=n_max),
                          (name, C.name, M.name))
            failing += not res.passed
    # over a commutative and cocommutative H every coefficient here is SAYD
    if not (H.is_commutative() and H.is_cocommutative()):
        assert failing, "no failing SAYD verdict over %s" % name


# ---------------------------------------------------------------------------
# multiplication matrices and the twisted antipode
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", (QQ, GF(3)), ids=lambda f: f.name)
@pytest.mark.parametrize("name", hopf_names())
def test_multiplication_matrices_match_oracle(name, field):
    # every basis element, every group-like and its inverse, and one element
    # with every coefficient nonzero, so that a product entry collects terms
    # from several entries of the element
    H = get_hopf(name, field)
    elements = [H.space.basis_vector(i) for i in range(H.dim)]
    elements += [v for g in enumerate_group_likes(H) for v in (g.sigma, g.sigma_inverse)]
    elements.append(Vector(H.space, {i: field.from_int(i + 1) for i in range(H.dim)}))
    for vec in elements:
        for side, written in (("left", oracle.left_multiplication),
                              ("right", oracle.right_multiplication)):
            assert _multiplication(H, vec, side) == written(H, vec), (side, vec.describe())


@pytest.mark.parametrize("field", (QQ, GF(3)), ids=lambda f: f.name)
@pytest.mark.parametrize("name", hopf_names())
def test_twisted_antipode_matches_oracle(name, field):
    H = get_hopf(name, field)
    characters = enumerate_characters(H)
    assert characters
    for delta in characters:
        assert twisted_antipode(H, delta) == oracle.twisted_antipode(H, delta), delta.name


# two factorizations beside the corpus ones: S3 = {e,(13)}·⟨(123)⟩, whose
# U is normal, and the abelian Z6 = {e,t3}·{e,t2,t4}
EXTRA_FACTORIZATIONS = {
    "s3-(13)": (symmetric_group(3), ["e", "(13)"], ["e", "(123)", "(132)"]),
    "z6": (cyclic_group(6), ["e", "t3"], ["e", "t2", "t4"]),
}


@pytest.mark.parametrize("field", (QQ, GF(2), GF(3), GF(7)), ids=lambda f: f.name)
@pytest.mark.parametrize("name", bicrossed_names() + list(EXTRA_FACTORIZATIONS))
def test_bicrossed_closed_form_matches_solved_antipode(name, field):
    if name in EXTRA_FACTORIZATIONS:
        B = bicrossed_product(*EXTRA_FACTORIZATIONS[name], field=field)
    else:
        B = get_bicrossed(name, field)
    H, fz = B.hopf, B.factorization
    written = oracle.bicrossed_product(fz, field)
    assert (H.space.labels, H.name) == (written.space.labels, written.name)
    for tensor in ("mult", "unit", "comult", "counit", "antipode"):
        assert getattr(H, tensor) == getattr(written, tensor), tensor

    A, A_written = (bicrossed_function_comodule_algebra(B),
                    oracle.bicrossed_function_comodule_algebra(fz, H))
    C, C_written = (bicrossed_group_comodule_coalgebra(B),
                    oracle.bicrossed_group_comodule_coalgebra(fz, H))
    for X, Y, tensors in ((A, A_written, ("mult", "unit", "coaction")),
                          (C, C_written, ("comult", "counit", "coaction"))):
        assert (X.space.labels, X.name) == (Y.space.labels, Y.name)
        for tensor in tensors:
            assert getattr(X, tensor) == getattr(Y, tensor), (X.name, tensor)
    assert A.side == A_written.side


# ---------------------------------------------------------------------------
# coaction (co)commutativity checkers
# ---------------------------------------------------------------------------

# (library checker, oracle checker, the n_max values to run; None runs the
# checker without one) for left comodule algebras, then comodule coalgebras
ALGEBRA_CHECKERS = [
    (check_commutative_coaction_algebra, oracle.check_commutative_coaction_algebra, (0, 2)),
    (check_cocommutative_coaction_algebra, oracle.check_cocommutative_coaction_algebra, (1, 2)),
]
COALGEBRA_CHECKERS = [
    (check_commutative_coaction_coalgebra, oracle.check_commutative_coaction_coalgebra, (None,)),
    (check_cocommutative_coaction_coalgebra, oracle.check_cocommutative_coaction_coalgebra,
     (0, 2)),
]


def _coaction_carriers(name, field):
    """The corpus carriers over one Hopf algebra, paired with the checkers
    that read them: the regular and trivial comodule algebras, the adjoint,
    trivial and comultiplication comodule coalgebras, and for a bicrossed
    product its function factor (left, over H^cop) and its group factor."""
    H = get_hopf(name, field)
    algebras = [regular_comodule_algebra(H), trivial_comodule_algebra(H)]
    coalgebras = [adjoint_comodule_coalgebra(H), trivial_comodule_coalgebra(H),
                  comult_comodule_coalgebra(H)]
    if name.startswith("bicrossed"):
        B = get_bicrossed(name, field)
        algebras.append(as_left_comodule_algebra(bicrossed_function_comodule_algebra(B),
                                                 co_opposite(B.hopf)))
        coalgebras.append(bicrossed_group_comodule_coalgebra(B))
    return [(X, ALGEBRA_CHECKERS) for X in algebras] + [(X, COALGEBRA_CHECKERS)
                                                        for X in coalgebras]


def _run(checker, X, n_max):
    return checker(X) if n_max is None else checker(X, n_max=n_max)


@pytest.mark.parametrize("field", (QQ, GF(32003)), ids=lambda f: f.name)
@pytest.mark.parametrize("name", HOPF_NAMES)
def test_coaction_checkers_match_oracle(name, field):
    failing = set()
    for X, checkers in _coaction_carriers(name, field):
        for lib, ref, n_maxes in checkers:
            for n_max in n_maxes:
                res = _run(lib, X, n_max)
                _same_verdict(res, _run(ref, X, n_max), (X.name, lib.__name__, n_max))
                failing.update([res.condition] if not res.passed else [])
        for tag, tensor in _mutations(X.coaction):
            Y = copy.copy(X)
            Y.coaction = tensor
            # a fresh cache: an algebra's diagonal coactions, a coalgebra's dual
            if isinstance(X, ComoduleCoalgebra):
                Y._memo = {}
            else:
                Y._diag = {}
            for lib, ref, n_maxes in checkers:
                n_max = min(1, max(n_maxes)) if n_maxes != (None,) else None
                res = _run(lib, Y, n_max)
                _same_verdict(res, _run(ref, Y, n_max), (X.name, tag, lib.__name__))
                failing.update([res.condition] if not res.passed else [])
    # over a commutative and cocommutative H every coaction passes all four
    H = get_hopf(name, field)
    if not (H.is_commutative() and H.is_cocommutative()):
        assert failing, "no failing coaction verdict over %s" % name


def test_coaction_checker_negative_controls():
    """The corpus negative controls fail with the same witness as the
    written-out checkers; at n = 0 alone the cocommutative coalgebra check
    passes on the same comodule, and on the corpus group factor, as its
    written-out copy does."""
    B1 = get_bicrossed("bicrossed-s3-f3")
    F1 = as_left_comodule_algebra(bicrossed_function_comodule_algebra(B1))
    KS3 = get_hopf("kS3")
    comult = comult_comodule_coalgebra(KS3)
    cases = [
        (check_commutative_coaction_algebra, oracle.check_commutative_coaction_algebra, F1, 0),
        (check_cocommutative_coaction_algebra, oracle.check_cocommutative_coaction_algebra,
         regular_comodule_algebra(KS3), 1),
        (check_commutative_coaction_coalgebra, oracle.check_commutative_coaction_coalgebra,
         comult, None),
        (check_cocommutative_coaction_coalgebra, oracle.check_cocommutative_coaction_coalgebra,
         comult, 1),
    ]
    for lib, ref, X, n_max in cases:
        res = _run(lib, X, n_max)
        _same_verdict(res, _run(ref, X, n_max), (lib.__name__, X.name, n_max))
        assert not res.passed and res.witness is not None, (lib.__name__, X.name, n_max)
    U = bicrossed_group_comodule_coalgebra(get_bicrossed("bicrossed-s3-f2"))
    for C in (comult, U):
        res = check_cocommutative_coaction_coalgebra(C, n_max=0)
        _same_verdict(res, oracle.check_cocommutative_coaction_coalgebra(C, n_max=0), C.name)
        assert res.to_dict() == {"passed": True, "condition": "cocommutative-coaction-coalgebra",
                                 "detail": C.name}


# ---------------------------------------------------------------------------
# literal failing verdicts, one per class
# ---------------------------------------------------------------------------


def _left_unit_only_algebra():
    """span{x, y} with a·b = b and unit x: x is a left unit, not a right one."""
    Hk = trivial_hopf()
    S = Space(("x", "y"), Hk.field)
    one = Hk.field.one
    mult = LinMap(tensor_space(S, S), S, {(b, a * 2 + b): one for a in range(2) for b in range(2)})
    return Hk, S, mult, Vector(S, {0: one})


def _broken(X, attr, key, value=None):
    Y = copy.copy(X)
    tensor = getattr(X, attr)
    entries = dict(tensor.entries)
    if value is None:
        del entries[key]
    else:
        entries[key] = value
    setattr(Y, attr, LinMap(tensor.domain, tensor.codomain, entries))
    return Y


def _fails(res, condition, location, lhs, rhs):
    assert res.to_dict() == {"passed": False, "condition": condition,
                             "witness": {"location": location, "lhs": lhs, "rhs": rhs}}


def test_literal_failing_verdicts():
    # one broken structure per class, and the two SAYD checks; the texts are
    # the verdicts each class reported when it wrote its own axioms
    H4, KZ2 = get_hopf("sweedler-h4"), get_hopf("kZ2")
    two = H4.field.from_int(2)
    Hbad = _broken(H4, "antipode", (3, 2))
    Hbad._memo = {}
    _fails(verify_hopf(Hbad), "antipode-left", "x", "gx", "0")
    _fails(_broken(regular_comodule_algebra(H4), "coaction", (8, 2)).verify(),
           "coaction-multiplicative", "g⊗x", "1⊗gx + gx⊗g", "1⊗gx")
    _fails(_broken(trivial_comodule_algebra(H4, "right"), "coaction", (0, 0), two).verify(),
           "comodule-coassociativity", "1a", "(4)·1a⊗1⊗1", "(2)·1a⊗1⊗1")
    _fails(_broken(adjoint_comodule_coalgebra(H4), "coaction", (4, 1)).verify(),
           "comodule-coassociativity", "x",
           "(-1)·1⊗1⊗gx + (-1)·1⊗gx⊗g + g⊗gx⊗g + x⊗g⊗g",
           "(-1)·1⊗1⊗gx + (-1)·1⊗gx⊗g + g⊗1⊗gx + g⊗gx⊗g + x⊗g⊗g")
    _fails(_broken(translation_module_algebra(cyclic_group(2))[1], "action", (0, 0)).verify(),
           "module-associativity", "e⊗t⊗δt", "δe", "0")
    _fails(_broken(regular_coaction_trivial_action(KZ2), "coaction", (0, 0)).verify(),
           "comodule-counit", "e", "0", "e")
    _fails(_broken(regular_action_trivial_coaction(H4), "action", (1, 6), two).verify(),
           "module-associativity", "1⊗g⊗x", "(2)·g + gx", "gx")
    P = CrossedProductAlgebra(*crossed_product_instances()[1][1:3])
    _fails(_broken(P, "mult", sorted(P.mult.entries)[5], two)._verify(),
           "crossed-product-associativity", "δe⋊t⊗δt⋊t⊗δe⋊t", "δe⋊t", "(2)·δe⋊t")
    M = regular_action_trivial_coaction(H4)
    _fails(check_sayd(M), "anti-yetter-drinfeld", "1⊗x", "1⊗x", "g⊗x + x⊗1 + x⊗g")
    _fails(check_sayd_over_coalgebra(adjoint_comodule_coalgebra(H4), M),
           "carrier-ayd-coalgebra", "x⊗1", "(-1)·1⊗1⊗gx + g⊗1⊗gx + x⊗1⊗g",
           "(-1)·1⊗g⊗gx + (-1)·1⊗x⊗1 + (-1)·1⊗x⊗g + g⊗g⊗gx + g⊗x⊗1 + g⊗x⊗g + x⊗1⊗g")


def test_module_algebra_needs_a_right_unit():
    Hk, S, mult, unit = _left_unit_only_algebra()
    with pytest.raises(StructureError) as err:
        comodule_algebra_over_trivial_hopf(S, mult, unit, Hk)
    assert err.value.check.describe().startswith("FAIL algebra-right-unit\n  at y")
    with pytest.raises(StructureError) as err:
        algebra_over_trivial_hopf(S, mult, unit, Hk)
    assert err.value.check.to_dict() == {
        "passed": False, "condition": "algebra-right-unit",
        "witness": {"location": "y", "lhs": "x", "rhs": "y"}}


def test_left_unit_only_module_algebra_file_exits_2(tmp_path, monkeypatch, capsys):
    from hopfcyc import counit_character, structfile, unit_group_like
    from hopfcyc.cli import main

    monkeypatch.chdir(tmp_path)
    Hk, S, mult, unit = _left_unit_only_algebra()
    action = LinMap(tensor_space(Hk.space, S), S, {(a, a): Hk.field.one for a in range(2)})
    A = ModuleAlgebra(Hk, S, mult, unit, action, validate=False)
    M = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
    hd = structfile.hopf_to_dict(Hk, "trivial")
    structfile.write_file("trivial.json", hd)
    structfile.write_file("A.json", structfile.structure_to_dict("module-algebra", A, "A", hd))
    structfile.write_file("M.json", structfile.structure_to_dict("module-comodule", M, "M", hd))
    code = main(["complex", "build", "--kind", "module-algebra", "--hopf", "trivial.json",
                 "--carrier", "A.json", "--coeff", "M.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: input fails its structural axioms\n"
                   "FAIL algebra-right-unit\n  at y\n  lhs = x\n  rhs = y\n")

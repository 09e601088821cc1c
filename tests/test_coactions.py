"""The diagonal coactions built degree by degree and kept on the carrier (a
coalgebra's read off its dual algebra's), the cotensor constraints read
from their entries, the one-walk coalgebra stability check (against the
per-vector stability of ``structure_oracle``),
the row-indexed precomposition of the cochain complexes and the filtered
character search: each against the whole-``Chain`` (or unfiltered)
construction of ``chain_oracle``, on every corpus carrier over ℚ and
GF(32003).  The group-like search, which runs as the character search of
the dual algebra, against the separate search it replaced."""

import itertools

import pytest

from hopfcyc.cocyclic import build_comodule_algebra_complex, invariant_functionals
from hopfcyc.corpus import bicrossed_names, get_bicrossed, get_hopf, hopf_names
from hopfcyc.fields import GF, QQ
from hopfcyc.hopf import (
    Character,
    GroupLike,
    StructureError,
    _char_name,
    _multiplication,
    counit_character,
    enumerate_characters,
    enumerate_group_likes,
    unit_group_like,
)
from hopfcyc.linalg import (
    Chain,
    LinMap,
    Space,
    Vector,
    tensor_power,
    tensor_space,
)
from hopfcyc.symmetries import (
    ModuleComodule,
    adjoint_comodule_coalgebra,
    bicrossed_function_comodule_algebra,
    bicrossed_group_comodule_coalgebra,
    check_sayd,
    check_sayd_over_coalgebra,
    colinear_hom_space,
    diag_left_coaction,
    dual_carrier,
    regular_action_trivial_coaction,
    regular_coaction_trivial_action,
    regular_comodule_algebra,
    scalar_coefficients,
    trivial_comodule_algebra,
    trivial_comodule_coalgebra,
    translation_module_algebra,
)
from hopfcyc.groups import symmetric_group

import chain_oracle
import rref_oracle
import structure_oracle
from test_batched_operators import _scalars

# the corpus Hopf algebras that carry comodule (co)algebras
CARRIER_HOPF = ["kZ2", "kZ3", "kS3", "dualZ3", "sweedler-h4",
                "bicrossed-s3-f3", "bicrossed-s3-f2"]
FIELDS = [QQ, GF(32003)]
FIELD_IDS = ["Q", "GF32003"]
TOP = 4  # diagonal coactions up to ρ_4, cotensor spaces up to C^{⊗4} □ M


def _algebras(name, field):
    H = get_hopf(name, field)
    out = [("regular", regular_comodule_algebra(H)),
           ("trivial", trivial_comodule_algebra(H))]
    if name in bicrossed_names():
        out.append(("function-factor",
                    bicrossed_function_comodule_algebra(get_bicrossed(name, field))))
    return out


def _coalgebras(name, field):
    H = get_hopf(name, field)
    out = [("adjoint", adjoint_comodule_coalgebra(H)),
           ("trivial", trivial_comodule_coalgebra(H))]
    if name in bicrossed_names():
        out.append(("u-factor", bicrossed_group_comodule_coalgebra(get_bicrossed(name, field))))
    return out


def _coefficients(H):
    return [regular_coaction_trivial_action(H), regular_action_trivial_coaction(H),
            scalar_coefficients(H, counit_character(H), unit_group_like(H))]


def _diag_right_coaction(C, k):
    """ρ_diag on C^{⊗k} read off λ_diag of C* by re-indexing, as
    ``check_cocommutative_coaction_coalgebra`` reads it: entry
    (h·dim C^k + c̃, c̃′) of λ_diag is entry (c̃′·dim H + h, c̃) of ρ_diag."""
    lam, Ck, Hdim = diag_left_coaction(dual_carrier(C), k), C.dim ** k, C.hopf.dim
    entries = {(c2 * Hdim + h, c): v
               for (r, c2), v in lam.entries.items() for h, c in (divmod(r, Ck),)}
    return LinMap(tensor_power(C.space, k), tensor_space(tensor_power(C.space, k), C.hopf.space),
                  entries)


def _same_map(fast, slow):
    return (fast.entries == slow.entries and fast.domain.dim == slow.domain.dim
            and fast.codomain.dim == slow.codomain.dim)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", CARRIER_HOPF)
def test_diagonal_coactions_match_oracle(name, field):
    for label, A in _algebras(name, field):
        for k in range(TOP + 1):
            assert _same_map(diag_left_coaction(A, k),
                             chain_oracle.diag_left_coaction(A, k)), (label, k)
    for label, C in _coalgebras(name, field):
        for k in range(TOP + 1):
            assert _same_map(_diag_right_coaction(C, k),
                             chain_oracle.diag_right_coaction(C, k)), (label, k)


def test_diagonal_coaction_is_built_once_per_carrier(KZ3):
    C = adjoint_comodule_coalgebra(KZ3)
    A = regular_comodule_algebra(KZ3)
    D = dual_carrier(C)
    assert dual_carrier(C) is D and C._memo == {"dual": D}
    assert diag_left_coaction(D, 3) is diag_left_coaction(D, 3)
    assert diag_left_coaction(A, 3) is diag_left_coaction(A, 3)
    assert sorted(D._diag) == sorted(A._diag) == [0, 1, 2, 3]
    # a second carrier with the same structure keeps its own
    assert diag_left_coaction(dual_carrier(adjoint_comodule_coalgebra(KZ3)), 3) is not D._diag[3]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", CARRIER_HOPF)
def test_cotensor_and_stability_match_oracle(name, field):
    H = get_hopf(name, field)
    for label, C in _coalgebras(name, field):
        for n in range(TOP):
            rho = chain_oracle.diag_right_coaction(C, n + 1)
            for M in _coefficients(H):
                fast = colinear_hom_space(dual_carrier(C), M, n, value_last=True)
                slow = chain_oracle.cotensor_space(C, M, n, rho)
                assert fast.ambient == slow.ambient
                assert [v.entries for v in fast.basis] == [v.entries for v in slow.basis], \
                    (label, M.name, n)
                stab = structure_oracle.coalgebra_stability(C, M, n + 1)
                T = chain_oracle.coalgebra_stability_map(C, M, n + 1, rho)
                for i in range(T.domain.dim):
                    assert stab(fast.ambient.basis_vector(i)) == T.column(i), (label, M.name, n, i)


def _doubled(M):
    """M ⊕ M with the action and coaction of M on each copy, so every
    cotensor basis element of M comes twice."""
    Hd, Md = M.hopf.space.dim, M.dim
    S = Space(M.space.labels + tuple(label + "'" for label in M.space.labels), M.space.field)
    action = {(i * Md + r, (i * Md + m) * Hd + h): v for (r, c), v in M.action.entries.items()
              for m, h in (divmod(c, Hd),) for i in range(2)}
    coaction = {(h * 2 * Md + i * Md + r, i * Md + m): v
                for (hr, m), v in M.coaction.entries.items()
                for h, r in (divmod(hr, Md),) for i in range(2)}
    return ModuleComodule(M.hopf, S, LinMap(tensor_space(S, M.hopf.space), S, action),
                          LinMap(S, tensor_space(M.hopf.space, S), coaction),
                          name=M.name + "⊕" + M.name)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_coalgebra_sayd_check_matches_per_vector_stability(field):
    # the library applies the stability map s_M(m) = m⟨0⟩◁m⟨−1⟩, kept on M,
    # to the M leg of each degree's whole cotensor basis at once (on the
    # cotensor space ρ_diag ⊗ id = id ⊗ λ_M); the written-out check applies
    # ρ_diag ⊗ id and the action to one basis element at a time.  Same
    # verdict, witness and witness
    # vectors on every corpus coalgebra with the coefficients above (Sweedler's
    # ε-unit among them, the negative control) and every scalar (δ, σ), each
    # scalar also doubled, so that a failing degree fails at more than one
    # basis element and the first of them must be the one reported
    failed = set()
    for name in CARRIER_HOPF:
        H = get_hopf(name, field)
        scalars = _scalars(H)
        for label, C in _coalgebras(name, field):
            for M in _coefficients(H) + scalars + [_doubled(M) for M in scalars]:
                n_max = 1 if C.dim * M.dim > 12 else 2
                res = check_sayd_over_coalgebra(C, M, n_max=n_max)
                ref = structure_oracle.check_sayd_over_coalgebra(C, M, n_max=n_max)
                assert res.to_dict() == ref.to_dict(), (name, label, M.name)
                assert res.lhs_vector == ref.lhs_vector and res.rhs_vector == ref.rhs_vector
                if not res.passed:
                    failed.add(res.condition)
    assert failed == {"carrier-ayd-coalgebra", "carrier-stability-coalgebra"}
    H4 = get_hopf("sweedler-h4", field)
    eps_unit = scalar_coefficients(H4, counit_character(H4), unit_group_like(H4))
    assert not check_sayd_over_coalgebra(adjoint_comodule_coalgebra(H4), eps_unit)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_stability_map_is_kept_for_both_sayd_checks(field):
    # check_sayd and the coalgebra check read one stability map, built once
    H = get_hopf("kS3", field)
    C = adjoint_comodule_coalgebra(H)
    # check_sayd reaches stability only once the AYD identity holds
    coefficients = [M for M in _coefficients(H) + _scalars(H)
                    if check_sayd(M).condition != "anti-yetter-drinfeld"]
    assert len(coefficients) >= 2
    for M in coefficients:
        stab = M._memo["stab"]
        check_sayd_over_coalgebra(C, M, n_max=1)
        assert M._memo["stab"] is stab
        assert stab == chain_oracle.append_act(
            Chain([M.space]).apply(M.coaction, 0, 1, [H.space, M.space]), M).to_map()


def _precompositions(N, prefix_legs, A):
    """(n, src, chain) for every inner coface and codegeneracy of a complex
    whose degree-n cochains live on prefix_legs ⊗ A^{⊗(n+1)}."""
    As, p = A.space, len(prefix_legs)
    for n in range(N + 1):
        legs = list(prefix_legs) + [As] * (n + 1)
        if n >= 1:
            for i in range(n):
                yield n, n - 1, Chain(legs).apply(A.mult, p + i, 2, [As])
        if n + 1 <= N:
            for i in range(n + 1):
                yield n, n + 1, Chain(legs).apply(A.unit_map(), p + i + 1, 0, [As])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_precompose_matches_matmul(field):
    # φ ↦ φ ∘ chain as the complexes build it, the walk of the transposed
    # pipeline on the coordinate legs (M, A, …, A) from the whole basis,
    # against the precomposition over the materialized chain on the
    # arguments and against φ @ chain
    H = get_hopf("sweedler-h4", field)
    cases = []
    A = regular_comodule_algebra(H)
    for M in _coefficients(H):
        subs = [colinear_hom_space(A, M, n) for n in range(3)]
        cases.append((subs, _precompositions(2, [M.space], A), _precompositions(2, [], A)))
    G, Aact = translation_module_algebra(symmetric_group(3), field)
    Mt = scalar_coefficients(G, counit_character(G), unit_group_like(G))
    subs = [invariant_functionals(Aact, Mt, n) for n in range(3)]
    ops = list(_precompositions(2, [Mt.space], Aact))
    cases.append((subs, ops, ops))
    checked = 0
    for subs, walked, fixed_ops in cases:
        for (n, src, coordinates), (_, _, chain) in zip(walked, fixed_ops):
            images = coordinates.transposed().images([v.entries for v in subs[src].basis])
            op, fixed = chain_oracle.precompose(subs, n, src, chain), chain.to_map()
            assert len(images) == subs[src].dim
            for vec, image in zip(subs[src].basis, images):
                assert image == op(vec).entries
                assert op(vec) == chain_oracle.linmap_to_vector(subs[src].map(vec) @ fixed,
                                                                 subs[n].ambient)
                checked += 1
    assert checked > 100


def test_kS3_regular_action_complex_at_degree_4(KS3):
    A = regular_comodule_algebra(KS3)
    M = regular_action_trivial_coaction(KS3)
    assert build_comodule_algebra_complex(A, M, 4).dims() == [6, 36, 216, 1296, 7776]


def _unfiltered_characters(H):
    field = H.field
    values = (field.zero, field.one, field.from_int(-1))
    found = []
    for combo in itertools.product(values, repeat=H.dim):
        try:
            found.append(Character.from_values(H, list(combo), name=_char_name(H, combo)))
        except StructureError:
            continue
    return found


@pytest.mark.parametrize("name", hopf_names())
def test_character_search_matches_unfiltered(name):
    H = get_hopf(name)
    fast, slow = enumerate_characters(H), _unfiltered_characters(H)
    assert [(c.name, c.delta.entries) for c in fast] == \
        [(c.name, c.delta.entries) for c in slow]
    assert fast  # the counit is always found


def test_character_search_over_gfp():
    H = get_hopf("kZ3", GF(32003))
    assert [c.name for c in enumerate_characters(H)] == \
        [c.name for c in _unfiltered_characters(H)]


def _old_is_group_like(H, sigma):
    """ε(σ) = 1 and Δσ = σ⊗σ, compared on raw entries (no labeled H⊗H)."""
    if H.counit.apply(sigma).entries != {0: H.field.one}:
        return False
    d, entries, p = H.dim, sigma.entries.items(), H.field.modulus
    square = {i * d + j: a * b for i, a in entries for j, b in entries}
    if p is not None:  # a product of nonzero residues is nonzero
        square = {k: v % p for k, v in square.items()}
    return H.comult.apply(sigma).entries == square


def _old_solved_inverse(H, sigma):
    """Left multiplication by σ as a matrix, then solve L x = 1."""
    left = _multiplication(H, sigma, "left")
    rows = {}
    for (r, c), v in left.entries.items():
        rows.setdefault(r, {})[c] = v
    rhs = [H.unit.entries.get(r, H.field.zero) for r in range(H.dim)]
    sol = rref_oracle.solve_linear([rows.get(r, {}) for r in range(H.dim)], rhs, H.dim, H.field)
    return None if sol is None else Vector(H.space, sol)


def _old_group_likes(H):
    """The separate {0, ±1} group-like search with solved inverses."""
    field = H.field
    values = (field.zero, field.one, field.from_int(-1))
    out = []
    for combo in itertools.product(values, repeat=H.dim):
        vec = Vector(H.space, {i: v for i, v in enumerate(combo) if v})
        if not _old_is_group_like(H, vec):
            continue
        inverse = _old_solved_inverse(H, vec)
        if inverse is None:
            continue
        try:
            out.append(GroupLike(H, vec, inverse, name=vec.describe()))
        except StructureError:
            continue
    return out


@pytest.mark.parametrize("name,field", [(name, QQ) for name in hopf_names()] + [
    (name, GF(32003)) for name in ("kS3", "sweedler-h4", "dualZ3")])
def test_group_like_search_matches_old_search(name, field):
    H = get_hopf(name, field)
    new, old = enumerate_group_likes(H), _old_group_likes(H)
    assert [(g.name, g.sigma.entries, g.sigma_inverse.entries) for g in new] == \
        [(g.name, g.sigma.entries, g.sigma_inverse.entries) for g in old]
    assert new  # the unit is always found

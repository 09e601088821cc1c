"""The three coefficient subspaces, each solved as the equalizer of two maps,
against the hand-indexed row builders they replaced (``chain_oracle``):
colinear cochains, cotensor chains (the colinear cochains over the dual
algebra, value leg last) and invariant functionals must have the same
basis, entry for entry and in the same order, over ℚ and GF(32003), for
every corpus carrier and coefficient at degree ≤ 2."""

import pytest

import chain_oracle
from hopfcyc.cocyclic import invariant_functionals
from hopfcyc.corpus import bicrossed_names, get_bicrossed, get_hopf
from hopfcyc.fields import GF, QQ
from hopfcyc.groups import cyclic_group, symmetric_group
from hopfcyc.hopf import check_modular_pair, enumerate_characters, enumerate_group_likes
from hopfcyc.linalg import Space, Vector
from hopfcyc.symmetries import (
    _equalizer,
    adjoint_comodule_coalgebra,
    adjoint_module_algebra,
    bicrossed_group_comodule_coalgebra,
    colinear_hom_space,
    dual_carrier,
    regular_action_trivial_coaction,
    regular_coaction_trivial_action,
    regular_comodule_algebra,
    scalar_coefficients,
    translation_module_algebra,
    trivial_comodule_algebra,
    trivial_comodule_coalgebra,
    trivial_module_algebra,
)

FIELDS = (QQ, GF(32003))
CARRIER_HOPF = ["kZ2", "kZ3", "kS3", "dualZ3", "sweedler-h4",
                "bicrossed-s3-f3", "bicrossed-s3-f2"]
TOP = 2


def _coefficients(H):
    """The corpus coefficients over H: the scalar coefficient of every
    modular pair, the regular coaction and the regular action."""
    scalars = [scalar_coefficients(H, d, s) for d in enumerate_characters(H)
               for s in enumerate_group_likes(H) if check_modular_pair(H, d, s)]
    return scalars + [regular_coaction_trivial_action(H), regular_action_trivial_coaction(H)]


def _carriers(name, field):
    H = get_hopf(name, field)
    algebras = [regular_comodule_algebra(H), trivial_comodule_algebra(H)]
    coalgebras = [adjoint_comodule_coalgebra(H), trivial_comodule_coalgebra(H)]
    if name in bicrossed_names():
        coalgebras.append(bicrossed_group_comodule_coalgebra(get_bicrossed(name, field)))
    return H, algebras, coalgebras


def assert_same_basis(lib, ref, where):
    assert lib.ambient == ref.ambient, where
    assert [v.entries for v in lib.basis] == [v.entries for v in ref.basis], where
    assert [list(v.entries) for v in lib.basis] == [list(v.entries) for v in ref.basis], where


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("name", CARRIER_HOPF)
def test_colinear_and_cotensor_bases_match_the_row_builders(name, field):
    H, algebras, coalgebras = _carriers(name, field)
    checked = 0
    for M in _coefficients(H):
        for n in range(TOP + 1):
            for A in algebras:
                assert_same_basis(colinear_hom_space(A, M, n),
                                  chain_oracle.colinear_hom_space_by_rows(A, M, n),
                                  (A.name, M.name, n))
                checked += 1
            for C in coalgebras:
                assert_same_basis(colinear_hom_space(dual_carrier(C), M, n, value_last=True),
                                  chain_oracle.cotensor_space_by_rows(C, M, n),
                                  (C.name, M.name, n))
                checked += 1
    assert checked >= 36


def _module_algebras(field):
    out = [translation_module_algebra(cyclic_group(2), field),
           translation_module_algebra(symmetric_group(3), field)]
    for name in ["kZ2", "kZ3", "sweedler-h4"]:
        H = get_hopf(name, field)
        out += [(H, adjoint_module_algebra(H)), (H, trivial_module_algebra(H))]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_invariant_functionals_match_the_row_builder(field):
    for H, Aact in _module_algebras(field):
        for M in _coefficients(H):
            for n in range(TOP + 1):
                assert_same_basis(invariant_functionals(Aact, M, n),
                                  chain_oracle.invariant_functionals_by_rows(Aact, M, n),
                                  (Aact.name, M.name, n))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_equalizer_of_two_small_maps(field):
    """{x ∈ k³ : x0 + x1 = 2·x2} read off two hand-written maps into k:
    α = x0 + x1 (one filed row, two columns), β = 2·x2; and equal maps
    (α = β) leave the whole space."""
    X = Space(("x0", "x1", "x2"), field)
    one, two = field.one, field.from_int(2)
    basis = _equalizer(X, {0: {0: one, 1: one}}, [(0, 2, two)])
    assert [v.entries for v in basis] == [
        Vector(X, {0: field.from_int(-1), 1: one}).entries,
        Vector(X, {0: two, 2: one}).entries,
    ]
    same = _equalizer(X, {0: {0: one}, 1: {2: two}}, [(0, 0, one), (1, 2, two)])
    assert [v.entries for v in same] == [X.basis_vector(i).entries for i in range(3)]

"""Every computed subspace basis is canonical, which is what lets
``Subspace.coords`` read coordinates at the free columns: basis vector k is
1 at its last index j_k, and no other basis vector touches j_k."""

from collections import Counter

import pytest

from hopfcyc.cocyclic import (
    build_comodule_algebra_complex,
    build_comodule_coalgebra_complex,
    build_module_algebra_complex,
    invariant_functionals,
)
from hopfcyc.cohomology import cyclic_subcomplex_basis
from hopfcyc.corpus import comodule_algebras_for, comodule_coalgebras_for, get_hopf
from hopfcyc.groups import cyclic_group, symmetric_group
from hopfcyc.hopf import GroupLike, counit_character, unit_group_like
from hopfcyc.linalg import Subspace
from hopfcyc.symmetries import (
    adjoint_module_algebra,
    colinear_hom_space,
    dual_carrier,
    regular_action_trivial_coaction,
    regular_coaction_trivial_action,
    regular_comodule_algebra,
    scalar_coefficients,
    stable_subalgebra,
    translation_module_algebra,
    trivial_module_algebra,
)

# the corpus Hopf algebras that carry comodule (co)algebras
CARRIER_HOPF = ["kZ2", "kZ3", "kS3", "dualZ3", "sweedler-h4",
                "bicrossed-s3-f3", "bicrossed-s3-f2"]
TOP = 3


def _coefficients(H):
    return [regular_coaction_trivial_action(H), regular_action_trivial_coaction(H),
            scalar_coefficients(H, counit_character(H), unit_group_like(H))]


def assert_canonical(sub, what):
    one = sub.ambient.field.one
    touched = Counter(j for vec in sub.basis for j in vec.entries)
    for k, vec in enumerate(sub.basis):
        last = max(vec.entries)
        assert vec.entries[last] == one, (what, k)
        assert touched[last] == 1, (what, k)
        assert sub.coords(vec) == {k: one}, (what, k)


@pytest.mark.parametrize("name", CARRIER_HOPF)
def test_colinear_and_cotensor_bases_are_canonical(name):
    H = get_hopf(name)
    checked = 0
    for M in _coefficients(H):
        for label, A in comodule_algebras_for(name):
            for n in range(TOP + 1):
                assert_canonical(colinear_hom_space(A, M, n), (label, M.name, n))
                checked += 1
        for label, C in comodule_coalgebras_for(name):
            for n in range(TOP + 1):
                assert_canonical(colinear_hom_space(dual_carrier(C), M, n, value_last=True),
                                 (label, M.name, n))
                checked += 1
    assert checked >= 48


def _module_algebras():
    out = [translation_module_algebra(cyclic_group(2)),
           translation_module_algebra(symmetric_group(3))]
    for name in ["kZ2", "kZ3", "sweedler-h4"]:
        H = get_hopf(name)
        out += [(H, adjoint_module_algebra(H)), (H, trivial_module_algebra(H))]
    return out


def test_invariant_functional_bases_are_canonical():
    for H, Aact in _module_algebras():
        for M in _coefficients(H):
            for n in range(TOP + 1):
                assert_canonical(invariant_functionals(Aact, M, n), (Aact.name, M.name, n))


def test_kernel_bases_are_canonical():
    # the cyclic eigen-subcomplexes that cyclic_dims reads, and the kernel
    # stable_subalgebra embeds
    H, Aact = translation_module_algebra(cyclic_group(2))
    H4 = get_hopf("sweedler-h4")
    eps, one = counit_character(H4), unit_group_like(H4)
    g = GroupLike(H4, H4.space.basis_vector(1), name="g")
    complexes = [build_module_algebra_complex(Aact, _coefficients(H)[2], TOP)]
    for name in ["kZ2", "kZ3", "sweedler-h4"]:
        Hn = get_hopf(name)
        M = scalar_coefficients(Hn, counit_character(Hn),
                                g if Hn is H4 else unit_group_like(Hn))
        complexes.append(build_comodule_algebra_complex(regular_comodule_algebra(Hn), M, TOP))
        for _, C in comodule_coalgebras_for(name):
            complexes.append(build_comodule_coalgebra_complex(C, M, TOP))
    for X in complexes:
        for n in range(TOP + 1):
            assert_canonical(Subspace(X.spaces[n], cyclic_subcomplex_basis(X, n)),
                             (X.kind, n))
    B = stable_subalgebra(regular_comodule_algebra(H4), eps, one)
    assert_canonical(Subspace(H4.space, B.embedding), "stable subalgebra")

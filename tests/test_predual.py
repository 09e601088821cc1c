"""Module algebras as comodule algebras over the predual K = (H^op)*.

The module-algebra complex is built as the comodule-algebra complex of
A over K with the coefficient M*.  These tests audit the three conversions
(over ℚ and GF(p)), demand the complex of the iterated-coproduct oracle in
``chain_oracle`` entry for entry (bases, matrices and escape witnesses), and
pin the antipode convention of the converted coefficient on the whole
ambient M⊗A^{⊗(n+1)}, where the complexes alone cannot tell S from S⁻¹."""

import pytest

import chain_oracle
from hopfcyc.cocyclic import (
    CocyclicConstructionError,
    _rotation,
    _rotation_step,
    build_module_algebra_complex,
)
from hopfcyc.corpus import crossed_product_instances, get_hopf, hopf_names
from hopfcyc.fields import GF, QQ
from hopfcyc.groups import cyclic_group, symmetric_group
from hopfcyc.hopf import (
    check_modular_pair,
    enumerate_characters,
    enumerate_group_likes,
    predual,
    verify_hopf,
)
from hopfcyc.linalg import LinMap, hom_space, tensor_power, tensor_space
from hopfcyc.symmetries import (
    ModuleComodule,
    adjoint_module_algebra,
    predual_carrier,
    predual_coefficient,
    regular_action_trivial_coaction,
    regular_coaction_trivial_action,
    scalar_coefficients,
    translation_module_algebra,
    trivial_module_algebra,
)

FIELDS = (QQ, GF(3), GF(32003))


def _regular_module_comodule(H):
    """H acting on itself by μ and coacting by Δ; S² ≠ id on it for H4."""
    return ModuleComodule(H, H.space, H.mult, H.comult, name="%s(μ,Δ)" % H.name)


def _coefficients(H):
    """Every scalar coefficient of a modular pair, the regular coaction, the
    regular action and (μ, Δ)."""
    scalars = [scalar_coefficients(H, d, s) for d in enumerate_characters(H)
               for s in enumerate_group_likes(H) if check_modular_pair(H, d, s)]
    return scalars + [regular_coaction_trivial_action(H), regular_action_trivial_coaction(H),
                      _regular_module_comodule(H)]


def _module_algebras(field, names=("kZ2", "kZ3", "dualZ3", "sweedler-h4", "kS3"),
                     groups=(cyclic_group(2), cyclic_group(3), symmetric_group(3))):
    out = [translation_module_algebra(g, field) for g in groups]
    for name in names:
        H = get_hopf(name, field)
        out += [(H, adjoint_module_algebra(H)), (H, trivial_module_algebra(H))]
    return out + [(A.hopf, A) for _, A, _, _ in crossed_product_instances()
                  if field is QQ]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_predual_of_every_corpus_hopf_algebra_is_a_hopf_algebra(field):
    for name in hopf_names():
        H = get_hopf(name, field)
        K = predual(H)
        assert verify_hopf(K), name
        assert predual(H) is K
        assert K.dim == H.dim


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_converted_carriers_and_coefficients_verify(field):
    checked = 0
    for H, Aact in _module_algebras(field):
        carrier = predual_carrier(Aact)
        assert carrier.verify(), Aact.name
        assert carrier.hopf is predual(H) and predual_carrier(Aact) is carrier
        for M in _coefficients(H) + [M for _, A, _, M in crossed_product_instances()
                                     if A is Aact]:
            coeff = predual_coefficient(M)
            assert coeff.verify(), (Aact.name, M.name)
            assert predual_coefficient(M) is coeff
            checked += 1
    assert checked >= 40


def _outcome(build):
    """The complex's dims, matrices and basis lines, or the escape witness."""
    try:
        X = build()
    except CocyclicConstructionError as err:
        return err.check.to_dict()
    return X.to_dict(), [[v.entries for v in s.basis] for s in X.subspaces]


@pytest.mark.parametrize("field", (QQ, GF(32003)), ids=lambda f: f.name)
def test_module_complexes_match_the_iterated_coproduct_oracle(field):
    escapes = built = 0
    for H, Aact in _module_algebras(field):
        for M in _coefficients(H):
            got = _outcome(lambda: build_module_algebra_complex(Aact, M, 2))
            ref = _outcome(lambda: chain_oracle.module_algebra_complex_by_coproduct(Aact, M, 2))
            assert got == ref, (Aact.name, M.name)
            escapes += isinstance(got, dict)
            built += not isinstance(got, dict)
    assert escapes >= 5 and built >= 40


def _predual_coefficient_with_s(M):
    """``predual_coefficient`` with S in place of S⁻¹ in the action."""
    H, Ms = M.hopf, M.space
    K, d, md = predual(H), H.dim, Ms.dim
    action = {}
    for (r, m), v in M.coaction.entries.items():
        h, p = divmod(r, md)
        for i, s in H.antipode.by_col().get(h, ()):
            action[(m, p * d + i)] = action.get((m, p * d + i), 0) + v * s
    coeff = predual_coefficient(M)
    return ModuleComodule(K, Ms, LinMap(tensor_space(Ms, K.space), Ms, action),
                          coeff.coaction, validate=False)


def _dual_basis_images(walk, count, one):
    """The walk from the row state of the ``count`` dual basis functionals,
    read back as one column per functional."""
    columns = [{} for _ in range(count)]
    for y, row in walk({x: {x: one} for x in range(count)}).items():
        for x, v in row.items():
            columns[x][y] = v
    return columns


def _rotation_images(A, M, n, front, path):
    """Images of every dual basis functional of M⊗A^{⊗(src+1)}, src = n − 1
    for the last coface δ_n (``front``) and n for τ_n, along ``path``: the
    library over the predual, the module formula of ``chain_oracle``, or
    ``wrap_chain`` over the predual with the coefficient ``path``."""
    one = A.space.field.one
    src = tensor_power(A.space, n + 1 - front)
    count = M.dim * src.dim
    if path == "library":
        K, Mk = predual_carrier(A), predual_coefficient(M)
        return _dual_basis_images(
            _rotation(K, Mk, n, front, _rotation_step(K, Mk, False), False), count, one)
    if path == "module":
        return _dual_basis_images(chain_oracle.module_rotation(A, M, n, front), count, one)
    hom = hom_space(tensor_power(A.space, n + 1), path.space)
    return [chain_oracle.linmap_to_vector(chain_oracle.wrap_chain(
        predual_carrier(A), path, LinMap(src, path.space, {divmod(x, src.dim): one}), n, front),
        hom).entries for x in range(count)]


@pytest.mark.parametrize("field", (QQ, GF(7)), ids=lambda f: f.name)
def test_last_coface_and_tau_pin_the_inverse_antipode(field):
    """On every dual basis functional of M⊗A^{⊗(n+1)}, n ≤ 2, the library's
    last coface and τ_n over the predual equal the module formula with
    S⁻¹(m⟨−1⟩) and the comodule-algebra oracle ``wrap_chain``; with S in
    place of S⁻¹ the H4 adjoint algebra with the (μ, Δ) coefficient differs
    at n = 1 and n = 2."""
    H4 = get_hopf("sweedler-h4", field)
    cases = [(H4, adjoint_module_algebra(H4)), (H4, trivial_module_algebra(H4)),
             translation_module_algebra(cyclic_group(3), field)]
    compared = 0
    for H, A in cases:
        for M in _coefficients(H):
            for n in range(3):
                for front in ((True, False) if n else (False,)):
                    lib = _rotation_images(A, M, n, front, "library")
                    assert lib == _rotation_images(A, M, n, front, "module"), (A.name, M.name, n)
                    assert lib == _rotation_images(A, M, n, front, predual_coefficient(M)), (
                        A.name, M.name, n)
                    compared += 1
    assert compared >= 50
    A, M = adjoint_module_algebra(H4), _regular_module_comodule(H4)
    with_s = _predual_coefficient_with_s(M)
    for n in (1, 2):
        assert any(_rotation_images(A, M, n, front, "module")
                   != _rotation_images(A, M, n, front, with_s) for front in (True, False))

"""Complex builders, the identity verifier, and the HCC decision procedure."""

import re

import pytest
from hypothesis import given, settings, strategies as st

import cohomology_oracle as oracle

from hopfcyc import (
    CocyclicConstructionError,
    adjoint_comodule_coalgebra,
    adjoint_module_algebra,
    build_comodule_algebra_complex,
    build_comodule_coalgebra_complex,
    build_module_algebra_complex,
    check_hcc,
    check_sayd,
    colinear_hom_space,
    counit_character,
    cyclic_group,
    group_algebra,
    identity,
    regular_comodule_algebra,
    scalar_coefficients,
    translation_module_algebra,
    trivial_hopf,
    unit_group_like,
    verify_cocyclic_identities,
)
from hopfcyc import results
from hopfcyc.cocyclic import CocyclicModule, _identities
from hopfcyc.corpus import get_hopf
from hopfcyc.fields import GF, QQ
from hopfcyc.linalg import LinMap
from hopfcyc.symmetries import (
    regular_action_trivial_coaction,
    regular_coaction_trivial_action,
    trivial_coaction_module,
    trivial_comodule_algebra,
)
from test_cohomology_oracle import _complexes

GF7 = GF(7)
GF32003 = GF(32003)


class TestComoduleAlgebraComplex:
    def test_trivial_ladder(self, trivial_instance):
        _, A, M = trivial_instance
        X = build_comodule_algebra_complex(A, M, 3)
        assert X.dims() == [1, 1, 1, 1]
        for n in range(4):
            assert X.tau(n) == identity(X.spaces[n])
        assert verify_cocyclic_identities(X)

    def test_kz2_regular(self, KZ2):
        A = regular_comodule_algebra(KZ2)
        M = scalar_coefficients(KZ2, counit_character(KZ2), unit_group_like(KZ2))
        X = build_comodule_algebra_complex(A, M, 3)
        assert verify_cocyclic_identities(X)
        # degree-n dimensions match an independent recomputation
        for n in range(4):
            assert X.spaces[n].dim == colinear_hom_space(A, M, n).dim

    def test_sweedler_regular_with_group_like_twist(self, H4, H4_eps, H4_g):
        A = regular_comodule_algebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_g)
        X = build_comodule_algebra_complex(A, M, 3)
        assert X.dims() == [1, 4, 16, 64]
        assert verify_cocyclic_identities(X)

    def test_corrupted_cyclic_operator_detected(self, KZ3):
        A = regular_comodule_algebra(KZ3)
        M = scalar_coefficients(KZ3, counit_character(KZ3), unit_group_like(KZ3))
        X = build_comodule_algebra_complex(A, M, 2)
        assert X.tau(1) != identity(X.spaces[1])  # genuinely nontrivial
        corrupted = CocyclicModule(
            X.kind, X.field, X.max_degree, X.spaces, X.cofaces,
            X.codegeneracies,
            {**X.cyclic, 1: identity(X.spaces[1])},
            X.ambient_descriptions)
        res = verify_cocyclic_identities(corrupted)
        assert not res.passed
        assert "τ_1" in res.condition and res.witness is not None


class TestComoduleCoalgebraComplex:
    def test_trivial_ladder(self):
        from hopfcyc import trivial_comodule_coalgebra

        Hk = trivial_hopf()
        C = trivial_comodule_coalgebra(Hk)
        M = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
        X = build_comodule_coalgebra_complex(C, M, 3)
        assert X.dims() == [1, 1, 1, 1]
        assert verify_cocyclic_identities(X)

    def test_adjoint_carrier_over_sweedler(self, H4, H4_eps, H4_g):
        C = adjoint_comodule_coalgebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_g)
        X = build_comodule_coalgebra_complex(C, M, 3)
        assert verify_cocyclic_identities(X)

    def test_tau_escapes_for_incompatible_coefficient(self, H4, H4_eps, H4_one):
        # the coefficient fails the coalgebra-side SAYD test, and the complex
        # construction reports the membership failure instead of crashing
        C = adjoint_comodule_coalgebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_one)
        res = check_hcc("comodule-coalgebra", C, M, N=2)
        assert not res.passed
        assert res.condition == "well-defined"
        assert res.witness.location == "coface δ_2 of basis element 4 at degree 2"
        assert res.to_dict() == {
            "passed": False, "condition": "well-defined",
            "detail": "operator image escapes the subspace",
            "witness": {
                "location": "coface δ_2 of basis element 4 at degree 2",
                "lhs": "1⊗x⊗x⊗m + 1⊗gx⊗x⊗m + g⊗x⊗gx⊗m + g⊗gx⊗gx⊗m + x⊗x⊗g⊗m"
                       " + x⊗gx⊗g⊗m + gx⊗x⊗1⊗m + gx⊗gx⊗1⊗m",
                "rhs": "an element of the computed subspace"}}

    def test_kz2_adjoint(self, KZ2):
        C = adjoint_comodule_coalgebra(KZ2)
        M = scalar_coefficients(KZ2, counit_character(KZ2), unit_group_like(KZ2))
        X = build_comodule_coalgebra_complex(C, M, 2)
        assert verify_cocyclic_identities(X)


class TestModuleAlgebraComplex:
    def test_classical_reduction(self, KZ2):
        # trivial Hopf symmetry: the classical cyclic cochain complex of kZ2
        from hopfcyc.symmetries import algebra_over_trivial_hopf

        Hk = trivial_hopf()
        A = algebra_over_trivial_hopf(KZ2.space, KZ2.mult, KZ2.unit, Hk)
        M = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
        X = build_module_algebra_complex(A, M, 3)
        assert X.dims() == [2, 4, 8, 16]
        assert verify_cocyclic_identities(X)
        # classical operators: τ on degree 0 is the identity
        assert X.tau(0) == identity(X.spaces[0])

    def test_translation_action_instance(self):
        H, A = translation_module_algebra(cyclic_group(2))
        M = scalar_coefficients(H, counit_character(H), unit_group_like(H))
        X = build_module_algebra_complex(A, M, 3)
        assert verify_cocyclic_identities(X)

    def test_trivial_coefficient_over_trivial_algebra(self):
        from hopfcyc.symmetries import trivial_module_algebra

        Hk = trivial_hopf()
        A = trivial_module_algebra(Hk)
        M = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
        X = build_module_algebra_complex(A, M, 3)
        assert all(d == 1 for d in X.dims())
        assert verify_cocyclic_identities(X)

    def test_incompatible_coefficient_escapes(self, H4, H4_eps, H4_one):
        # the adjoint action with the ε-unit coefficient: the last coface
        # leaves the invariant functionals at degree 2
        A = adjoint_module_algebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_one)
        with pytest.raises(CocyclicConstructionError) as err:
            build_module_algebra_complex(A, M, 2)
        assert err.value.check.condition == "well-defined"
        assert err.value.check.witness.location == "coface δ_2 of basis element 4 at degree 2"
        assert err.value.check.to_dict() == {
            "passed": False, "condition": "well-defined",
            "detail": "operator image escapes the subspace",
            "witness": {
                "location": "coface δ_2 of basis element 4 at degree 2",
                "lhs": "m⊗1⊗x⊗x* + (-1)·m⊗g⊗x⊗gx* + m⊗x⊗x⊗1* + m⊗gx⊗x⊗g*",
                "rhs": "an element of the computed subspace"}}


class TestCheckHcc:
    def test_carrier_sayd_passes(self, H4, H4_eps, H4_g):
        A = regular_comodule_algebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_g)
        assert check_hcc("comodule-algebra", A, M, N=2)

    def test_cocommutative_lemma_gives_hcc(self, bicrossed_f3):
        from hopfcyc import as_left_comodule_algebra, bicrossed_function_comodule_algebra, co_opposite
        from hopfcyc import check_cocommutative_coaction_algebra

        Hcop = co_opposite(bicrossed_f3.hopf)
        F = as_left_comodule_algebra(
            bicrossed_function_comodule_algebra(bicrossed_f3), Hcop)
        assert check_cocommutative_coaction_algebra(F, n_max=2)
        M = trivial_coaction_module(Hcop, Hcop.mult, space=Hcop.space)
        assert check_hcc("comodule-algebra", F, M, N=2)

    def test_incompatible_coefficient_fails_with_witness(self, H4, H4_eps, H4_one):
        A = regular_comodule_algebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_one)
        res = check_hcc("comodule-algebra", A, M, N=2)
        assert not res.passed
        assert res.condition == "well-defined"
        assert res.witness.location == "coface δ_1 of basis element 0 at degree 1"
        assert res.to_dict() == {
            "passed": False, "condition": "well-defined",
            "detail": "operator image escapes the subspace",
            "witness": {
                "location": "coface δ_1 of basis element 0 at degree 1",
                "lhs": "m←1⊗gx + (-1)·m←g⊗x + m←x⊗g + m←gx⊗1",
                "rhs": "an element of the computed subspace"}}

    def test_unknown_flavor_rejected(self, H4, H4_eps, H4_g):
        with pytest.raises(ValueError):
            check_hcc("module-coalgebra", None, None, N=1)


def test_serialization_shape(KZ2):
    A = regular_comodule_algebra(KZ2)
    M = scalar_coefficients(KZ2, counit_character(KZ2), unit_group_like(KZ2))
    X = build_comodule_algebra_complex(A, M, 2)
    d = X.to_dict()
    assert d["kind"] == "comodule-algebra"
    assert [deg["dim"] for deg in d["degrees"]] == X.dims()
    assert set(d["cofaces"]) == {"1", "2"}
    assert all(len(ops) == int(n) + 1 for n, ops in d["cofaces"].items())


@pytest.mark.parametrize("kind", ["comodule-algebra", "comodule-coalgebra", "module-algebra"])
def test_size_cap_trips_at_the_top_degree_before_any_work(kind, monkeypatch):
    # over kZ2 with a 1-dim coefficient degree 17 has 2^18 = 262,144 unknowns,
    # above the cap; degree 16 (131,072) is under it and must not be solved
    from hopfcyc import symmetries
    from hopfcyc.linalg import Chain
    from hopfcyc.symmetries import DegreeCapError

    H, Aact = translation_module_algebra(cyclic_group(2))
    M = scalar_coefficients(H, counit_character(H), unit_group_like(H))
    if kind == "module-algebra":
        build, carrier, what = build_module_algebra_complex, Aact, "invariant functionals"
    elif kind == "comodule-algebra":
        build, carrier, what = (build_comodule_algebra_complex, regular_comodule_algebra(H),
                                "colinear hom space")
    else:
        build, carrier, what = (build_comodule_coalgebra_complex,
                                adjoint_comodule_coalgebra(H), "cotensor space")
    if kind == "module-algebra":
        H.antipode_inverse()  # built before any degree; not part of the count
    walks = []
    materialize = Chain._materialize
    monkeypatch.setattr(Chain, "_materialize",
                        lambda self, *args: walks.append(self) or materialize(self, *args))
    # all three subspaces are solved by symmetries._equalizer
    monkeypatch.setattr(symmetries, "_null_vectors",
                        lambda *args: pytest.fail("a degree was solved"))
    with pytest.raises(DegreeCapError) as err:
        build(carrier, M, 17)
    assert str(err.value) == (
        "%s at degree 17 needs 262144 unknowns, above the configured cap 200000" % what)
    assert walks == []


def test_invariant_functionals_are_size_capped():
    from hopfcyc.cocyclic import invariant_functionals
    from hopfcyc.symmetries import DegreeCapError

    H, Aact = translation_module_algebra(cyclic_group(2))
    M = scalar_coefficients(H, counit_character(H), unit_group_like(H))
    with pytest.raises(DegreeCapError, match="invariant functionals at degree 17 needs 262144"):
        invariant_functionals(Aact, M, 17)
    assert invariant_functionals(Aact, M, 2).dim == 4


_REGULAR = {}


def _regular(name, field):
    """The regular comodule-algebra complex of ``name`` over ``field`` at
    N = 3, with the ε-unit coefficient."""
    if (name, field) not in _REGULAR:
        H = get_hopf(name, field)
        M = scalar_coefficients(H, counit_character(H), unit_group_like(H))
        _REGULAR[name, field] = build_comodule_algebra_complex(regular_comodule_algebra(H), M, 3)
    return _REGULAR[name, field]


def _operator(X, op, n, i):
    return X.tau(n) if op == "cyclic" else getattr(X, op)(n, i)


def _replaced(X, op, n, i, f):
    """X with one operator (``op`` one of "coface", "codegeneracy",
    "cyclic"; ``i`` is ignored for "cyclic") replaced by the map f."""
    cofaces = {k: list(ops) for k, ops in X.cofaces.items()}
    codegens = {k: list(ops) for k, ops in X.codegeneracies.items()}
    cyclic = dict(X.cyclic)
    if op == "cyclic":
        cyclic[n] = f
    else:
        (cofaces if op == "coface" else codegens)[n][i] = f
    return CocyclicModule(X.kind, X.field, X.max_degree, X.spaces, cofaces, codegens,
                          cyclic, X.ambient_descriptions)


def _corrupted(X, op, n, i, entry=None, add=1):
    """X with ``add`` added to one entry of one operator: ``entry``, or the
    operator's first stored entry."""
    f = _operator(X, op, n, i)
    entries = dict(f.entries)
    entry = min(entries) if entry is None else entry
    entries[entry] = entries.get(entry, 0) + X.field.from_int(add)
    return _replaced(X, op, n, i, LinMap(f.domain, f.codomain, entries))


_ADJOINT = {}


def _adjoint(name, field):
    """The adjoint comodule-coalgebra complex of ``name`` over ``field`` at
    N = 3, with the ε-unit coefficient."""
    if (name, field) not in _ADJOINT:
        H = get_hopf(name, field)
        M = scalar_coefficients(H, counit_character(H), unit_group_like(H))
        _ADJOINT[name, field] = build_comodule_coalgebra_complex(adjoint_comodule_coalgebra(H), M, 3)
    return _ADJOINT[name, field]


def _operators(X):
    return ([f for ops in X.cofaces.values() for f in ops]
            + [f for ops in X.codegeneracies.values() for f in ops] + list(X.cyclic.values()))


def _second_entry(X, op, n, i):
    """X with one operator given a second entry, 1, in the column of its
    smallest entry (r, c), at the new row r + 1 (mod the codomain's dim)."""
    f = _operator(X, op, n, i)
    r, c = min(f.entries)
    entries = {**f.entries, ((r + 1) % f.codomain.dim, c): X.field.one}
    return _replaced(X, op, n, i, LinMap(f.domain, f.codomain, entries))


class TestIdentitiesOnGenerators:
    """``verify_cocyclic_identities`` checks the τ identities, τ^{n+1} = id
    and the members at i = 0 (σ_jδ_i at i = 0 or j = 0), and falls back to
    the full list on a failure; its verdict must be the full-list oracle's
    (``cohomology_oracle.cocyclic_identities``): passed flag, condition,
    witness location and both sides."""

    def test_reduced_list(self):
        # the τ identities in the full list's order, then the members of the
        # other families at i = 0 (σ_jδ_i: i = 0 or j = 0) in that order;
        # the five coalgebra-ladder complexes stop at N = 4, 4, 3, 4 and 5
        def kept(condition):
            j, i = (int(k) for k in re.match(r"[δσ]_(\d+)∘[δσ]_(\d+)", condition).groups())
            return i == 0 or (condition.startswith("σ") and "∘δ" in condition and j == 0)

        sizes = {}
        for _, X in _complexes("ladder"):
            full = [r.condition for r in _identities(X, True)]
            cyclic = [c for c in full if c.startswith("τ")]
            assert [r.condition for r in _identities(X, False)] == cyclic + [
                c for c in full if not c.startswith("τ") and kept(c)]
            sizes[X.max_degree] = (len(full), len(cyclic) + sum(
                kept(c) for c in full if not c.startswith("τ")))
        assert sizes == {3: (52, 39), 4: (98, 64), 5: (165, 95)}

    @pytest.mark.parametrize("which", ["acceptance", "ladder", "scenarios", "Q", "GF7",
                                       "GF32003"])
    def test_verdicts_match_the_full_list(self, which):
        for name, X in _complexes(which):
            assert verify_cocyclic_identities(X) == oracle.cocyclic_identities(X), name

    @pytest.mark.parametrize("field", [QQ, GF7, GF32003], ids=["Q", "GF7", "GF32003"])
    @pytest.mark.parametrize("n, i", [(2, 1), (3, 1), (3, 2)])
    def test_corrupted_inner_coface(self, field, n, i):
        Y = _corrupted(_regular("kZ3", field), "coface", n, i)
        got = verify_cocyclic_identities(Y)
        assert not got.passed
        assert got == oracle.cocyclic_identities(Y)
        # the reduced list meets a τ identity first; only the fallback gives
        # the full list's first failure and witness
        assert got.condition.startswith("δ_")
        reduced = results.merge("cocyclic-identities", _identities(Y, False))
        assert reduced.condition.startswith("τ_")

    @pytest.mark.parametrize("field", [QQ, GF7, GF32003], ids=["Q", "GF7", "GF32003"])
    @pytest.mark.parametrize("n, j", [(1, 1), (2, 1), (2, 2)])
    def test_corrupted_codegeneracy(self, field, n, j):
        Y = _corrupted(_regular("kZ3", field), "codegeneracy", n, j)
        got = verify_cocyclic_identities(Y)
        assert not got.passed
        assert got == oracle.cocyclic_identities(Y)

    @pytest.mark.parametrize("field", [QQ, GF7, GF32003], ids=["Q", "GF7", "GF32003"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_corrupted_tau_is_not_periodic(self, field, n):
        # τ_n fixes basis element 0, its first entry: adding 2 there makes
        # τ^{n+1} read 3^{n+1} ≠ 1 at (0, 0) over ℚ, GF(7) and GF(32003)
        # (adding 1 would give 2³ = 1 in GF(7))
        X = _regular("kZ3", field)
        assert min(X.tau(n).entries) == (0, 0) and X.tau(n).entries[0, 0] == 1
        Y = _corrupted(X, "cyclic", n, None, add=2)
        assert oracle.power(Y.tau(n), n + 1) != identity(Y.spaces[n])
        got = verify_cocyclic_identities(Y)
        assert not got.passed
        assert got == oracle.cocyclic_identities(Y)

    @pytest.mark.parametrize("field", [QQ, GF7, GF32003], ids=["Q", "GF7", "GF32003"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_tau_breaks_a_conjugation_step(self, field, n):
        # τ_n = id keeps τ_n^{n+1} = id, but τ∘δ_i = δ_{i−1}∘τ no longer holds
        X = _regular("kZ3", field)
        Y = _replaced(X, "cyclic", n, None, identity(X.spaces[n]))
        assert oracle.power(Y.tau(n), n + 1) == identity(Y.spaces[n]) != X.tau(n)
        got = verify_cocyclic_identities(Y)
        assert got.condition.startswith("τ_") and "∘δ_" in got.condition
        assert got == oracle.cocyclic_identities(Y)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["kZ2", "kZ3"]), st.sampled_from([QQ, GF7]), st.data())
    def test_one_corrupted_entry(self, name, field, data):
        X = _regular(name, field)
        op = data.draw(st.sampled_from(["coface", "codegeneracy", "cyclic"]))
        n = data.draw(st.integers(*{"coface": (1, 3), "codegeneracy": (0, 2),
                                    "cyclic": (0, 3)}[op]))
        i = data.draw(st.integers(0, n))
        f = _operator(X, op, n, i)
        entry = (data.draw(st.integers(0, f.codomain.dim - 1)),
                 data.draw(st.integers(0, f.domain.dim - 1)))
        add = data.draw(st.integers(1, 6)) * data.draw(st.sampled_from([1, -1]))
        Y = _corrupted(X, op, n, i, entry, add)
        assert verify_cocyclic_identities(Y) == oracle.cocyclic_identities(Y)

    @pytest.mark.parametrize("field", [QQ, GF32003], ids=["Q", "GF32003"])
    def test_one_entry_operators_form_no_product(self, field, monkeypatch):
        # a passing complex whose operators hold one entry per column is
        # decided on column tables alone
        X = _adjoint("kS3", field)
        expected = oracle.cocyclic_identities(X)
        monkeypatch.setattr(LinMap, "__matmul__",
                            lambda f, g: pytest.fail("a product was formed"))
        assert verify_cocyclic_identities(X) == expected
        assert expected.passed

    @pytest.mark.parametrize("field", [QQ, GF32003], ids=["Q", "GF32003"])
    @pytest.mark.parametrize("op, n, i", [("cyclic", 3, None), ("coface", 3, 3), ("coface", 3, 0),
                                          ("codegeneracy", 2, 2), ("codegeneracy", 2, 0)])
    def test_two_entry_operator_falls_back(self, field, op, n, i):
        # every operator of the kS3 adjoint complex holds one entry per
        # column, so its identities compare as column tables; a second entry
        # in one column of τ_N, δ_N, δ_0, σ_{N−1} or σ_0 sends every composite
        # that holds it (τ_3 in the middle of σ_2∘τ_3∘τ_3 too) to the ``@``
        # products, whose verdict and witness are the full list's
        X = _adjoint("kS3", field)
        assert X.dims() == [6, 36, 216, 1296]
        assert all(f.col_table() is not None for f in _operators(X))
        Y = _second_entry(X, op, n, i)
        assert _operator(Y, op, n, i).col_table() is None
        got = verify_cocyclic_identities(Y)
        assert not got.passed
        assert got == oracle.cocyclic_identities(Y)

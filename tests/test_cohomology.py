"""Hochschild/cyclic dimensions and the differential identities."""

import pytest

from hopfcyc import (
    adjoint_comodule_coalgebra,
    build_comodule_algebra_complex,
    build_comodule_coalgebra_complex,
    build_module_algebra_complex,
    connes_boundary,
    counit_character,
    cyclic_dims,
    cyclic_group,
    differential_identities,
    group_algebra,
    hochschild_coboundary,
    hochschild_dims,
    regular_comodule_algebra,
    scalar_coefficients,
    trace_space_dimension,
    trivial_hopf,
    unit_group_like,
)
from hopfcyc.fields import GF, FieldError
from hopfcyc.symmetries import algebra_over_trivial_hopf
from hopfcyc.linalg import identity


@pytest.fixture(scope="module")
def trivial_ladder(trivial_instance):
    _, A, M = trivial_instance
    return build_comodule_algebra_complex(A, M, 4)


class TestTrivialInstance:
    def test_b_alternates_zero_identity(self, trivial_ladder):
        X = trivial_ladder
        # all cofaces are the scalar identity: b = 0 from even degrees,
        # b = id from odd degrees (alternating sum of n+2 equal terms)
        for n in range(4):
            b = hochschild_coboundary(X, n)
            if n % 2 == 0:
                assert b.is_zero()
            else:
                assert b == identity(X.spaces[n])

    def test_hochschild_table(self, trivial_ladder):
        assert hochschild_dims(trivial_ladder, 3).dims == [1, 0, 0, 0]

    def test_cyclic_table(self, trivial_ladder):
        assert cyclic_dims(trivial_ladder, 3).dims == [1, 0, 1, 0]

    def test_dims_bounded_by_spaces(self, trivial_ladder):
        table = cyclic_dims(trivial_ladder, 3)
        for n, d in enumerate(table.dims):
            assert 0 <= d <= trivial_ladder.spaces[n].dim


class TestDifferentialIdentities:
    def test_on_comodule_algebra_complexes(self, KZ2, H4, H4_eps, H4_g):
        for H, sigma in ((KZ2, unit_group_like(KZ2)), (H4, H4_g)):
            A = regular_comodule_algebra(H)
            M = scalar_coefficients(H, counit_character(H), sigma)
            X = build_comodule_algebra_complex(A, M, 3)
            assert all(ok for _, ok in differential_identities(X))

    def test_on_coalgebra_complex(self, H4, H4_eps, H4_g):
        C = adjoint_comodule_coalgebra(H4)
        M = scalar_coefficients(H4, H4_eps, H4_g)
        X = build_comodule_coalgebra_complex(C, M, 3)
        assert all(ok for _, ok in differential_identities(X))

    def test_connes_boundary_squares_to_zero(self, KZ3):
        A = regular_comodule_algebra(KZ3)
        M = scalar_coefficients(KZ3, counit_character(KZ3), unit_group_like(KZ3))
        X = build_comodule_algebra_complex(A, M, 3)
        for n in range(2, 4):
            assert (connes_boundary(X, n - 1) @ connes_boundary(X, n)).is_zero()


class TestClassicalAlgebra:
    def test_group_algebra_degree_zero_is_traces(self, KZ2, KS3):
        Hk = trivial_hopf()
        M = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
        for G in (KZ2, KS3):
            A = algebra_over_trivial_hopf(G.space, G.mult, G.unit, Hk)
            X = build_module_algebra_complex(A, M, 2)
            hh = hochschild_dims(X, 1)
            hc = cyclic_dims(X, 1)
            traces = trace_space_dimension(G.mult, G.space)
            assert hh.dims[0] == traces
            assert hc.dims[0] == traces

    def test_s3_trace_dimension_is_class_count(self, KS3):
        # the trace space of a group algebra is spanned by class functions
        assert trace_space_dimension(KS3.mult, KS3.space) == 3


class TestFieldRestrictions:
    def test_cyclic_dims_refuses_positive_characteristic(self):
        F = GF(3)
        Hk = trivial_hopf(F)
        from hopfcyc.symmetries import trivial_comodule_algebra

        A = trivial_comodule_algebra(Hk)
        M = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
        X = build_comodule_algebra_complex(A, M, 3)
        with pytest.raises(FieldError):
            cyclic_dims(X, 2)
        # the Hochschild table works in any characteristic
        assert hochschild_dims(X, 2).dims == [1, 0, 0]


def test_cyclic_dims_names_the_escaping_image(trivial_ladder):
    # τ_1 = τ_2 = −id makes the whole of degree 1 and none of degree 2
    # cyclic, while b = id from degree 1 still maps the one into the other
    from hopfcyc.cocyclic import CocyclicConstructionError, CocyclicModule

    X = trivial_ladder
    minus = X.field.from_int(-1)
    broken = CocyclicModule(
        X.kind, X.field, X.max_degree, X.spaces, X.cofaces, X.codegeneracies,
        {**X.cyclic, 1: identity(X.spaces[1]).scaled(minus),
         2: identity(X.spaces[2]).scaled(minus)},
        X.ambient_descriptions)
    with pytest.raises(CocyclicConstructionError) as err:
        cyclic_dims(broken, 3)
    check = err.value.check
    assert not check.passed and check.condition == "cyclic-subcomplex-closed"
    assert check.witness.location.startswith("b of cyclic basis element 0 = ")
    assert check.witness.location.endswith("at degree 1")
    escaping = hochschild_coboundary(broken, 1).apply(X.spaces[1].basis_vector(0))
    assert not escaping.is_zero() and check.lhs_vector == escaping


def test_table_rendering(trivial_ladder):
    table = cyclic_dims(trivial_ladder, 3)
    text = table.render()
    assert "cyclic" in text and "1" in text
    d = table.to_dict()
    assert d["dims"] == [1, 0, 1, 0] and d["computed_up_to"] == 3

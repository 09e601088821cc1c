"""Exactness of the scalars: a ℚ scalar is an int or a Fraction, never a
float or a bool, and a GF(p) scalar is an int in [0, p), whatever the pivots."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import hopfcyc
from hopfcyc.fields import GF, QQ, FieldError
from hopfcyc.linalg import (
    LinMap,
    Space,
    Vector,
    _rref,
    identity,
    inverse_map,
    kernel_basis,
    rank,
)
from rref_oracle import SubspaceSolver

GF7 = GF(7)

# small integers, plus fractions so that non-unit pivots occur
raw_scalars = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(2, 5)),
)


@st.composite
def raw_matrices(draw, square=False):
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(raw_scalars, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    x = draw(st.lists(raw_scalars, min_size=ncols, max_size=ncols))
    return rows, x


def to_field(field, value):
    if field is QQ:
        return value
    return field.parse(str(value))


def is_exact(field, value):
    if field is QQ:
        return type(value) in (int, Fraction)
    return type(value) is int and 0 <= value < field.p


def build(field, rows):
    ncols = len(rows[0])
    dom = Space(tuple("c%d" % j for j in range(ncols)), field)
    cod = Space(tuple("r%d" % i for i in range(len(rows))), field)
    entries = {(i, j): to_field(field, v)
               for i, row in enumerate(rows) for j, v in enumerate(row)}
    return LinMap(dom, cod, entries)


def sparse_rows(f):
    rows = [{} for _ in range(f.codomain.dim)]
    for (r, c), v in f.entries.items():
        rows[r][c] = v
    return rows


def assert_exact(field, values):
    bad = [v for v in values if not is_exact(field, v)]
    assert not bad, "inexact scalars %r" % bad


@pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF7"])
@settings(max_examples=80, deadline=None)
@given(data=raw_matrices())
def test_elimination_returns_exact_scalars(field, data):
    raw_rows, raw_x = data
    f = build(field, raw_rows)
    rows = sparse_rows(f)
    assert_exact(field, [v for _, row in _rref(rows, field) for v in row.values()])

    kernel = kernel_basis(f)
    assert_exact(field, [v for vec in kernel for v in vec.entries.values()])
    assert all(f.apply(vec).is_zero() for vec in kernel)

    x = Vector(f.domain, {j: to_field(field, v) for j, v in enumerate(raw_x)})
    basis = []
    for row in rows:
        vec = Vector(f.domain, row)
        try:
            SubspaceSolver(basis + [vec])
        except ValueError:
            continue
        basis.append(vec)
    solver = SubspaceSolver(basis)
    combo = Vector(f.domain, {})
    for b, c in zip(basis, raw_x):
        combo = combo + b.scaled(to_field(field, c))
    coords = solver.coords(combo)
    assert coords is not None
    assert_exact(field, coords.values())
    assert coords == {k: to_field(field, c)
                      for k, c in zip(range(len(basis)), raw_x) if c}
    assert_exact(field, (solver.coords(x) or {}).values())


@pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF7"])
@settings(max_examples=60, deadline=None)
@given(data=raw_matrices(square=True))
def test_inverse_map_returns_exact_scalars(field, data):
    f = build(field, data[0])
    assume(rank(f) == f.domain.dim)
    g = inverse_map(f)
    assert_exact(field, g.entries.values())
    assert f @ g == identity(f.codomain)


class TestRationalScalars:
    def test_constants_are_ints(self):
        assert type(QQ.zero) is int and QQ.zero == 0
        assert type(QQ.one) is int and QQ.one == 1
        assert type(QQ.from_int(-3)) is int
        assert type(QQ.from_int(True)) is int
        assert [QQ.sign(n) for n in range(3)] == [1, -1, 1]
        with pytest.raises(TypeError):
            QQ.from_int(Fraction(1, 2))

    @pytest.mark.parametrize("x, expected, kind", [
        (1, 1, int),
        (-1, -1, int),
        (Fraction(1, 3), 3, int),
        (Fraction(-1, 3), -3, int),
        (2, Fraction(1, 2), Fraction),
        (Fraction(-2, 3), Fraction(-3, 2), Fraction),
    ])
    def test_inv(self, x, expected, kind):
        got = QQ.inv(x)
        assert type(got) is kind
        assert got == expected and got * x == 1

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_inv_zero_raises(self, zero):
        with pytest.raises(FieldError):
            QQ.inv(zero)

    def test_parse(self):
        two = QQ.parse("4/2")
        assert type(two) is int and two == 2
        half = QQ.parse("1/2")
        assert type(half) is Fraction and half == Fraction(1, 2)
        assert type(QQ.parse("-7")) is int

    def test_prime_field_inv(self):
        assert GF7.inv(GF7.from_int(3)) == GF7.from_int(5)
        with pytest.raises(FieldError):
            GF7.inv(GF7.zero)


def test_no_true_division_outside_fields():
    """Only fields.py may divide with ``/``; elsewhere an int/int quotient
    would become a float, so every division goes through ``field.inv``."""
    package = Path(hopfcyc.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                offenders.append("%s:%d" % (path.name, node.lineno))
    assert not offenders, "true division outside fields.py: %s" % ", ".join(offenders)

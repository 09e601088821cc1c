"""The lead-driven elimination kernel against the reference oracle.

``_rref``, ``rank``, ``kernel_basis``, ``span_dim`` and
``SubspaceSolver.coords`` must give exactly what the fully reduced,
row-by-row elimination of ``rref_oracle`` gives, with exact scalars, on
sparse systems whose structure stresses the lead bookkeeping: permuted
block-diagonal matrices, duplicate rows, rows that cancel to zero, and empty
or all-zero systems; and on systems shaped like the equalizers, mostly
one-entry rows, which the kernel files as pivots before its forward pass.
On the same kernel bases, ``Subspace.coords`` (read off the free columns)
must agree with ``SubspaceSolver.coords``.  On the
rows of those systems taken as bases, ``membership`` must give what the
incremental ``rref_oracle.SubspaceSolver`` gives, and ``inverse_map`` what
``rref_oracle.inverse_map`` gives."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rref_oracle
from rref_oracle import SubspaceSolver
from hopfcyc.fields import GF, QQ
from hopfcyc.linalg import (
    LinMap,
    Space,
    Subspace,
    Vector,
    _rref,
    inverse_map,
    kernel_basis,
    membership,
    rank,
    span_dim,
)

GF7 = GF(7)

raw_scalars = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(2, 5)),
)


def to_field(field, value):
    return value if field is QQ else field.parse(str(value))


def is_exact(field, value):
    if field is QQ:
        return type(value) in (int, Fraction)
    return type(value) is int and 0 <= value < field.p


def sparse(field, values):
    """{col: scalar} without the zero entries."""
    out = {}
    for c, v in values.items():
        v = to_field(field, v)
        if v:
            out[c] = v
    return out


@st.composite
def systems(draw, fields=(QQ, GF7)):
    """(field, rows, ncols): blocks placed on the diagonal, padded with zero
    columns, grown by duplicate, scaled and cancelling rows and by empty
    rows, then shuffled by a row and a column permutation."""
    field = draw(st.sampled_from(fields))
    rows, ncols = [], 0
    for _ in range(draw(st.integers(0, 4))):
        nr, nc = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        for _ in range(nr):
            values = draw(st.lists(raw_scalars, min_size=nc, max_size=nc))
            rows.append(sparse(field, {ncols + j: v for j, v in enumerate(values)}))
        ncols += nc
    ncols += draw(st.integers(0, 2))  # columns no row meets
    ncols = max(ncols, 1)
    for _ in range(draw(st.integers(0, 4))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["duplicate", "scaled", "cancel", "combine"]))
        a = to_field(field, draw(raw_scalars))
        if kind == "duplicate":
            new = dict(rows[i])
        elif kind == "scaled":
            new = {c: a * v for c, v in rows[i].items()}
        elif kind == "cancel":  # with rows[i] it sums to zero
            new = {c: field.zero - v for c, v in rows[i].items()}
        else:  # rows[i] + a·rows[j]: eliminates to zero against its sources
            new = dict(rows[i])
            for c, v in rows[j].items():
                new[c] = new.get(c, field.zero) + a * v
        rows.append({c: v for c, v in new.items() if v})
    rows += [{} for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(len(rows))))
    perm = draw(st.permutations(range(ncols)))
    rows = [{perm[c]: v for c, v in rows[i].items()} for i in order]
    return field, rows, ncols


def matrix(field, rows, ncols):
    dom = Space(tuple("c%d" % j for j in range(ncols)), field)
    cod = Space(tuple("r%d" % i for i in range(max(len(rows), 1))), field)
    return LinMap(dom, cod, {(i, c): v for i, row in enumerate(rows) for c, v in row.items()})


def assert_exact(field, values):
    bad = [v for v in values if not is_exact(field, v)]
    assert not bad, "inexact scalars %r" % bad


def check_against_oracle(field, rows, ncols, values):
    expected = rref_oracle.rref(rows, field)
    got = _rref(rows, field)
    assert got == expected
    assert_exact(field, [v for _, row in got for v in row.values()])

    f = matrix(field, rows, ncols)
    assert rank(f) == len(expected)
    kernel = kernel_basis(f)
    assert kernel == rref_oracle.null_vectors(rows, f.domain)
    assert [list(v.entries) for v in kernel] == [
        list(v.entries) for v in rref_oracle.null_vectors(rows, f.domain)]
    assert_exact(field, [v for vec in kernel for v in vec.entries.values()])
    assert span_dim([Vector(f.domain, row) for row in rows]) == len(expected)

    if kernel:  # the kernel basis is independent: recover known coordinates
        solver = SubspaceSolver(kernel)
        coeffs = {k: to_field(field, v) for k, v in enumerate(values[:len(kernel)])}
        combo = Vector(f.domain, {})
        for k, c in coeffs.items():
            combo = combo + kernel[k].scaled(c)
        coords = solver.coords(combo)
        assert coords == {k: c for k, c in coeffs.items() if c}
        assert_exact(field, coords.values())


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_elimination_agrees_with_oracle(system, data):
    field, rows, ncols = system
    values = data.draw(st.lists(raw_scalars, min_size=len(rows), max_size=len(rows)))
    check_against_oracle(field, rows, ncols, values)


@pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF7"])
@pytest.mark.parametrize("rows", [[], [{}], [{}, {}, {}]], ids=["empty", "one-zero", "zeros"])
def test_empty_and_zero_systems(field, rows):
    check_against_oracle(field, rows, 3, [1] * len(rows))
    assert _rref(rows, field) == []
    assert len(kernel_basis(matrix(field, rows, 3))) == 3


def test_diagonal_system_under_permutation():
    """One entry per row and many duplicates: the shape of the colinear
    systems, where the old back-substitution cost rank²."""
    n = 200
    perm = [(7 * j) % n for j in range(n)]  # 7 is prime to 200
    rows = [{perm[j]: j + 1} for j in range(0, n, 2)] * 2
    expected = rref_oracle.rref(rows, QQ)
    assert _rref(rows, QQ) == expected
    assert len(expected) == n // 2
    f = matrix(QQ, rows, n)
    assert kernel_basis(f) == rref_oracle.null_vectors(rows, f.domain)


@st.composite
def equalizer_systems(draw):
    """(field, rows, ncols) shaped like the equalizer systems, whose rows
    mostly hold one entry: one-entry rows, some duplicated or scaled on one
    column; longer rows that meet those columns, some of them left empty or
    with one entry once the columns are struck; empty rows; and over GF(7)
    unreduced entries, among them one-entry rows ≡ 0 (``{c: 7}``)."""
    field = draw(st.sampled_from([QQ, GF7]))
    ncols = draw(st.integers(1, 8))
    col = st.integers(0, ncols - 1)

    def scalar():
        v = to_field(field, draw(raw_scalars.filter(bool)))
        return v if field is QQ else v + 7 * draw(st.integers(-1, 2))

    rows = [{draw(col): scalar()} for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        [(c, v)] = draw(st.sampled_from(rows)).items()
        rows.append({c: v if draw(st.booleans()) else v * scalar()})
    struck = sorted({c for row in rows for c in row})
    free = [c for c in range(ncols) if c not in struck]
    for _ in range(draw(st.integers(0, 5))):
        # 0, 1 or 2 entries left once the one-entry columns are struck
        cols = draw(st.lists(st.sampled_from(struck), max_size=3, unique=True)) if struck else []
        cols += draw(st.lists(st.sampled_from(free), max_size=2, unique=True)) if free else []
        if len(cols) > 1:
            rows.append({c: scalar() for c in cols})
    if field is GF7:
        rows += [{draw(col): 7 * draw(st.sampled_from([1, -1, 2]))}
                 for _ in range(draw(st.integers(0, 2)))]
    rows += [{} for _ in range(draw(st.integers(0, 2)))]
    order = draw(st.permutations(range(len(rows))))
    return field, [rows[i] for i in order], ncols


@settings(max_examples=300, deadline=None)
@given(equalizer_systems(), st.data())
def test_one_entry_rows_agree_with_oracle(system, data):
    """One-entry rows are filed as pivots before the forward pass: every
    answer read off the elimination is still the oracle's."""
    field, rows, ncols = system
    values = data.draw(st.lists(raw_scalars, min_size=len(rows), max_size=len(rows)))
    check_against_oracle(field, rows, ncols, values)
    check_membership_against_oracle(field, rows, ncols, data)
    # a square map: one-entry rows at permuted columns, some swapped for rows
    # of the system
    perm = data.draw(st.permutations(range(ncols)))
    square = [rows[i] if i < len(rows) and data.draw(st.booleans()) else {perm[i]: field.one}
              for i in range(ncols)]
    check_inverse_against_oracle(matrix(field, square, ncols))


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_subspace_read_off_agrees_with_solver(system, data):
    field, rows, ncols = system
    f = matrix(field, rows, ncols)
    kernel = kernel_basis(f)
    sub, solver = Subspace(f.domain, kernel), SubspaceSolver(kernel)
    coeffs = [to_field(field, c) for c in data.draw(
        st.lists(raw_scalars, min_size=len(kernel), max_size=len(kernel)))]
    combo = Vector(f.domain, {})
    for vec, c in zip(kernel, coeffs):
        combo = combo + vec.scaled(c)
    got = sub.coords(combo)
    assert got == solver.coords(combo) == {k: c for k, c in enumerate(coeffs) if c}
    assert_exact(field, got.values())
    # moved off the combination at one column: in the span iff f kills it
    j = data.draw(st.integers(0, ncols - 1))
    step = Vector(f.domain, {j: to_field(field, data.draw(st.sampled_from([1, -1, 2])))})
    moved = combo + step
    got = sub.coords(moved)
    assert got == solver.coords(moved)
    assert (got is None) == (not f.apply(step).is_zero())
    # and any vector at all
    values = data.draw(st.lists(raw_scalars, min_size=ncols, max_size=ncols))
    anything = Vector(f.domain, sparse(field, dict(enumerate(values))))
    got = sub.coords(anything)
    assert got == solver.coords(anything)
    assert (got is None) == (not f.apply(anything).is_zero())


@pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF7"])
def test_zero_dimensional_subspace_read_off(field):
    f = matrix(field, [{0: field.one}, {1: field.one}], 2)
    assert kernel_basis(f) == []
    sub = Subspace(f.domain, [])
    assert sub.coords(Vector(f.domain, {})) == SubspaceSolver([]).coords(Vector(f.domain, {})) == {}
    e0 = Vector(f.domain, {0: field.one})
    assert sub.coords(e0) is None and SubspaceSolver([]).coords(e0) is None


def test_read_off_refuses_a_basis_that_is_not_canonical():
    sp = matrix(QQ, [], 3).domain
    with pytest.raises(ValueError, match="touches the free column"):
        Subspace(sp, [Vector(sp, {0: 1, 1: 1}), Vector(sp, {1: 1, 2: 1})]).coords(
            Vector(sp, {}))
    with pytest.raises(ValueError, match="not canonical"):
        Subspace(sp, [Vector(sp, {0: 1, 2: 2})]).coords(Vector(sp, {}))


def oracle_membership(vec, basis):
    """(True, coords), (False, None), or the ValueError text of the oracle."""
    try:
        coords = SubspaceSolver(basis).coords(vec)
    except ValueError as err:
        return str(err)
    return coords is not None, coords


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_membership_agrees_with_solver_oracle(system, data):
    """The rows of a system as a basis (dependent at the duplicate, scaled,
    cancelling and empty rows) and greedily thinned to an independent one:
    the same coordinates, the same None, or the same dependent index."""
    check_membership_against_oracle(*system, data)


def check_membership_against_oracle(field, rows, ncols, data):
    sp = matrix(field, [], ncols).domain
    basis = [Vector(sp, row) for row in rows]
    independent = []
    for b in basis:
        if not isinstance(oracle_membership(b, independent + [b]), str):
            independent.append(b)
    coeffs = [to_field(field, c) for c in data.draw(
        st.lists(raw_scalars, min_size=len(basis), max_size=len(basis)))]
    values = data.draw(st.lists(raw_scalars, min_size=ncols, max_size=ncols))
    j = data.draw(st.integers(0, ncols - 1))
    for span in (basis, independent):
        combo = Vector(sp, {})
        for b, c in zip(span, coeffs):
            combo = combo + b.scaled(c)
        for vec in (combo, combo + Vector(sp, {j: field.one}),
                    Vector(sp, sparse(field, dict(enumerate(values))))):
            expected = oracle_membership(vec, span)
            if isinstance(expected, str):
                with pytest.raises(ValueError, match="^%s$" % re.escape(expected)):
                    membership(vec, span)
                continue
            got = membership(vec, span)
            assert got == expected
            assert_exact(field, (got[1] or {}).values())
        if span is independent:
            known = {k: c for k, c in enumerate(coeffs[:len(span)]) if c}
            assert membership(combo, span) == (True, known)


@st.composite
def square_maps(draw):
    """A square map over ℚ or GF(7) with small entries, often singular."""
    field = draw(st.sampled_from([QQ, GF7]))
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(raw_scalars, min_size=n, max_size=n), min_size=n, max_size=n))
    return matrix(field, [sparse(field, dict(enumerate(row))) for row in rows], n)


@settings(max_examples=300, deadline=None)
@given(square_maps())
def test_inverse_map_agrees_with_solver_oracle(f):
    check_inverse_against_oracle(f)


def check_inverse_against_oracle(f):
    try:
        expected = rref_oracle.inverse_map(f)
    except ValueError:
        with pytest.raises(ValueError, match="^map is not invertible$"):
            inverse_map(f)
        assert rank(f) < f.domain.dim
        return
    g = inverse_map(f)
    assert g == expected
    assert_exact(g.field, g.entries.values())


def permuted_vector(vec, perm, sp):
    return Vector(sp, {perm[i]: v for i, v in vec.entries.items()})


@settings(max_examples=300, deadline=None)
@given(systems(), st.data())
def test_results_do_not_depend_on_row_order(system, data):
    """Rows are filed by descending lead, whatever order they come in: every
    answer read off the elimination is the same for each row permutation.
    ``membership`` eliminates the transposed system, whose rows are the
    ambient coordinates, so its rows are permuted by relabelling those."""
    field, rows, ncols = system
    order = data.draw(st.permutations(range(len(rows))))
    permuted = [rows[i] for i in order]
    assert _rref(permuted, field) == _rref(rows, field)
    f, g = matrix(field, rows, ncols), matrix(field, permuted, ncols)
    assert rank(g) == rank(f)
    kernel = kernel_basis(f)
    assert kernel_basis(g) == kernel
    assert [list(v.entries) for v in kernel_basis(g)] == [list(v.entries) for v in kernel]

    sp = f.domain
    perm = data.draw(st.permutations(range(ncols)))
    basis = [Vector(sp, row) for row in rows]
    values = data.draw(st.lists(raw_scalars, min_size=ncols, max_size=ncols))
    for span in (basis, [b for b in basis if b.entries][:1], []):
        for vec in (Vector(sp, sparse(field, dict(enumerate(values)))),
                    sum(span, Vector(sp, {}))):
            try:
                expected = membership(vec, span)
            except ValueError as err:
                with pytest.raises(ValueError, match="^%s$" % re.escape(str(err))):
                    membership(permuted_vector(vec, perm, sp),
                               [permuted_vector(b, perm, sp) for b in span])
                continue
            assert membership(permuted_vector(vec, perm, sp),
                              [permuted_vector(b, perm, sp) for b in span]) == expected


@pytest.mark.parametrize("field", [QQ, GF7], ids=["QQ", "GF7"])
def test_sweedler_adjoint_cotensor_system_matches_oracle(monkeypatch, field):
    """The largest system of the coalgebra benchmark: Sweedler's H4 acting
    on its adjoint comodule coalgebra, cotensored at degree 4 with the scalar
    (ε, g) coefficient (2,016 rows × 1,024 columns, rank 760)."""
    from hopfcyc import corpus, symmetries
    from hopfcyc.hopf import GroupLike, counit_character

    H = corpus.get_hopf("sweedler-h4", field)
    C = symmetries.adjoint_comodule_coalgebra(H)
    M = symmetries.scalar_coefficients(
        H, counit_character(H), GroupLike(H, H.space.basis_vector(1), name="g"))
    systems_seen = []
    null_vectors = symmetries._null_vectors

    def record(rows, space):
        systems_seen.append(list(rows))
        return null_vectors(rows, space)

    monkeypatch.setattr(symmetries, "_null_vectors", record)
    cotensor = symmetries.colinear_hom_space(symmetries.dual_carrier(C), M, 4, value_last=True)
    (rows,) = systems_seen
    assert (len(rows), cotensor.ambient.dim) == (2016, 1024)
    expected = rref_oracle.rref(rows, field)
    assert _rref(rows, field) == expected
    assert len(expected) == 760 and cotensor.dim == 1024 - 760
    assert cotensor.basis == rref_oracle.null_vectors(rows, cotensor.ambient)

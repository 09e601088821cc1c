"""GF(p) scalars as int residues against the ``GFElement`` oracle.

The library keeps a GF(p) scalar as a plain ``int`` and reduces it once per
kernel step: in the ``LinMap`` and ``Vector`` constructors, at the end of
each ``Chain`` apply step, at each lead ``_eliminate`` pops and before each
pivot choice and zero test.  ``gf_oracle.ElementField`` runs the same
kernels with ``GFElement`` scalars, which reduce on every operation, and
``chain_oracle.walk_entries`` walks a Chain column by column in them.  Over
GF(7) and GF(32003), the two must give identical ``_rref`` rows, ranks,
kernel bases, ``SubspaceSolver`` and ``Subspace`` coordinates and
``Chain`` entries, compared by residue.  The systems are those of
``test_elimination`` (cancelling and combined rows) with multiples of p
added to their entries and entries ≡ 0 mod p put in; the chains are those
of ``test_linalg``, whose ±1, ±2 entries leave [0, p) as soon as they are
multiplied or summed."""

from hypothesis import given, settings, strategies as st

import chain_oracle
import gf_oracle
from gf_oracle import lift_map, lift_row, lift_vector, lower_row
from rref_oracle import SubspaceSolver
from hopfcyc.fields import GF
from hopfcyc.linalg import (
    Subspace,
    Vector,
    _rref,
    kernel_basis,
    rank,
)
from test_elimination import matrix, raw_scalars, systems, to_field
from test_linalg import random_chains

FIELDS = (GF(7), GF(32003))


@st.composite
def unreduced_systems(draw):
    """(field, rows, ncols) of ``systems`` over GF(7) or GF(32003), with a
    multiple of p added to each entry and up to two entries ≡ 0 mod p put
    into each row."""
    field, rows, ncols = draw(systems(FIELDS))
    p = field.modulus
    multiples = st.integers(-2, 2).map(lambda k: k * p)
    out = []
    for row in rows:
        row = {c: v + draw(multiples) for c, v in row.items()}
        for c in draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
            row[c] = row.get(c, 0) + draw(multiples)
        out.append({c: v for c, v in row.items() if v})
    return field, out, ncols


def lowered(coords):
    return None if coords is None else lower_row(coords)


@settings(max_examples=300, deadline=None)
@given(unreduced_systems(), st.data())
def test_kernels_agree_with_element_arithmetic(system, data):
    field, rows, ncols = system
    E = gf_oracle.ElementField(field.modulus)
    lifted = [lift_row(field, row) for row in rows]
    assert _rref(rows, field) == [(c, lower_row(row)) for c, row in _rref(lifted, E)]

    f = matrix(field, rows, ncols)
    g = lift_map(f, E)
    assert rank(f) == rank(g)
    kernel, oracle_kernel = kernel_basis(f), kernel_basis(g)
    assert [v.entries for v in kernel] == [lower_row(v.entries) for v in oracle_kernel]

    if not kernel:
        return
    solver, oracle_solver = SubspaceSolver(kernel), SubspaceSolver(oracle_kernel)
    sub, oracle_sub = Subspace(f.domain, kernel), Subspace(g.domain, oracle_kernel)
    coeffs = data.draw(st.lists(raw_scalars, min_size=len(kernel), max_size=len(kernel)))
    combo = Vector(f.domain, {})
    for vec, c in zip(kernel, coeffs):
        combo = combo + vec.scaled(to_field(field, c))
    j = data.draw(st.integers(0, ncols - 1))
    values = data.draw(st.lists(raw_scalars, min_size=ncols, max_size=ncols))
    for vec in (combo, combo + Vector(f.domain, {j: field.one}),
                Vector(f.domain, {c: to_field(field, v) for c, v in enumerate(values)})):
        lifted_vec = lift_vector(vec, E)
        assert solver.coords(vec) == lowered(oracle_solver.coords(lifted_vec))
        assert sub.coords(vec) == lowered(oracle_sub.coords(lifted_vec))


@settings(max_examples=300, deadline=None)
@given(random_chains(FIELDS))
def test_chain_entries_agree_with_element_walk(chain):
    assert chain.entries() == chain_oracle.walk_entries(chain)

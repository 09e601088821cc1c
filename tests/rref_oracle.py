"""Reference oracle: the elimination that ``linalg._rref`` replaces.

Each new row is reduced against a fully reduced echelon, and each new pivot
is then back-eliminated from every echelon row, so the echelon stays in
reduced form after every row.  It costs rank² even on diagonal systems, but
it is short and plainly right, so a differential test can demand the same
reduced rows, ranks, kernels and solutions from the lead-driven kernel.
Over GF(p) it computes with the ``GFElement`` scalars of ``gf_oracle``, so it
accepts rows of unreduced residues and returns reduced ones.

``SubspaceSolver`` and ``inverse_map`` are the incremental solver that
``linalg.membership`` and ``linalg.inverse_map`` replace, kept as they were
with the ``_insert`` step they filed rows with: each basis vector is reduced
with its own coordinate column appended, one at a time, so a dependent basis
is refused at its first dependent index."""

import gf_oracle
from hopfcyc.fields import QQ
from hopfcyc.linalg import DimensionMismatch, LinMap, Vector, _eliminate, _reduced


def rref(rows, field):
    """Reduced row echelon form: [(pivot col, row dict)] sorted by col."""
    library, field = field, gf_oracle.oracle_field(field)
    echelon = {}  # pivot col -> row dict (normalized, fully reduced)
    for row in rows:
        row = gf_oracle.lift_row(library, row)
        # eliminate every existing pivot column from the new row; echelon rows
        # carry no foreign pivot columns, so one pass over a snapshot suffices
        for c in sorted(c for c in row if c in echelon):
            factor = row.get(c)
            if not factor:
                continue
            for c2, v in echelon[c].items():
                w = row.get(c2, field.zero) - factor * v
                if w:
                    row[c2] = w
                else:
                    row.pop(c2, None)
        if not row:
            continue
        lead = min(row)
        inv = field.inv(row[lead])
        row = {c: inv * v for c, v in row.items()}
        # back-eliminate the new pivot column from all existing rows
        for prow in echelon.values():
            factor = prow.get(lead)
            if not factor:
                continue
            for c, v in row.items():
                w = prow.get(c, field.zero) - factor * v
                if w:
                    prow[c] = w
                else:
                    prow.pop(c, None)
        echelon[lead] = row
    return [(lead, gf_oracle.lower_row(row)) for lead, row in sorted(echelon.items())]


def null_vectors(rows, space):
    """One kernel vector per free column, ascending, read row by row."""
    field = space.field
    echelon = rref(rows, field)
    pivot_set = {c for c, _ in echelon}
    basis = []
    for j in range(space.dim):
        if j in pivot_set:
            continue
        entries = {j: field.one}
        for c, row in echelon:
            v = row.get(j)
            if v:
                entries[c] = -v
        basis.append(Vector(space, entries))
    return basis


def solve_linear(rows, rhs, ncols, field):
    """One solution of rows·x = rhs read off the augmented RREF, or None."""
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[ncols] = b
        aug.append(r)
    solution = {}
    for c, row in rref(aug, field):
        if c == ncols:
            return None
        solution[c] = row.get(ncols, field.zero)
    return {c: v for c, v in solution.items() if v}


def _insert(row, echelon, field):
    """Reduce ``row`` by the echelon; if anything is left, normalize it at
    its lead, file it there and return the lead, else return None."""
    p = field.modulus
    row = _eliminate(row, echelon, p)
    if p is not None:
        row = _reduced(row, p)
    if not row:
        return None
    lead = min(row)
    inv = field.inv(row[lead])
    if p is None:
        echelon[lead] = {c: inv * v for c, v in row.items()}
    else:
        echelon[lead] = {c: inv * v % p for c, v in row.items()}
    return lead


class SubspaceSolver:
    """Expand vectors over a fixed independent basis (incremental elimination).

    Basis vector j is reduced with the coordinate column ``dim + j`` appended,
    so each echelon row carries its own expansion and one kernel serves both
    the build and every ``coords`` call."""

    def __init__(self, basis):
        if not basis:
            self.space = None
        else:
            self.space = basis[0].space
        self.basis = list(basis)
        self.field = self.space.field if self.space is not None else QQ
        self.echelon = {}  # lead index -> row over ambient and coordinate columns
        dim, one = self.space.dim if self.basis else 0, self.field.one
        for j, vec in enumerate(self.basis):
            if _insert({**vec.entries, dim + j: one}, self.echelon, self.field) >= dim:
                raise ValueError("subspace basis is linearly dependent at index %d" % j)

    def coords(self, vec):
        """Coefficients of vec over the basis, or None if not in the span."""
        if self.space is None:
            return {} if vec.is_zero() else None
        if vec.space.dim != self.space.dim:
            raise DimensionMismatch("membership test across different spaces")
        dim, p = self.space.dim, self.field.modulus
        row = _eliminate(dict(vec.entries), self.echelon, p)
        if p is None:
            return None if row and min(row) < dim else {c - dim: -v for c, v in row.items()}
        row = _reduced(row, p)
        return None if row and min(row) < dim else {c - dim: p - v for c, v in row.items()}


def inverse_map(f):
    """Exact inverse of a square map; raises if singular."""
    if f.domain.dim != f.codomain.dim:
        raise DimensionMismatch("inverse of a non-square map")
    solver = SubspaceSolver([f.column(c) for c in range(f.domain.dim)])
    entries = {}
    for j in range(f.codomain.dim):
        coords = solver.coords(f.codomain.basis_vector(j))
        if coords is None:
            raise ValueError("map is not invertible")
        for r, v in coords.items():
            entries[(r, j)] = v
    return LinMap(f.codomain, f.domain, entries)

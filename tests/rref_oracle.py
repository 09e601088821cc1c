"""Reference oracle: the elimination that ``linalg._rref`` replaces.

Each new row is reduced against a fully reduced echelon, and each new pivot
is then back-eliminated from every echelon row, so the echelon stays in
reduced form after every row.  It costs rank² even on diagonal systems, but
it is short and plainly right, so a differential test can demand the same
reduced rows, ranks, kernels and solutions from the lead-driven kernel.
Over GF(p) it computes with the ``GFElement`` scalars of ``gf_oracle``, so it
accepts rows of unreduced residues and returns reduced ones."""

import gf_oracle
from hopfcyc.linalg import Vector


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

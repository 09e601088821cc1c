"""Exact sparse linear algebra on labeled finite-dimensional spaces.

Spaces carry ordered basis labels (tensor products join labels with the
character ⊗ in row-major order), so every counterexample the checkers emit
reads as honest algebra.  Linear maps are sparse ``(row, col) -> scalar``
dictionaries.  Composite tensor expressions are assembled with ``Chain``,
which walks basis columns through the pipeline one at a time.

An operator on cochains, φ ↦ post ∘ (id ⊗ φ ⊗ id) ∘ pre, is a
``Contraction``: both fixed pipelines are materialized once (the prefix as
raw entries, never as a large labeled space), and each cochain is then
contracted into the middle legs by index arithmetic.

All values are immutable after construction (by convention; nothing mutates
a published object), so everything here is safe to share between threads.
"""

from __future__ import annotations

import itertools
import math

from .fields import QQ


class DimensionMismatch(ValueError):
    pass


class Space:
    """A finite-dimensional vector space with ordered, distinct basis labels."""

    __slots__ = ("labels", "field", "factors", "_label_index")

    def __init__(self, labels, field=QQ, factors=None):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        self.labels = labels
        self.field = field
        self.factors = tuple(factors) if factors else None
        self._label_index = None

    @property
    def dim(self):
        return len(self.labels)

    def index_of(self, label):
        if self._label_index is None:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        return self._label_index[label]

    def basis_vector(self, i):
        return Vector(self, {i: self.field.one})

    def basis(self):
        return [self.basis_vector(i) for i in range(self.dim)]

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.labels == other.labels
            and self.field == other.field
        )

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        if self.dim <= 4:
            return "Space(%s)" % (", ".join(self.labels))
        return "Space(dim=%d, %s, ...)" % (self.dim, self.labels[0])


def unit_space(field=QQ):
    """The ground field as a 1-dimensional space (empty tensor factor)."""
    return Space(("()",), field)


def tensor_space(*spaces):
    """Tensor product with row-major index convention and ⊗-joined labels."""
    if not spaces:
        raise ValueError("tensor_space needs at least one factor")
    field = spaces[0].field
    for s in spaces:
        if s.field != field:
            raise DimensionMismatch("tensor factors over different fields")
    if len(spaces) == 1:
        return spaces[0]
    labels = tuple(
        "⊗".join(parts) for parts in itertools.product(*[s.labels for s in spaces])
    )
    return Space(labels, field, factors=spaces)


def tensor_power(space, k):
    if k == 0:
        return unit_space(space.field)
    return tensor_space(*([space] * k))


class Vector:
    """Sparse vector: index -> nonzero scalar."""

    __slots__ = ("space", "entries")

    def __init__(self, space, entries=None):
        self.space = space
        self.entries = {i: v for i, v in (entries or {}).items() if v}

    def __add__(self, other):
        if other.space.dim != self.space.dim:
            raise DimensionMismatch("vector addition across different spaces")
        out = dict(self.entries)
        for i, v in other.entries.items():
            w = out.get(i, self.space.field.zero) + v
            if w:
                out[i] = w
            else:
                out.pop(i, None)
        return Vector(self.space, out)

    def __sub__(self, other):
        return self + other.scaled(self.space.field.from_int(-1))

    def scaled(self, factor):
        if not factor:
            return Vector(self.space, {})
        return Vector(self.space, {i: factor * v for i, v in self.entries.items()})

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.space.dim == other.space.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("vectors are not hashable")

    def describe(self):
        """Render with basis labels, e.g. ``x⊗g + (-2)·gx⊗1``."""
        if not self.entries:
            return "0"
        field = self.space.field
        parts = []
        for i in sorted(self.entries):
            coeff = self.entries[i]
            label = self.space.labels[i]
            if coeff == field.one:
                parts.append(label)
            else:
                parts.append("(%s)·%s" % (field.format(coeff), label))
        return " + ".join(parts)

    __repr__ = describe


def tensor_vectors(*vectors):
    space = tensor_space(*[v.space for v in vectors])
    entries = {}
    for combo in itertools.product(*[v.entries.items() for v in vectors]):
        flat = 0
        coeff = space.field.one
        for (i, c), v in zip(combo, vectors):
            flat = flat * v.space.dim + i
            coeff = coeff * c
        entries[flat] = entries.get(flat, space.field.zero) + coeff
    return Vector(space, entries)


class LinMap:
    """Sparse linear map.  Composition (``@``) checks dimensions only;
    labels are provenance, not identity."""

    __slots__ = ("domain", "codomain", "entries", "_by_col")

    def __init__(self, domain, codomain, entries=None):
        self.domain = domain
        self.codomain = codomain
        self.entries = {k: v for k, v in (entries or {}).items() if v}
        self._by_col = None

    @property
    def field(self):
        return self.domain.field

    def by_col(self):
        if self._by_col is None:
            cols = {}
            for (r, c), v in self.entries.items():
                cols.setdefault(c, []).append((r, v))
            self._by_col = cols
        return self._by_col

    def column(self, c):
        return Vector(self.codomain, dict(self.by_col().get(c, ())))

    def apply(self, vec):
        if vec.space.dim != self.domain.dim:
            raise DimensionMismatch(
                "map applied to vector of dim %d, expected %d"
                % (vec.space.dim, self.domain.dim)
            )
        out = {}
        zero = self.field.zero
        for c, coeff in vec.entries.items():
            for r, v in self.by_col().get(c, ()):
                w = out.get(r, zero) + coeff * v
                if w:
                    out[r] = w
                else:
                    del out[r]
        return Vector(self.codomain, out)

    def __matmul__(self, other):
        """self ∘ other."""
        if other.codomain.dim != self.domain.dim:
            raise DimensionMismatch(
                "composition: inner dims %d and %d differ"
                % (other.codomain.dim, self.domain.dim)
            )
        zero = self.field.zero
        out = {}
        for (k, c), v in other.entries.items():
            for r, w in self.by_col().get(k, ()):
                key = (r, c)
                s = out.get(key, zero) + w * v
                if s:
                    out[key] = s
                else:
                    del out[key]
        return LinMap(other.domain, self.codomain, out)

    def __add__(self, other):
        self._check_same_shape(other)
        out = dict(self.entries)
        zero = self.field.zero
        for k, v in other.entries.items():
            s = out.get(k, zero) + v
            if s:
                out[k] = s
            else:
                del out[k]
        return LinMap(self.domain, self.codomain, out)

    def __sub__(self, other):
        return self + other.scaled(self.field.from_int(-1))

    def scaled(self, factor):
        if not factor:
            return LinMap(self.domain, self.codomain, {})
        return LinMap(
            self.domain, self.codomain, {k: factor * v for k, v in self.entries.items()}
        )

    def _check_same_shape(self, other):
        if (
            other.domain.dim != self.domain.dim
            or other.codomain.dim != self.codomain.dim
        ):
            raise DimensionMismatch("maps of different shapes")

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (
            self.domain.dim == other.domain.dim
            and self.codomain.dim == other.codomain.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("maps are not hashable")

    def is_zero(self):
        return not self.entries

    def with_spaces(self, domain=None, codomain=None):
        """Relabel domain/codomain (dims must agree); entries are shared."""
        domain = domain if domain is not None else self.domain
        codomain = codomain if codomain is not None else self.codomain
        if domain.dim != self.domain.dim or codomain.dim != self.codomain.dim:
            raise DimensionMismatch("relabel to different dimensions")
        return LinMap(domain, codomain, self.entries)

    def power(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = identity(self.domain)
        for _ in range(k):
            out = self @ out
        return out

    def __repr__(self):
        return "LinMap(%d×%d, %d nonzero)" % (
            self.codomain.dim,
            self.domain.dim,
            len(self.entries),
        )


def identity(space):
    one = space.field.one
    return LinMap(space, space, {(i, i): one for i in range(space.dim)})


def zero_map(domain, codomain):
    return LinMap(domain, codomain, {})


def tensor_map(f, g):
    """f ⊗ g with the row-major index convention on both sides."""
    dom = tensor_space(f.domain, g.domain)
    cod = tensor_space(f.codomain, g.codomain)
    entries = {}
    gdr, gdc = g.codomain.dim, g.domain.dim
    for (rf, cf), vf in f.entries.items():
        for (rg, cg), vg in g.entries.items():
            entries[(rf * gdr + rg, cf * gdc + cg)] = vf * vg
    return LinMap(dom, cod, entries)


def _flatten(dims, tup):
    flat = 0
    for d, i in zip(dims, tup):
        flat = flat * d + i
    return flat


def _unflatten(dims, flat):
    out = [0] * len(dims)
    for i in range(len(dims) - 1, -1, -1):
        out[i] = flat % dims[i]
        flat //= dims[i]
    return tuple(out)


def leg_permutation(legs, order):
    """Map ⊗legs → ⊗legs[order[i]]; order[i] names the source leg landing in
    target slot i.  Materialized; only use on spaces of modest dimension."""
    legs = list(legs)
    if sorted(order) != list(range(len(legs))):
        raise ValueError("order must be a permutation of the legs")
    dims = [s.dim for s in legs]
    dom = tensor_space(*legs)
    cod = tensor_space(*[legs[j] for j in order])
    out_dims = [dims[j] for j in order]
    one = dom.field.one
    entries = {}
    for tup in itertools.product(*[range(d) for d in dims]):
        src = _flatten(dims, tup)
        dst = _flatten(out_dims, tuple(tup[j] for j in order))
        entries[(dst, src)] = one
    return LinMap(dom, cod, entries)


class Chain:
    """Tensor-pipeline builder: apply maps to selected legs, permute legs,
    then materialize the composite by walking each domain basis column.

    ``apply(f, at, nin, out_legs)`` consumes legs ``at .. at+nin-1`` as the
    domain of ``f`` (row-major), producing ``out_legs`` in their place.
    ``nin=0`` inserts at position ``at`` (map from the ground field);
    ``out_legs=[]`` drops the output (map to the ground field).
    """

    def __init__(self, source_legs, field=None):
        self.source_legs = list(source_legs)
        if self.source_legs:
            self.field = self.source_legs[0].field
        else:
            self.field = field if field is not None else QQ
        self.steps = []
        self.legs = list(self.source_legs)

    def apply(self, f, at, nin, out_legs):
        dims = [s.dim for s in self.legs[at : at + nin]]
        prod = 1
        for d in dims:
            prod *= d
        if f.domain.dim != prod:
            raise DimensionMismatch(
                "apply: map domain dim %d, legs give %d" % (f.domain.dim, prod)
            )
        out_legs = list(out_legs)
        oprod = 1
        for s in out_legs:
            oprod *= s.dim
        if f.codomain.dim != oprod:
            raise DimensionMismatch(
                "apply: map codomain dim %d, out legs give %d" % (f.codomain.dim, oprod)
            )
        self.steps.append(("apply", f, at, dims, [s.dim for s in out_legs]))
        self.legs[at : at + nin] = out_legs
        return self

    def permute(self, order):
        if sorted(order) != list(range(len(self.legs))):
            raise ValueError("order must be a permutation of current legs")
        self.steps.append(("perm", list(order)))
        self.legs = [self.legs[j] for j in order]
        return self

    def rotate_last_to_front(self):
        n = len(self.legs)
        return self.permute([n - 1] + list(range(n - 1)))

    def _run_column(self, tup):
        state = {tuple(tup): self.field.one}
        for step in self.steps:
            if step[0] == "perm":
                order = step[1]
                state = {
                    tuple(t[j] for j in order): v for t, v in state.items()
                }
                continue
            _, f, at, in_dims, out_dims = step
            nin = len(in_dims)
            cols = f.by_col()
            new_state = {}
            zero = self.field.zero
            for t, coeff in state.items():
                col = _flatten(in_dims, t[at : at + nin]) if nin else 0
                for r, v in cols.get(col, ()):
                    out_tup = _unflatten(out_dims, r) if out_dims else ()
                    nt = t[:at] + out_tup + t[at + nin :]
                    w = new_state.get(nt, zero) + coeff * v
                    if w:
                        new_state[nt] = w
                    else:
                        del new_state[nt]
            state = new_state
        return state

    def entries(self):
        """The composite's ``(row, col) -> scalar`` entries; no labeled spaces."""
        src_dims = [s.dim for s in self.source_legs]
        out_dims = [s.dim for s in self.legs]
        entries = {}
        for tup in itertools.product(*[range(d) for d in src_dims]) if src_dims else [()]:
            col = _flatten(src_dims, tup)
            for t, v in self._run_column(tup).items():
                entries[(_flatten(out_dims, t), col)] = v
        return entries

    def to_map(self):
        return LinMap(_legs_space(self.source_legs, self.field),
                      _legs_space(self.legs, self.field), self.entries())


def _legs_space(legs, field):
    return tensor_space(*legs) if legs else unit_space(field)


class Contraction:
    """The operator f ↦ post ∘ (id ⊗ f ⊗ id) ∘ pre for fixed tensor pipelines.

    ``pre`` is a Chain whose legs ``at .. at+nin-1`` are the domain of f;
    ``post`` is a Chain whose source legs are pre's legs with f's codomain
    legs in their place.  ``contract(f)`` visits only the prefix entries that
    meet a nonzero column of f, and equals the Chain with f in between."""

    def __init__(self, pre, at, nin, post):
        left, right = pre.legs[:at], pre.legs[at + nin:]
        nout = len(post.source_legs) - len(left) - len(right)
        if nout < 0 or [s.dim for s in post.source_legs[:at] + post.source_legs[at + nout:]] \
                != [s.dim for s in left + right]:
            raise DimensionMismatch("contraction: post legs do not match pre around f")
        self.field = pre.field
        self.in_dim = math.prod(s.dim for s in pre.legs[at:at + nin])
        self.out_dim = math.prod(s.dim for s in post.source_legs[at:at + nout])
        self.right_dim = math.prod(s.dim for s in right)
        self.domain = _legs_space(pre.source_legs, pre.field)
        self._pre = {}  # middle index x -> [(left index, right index, col, v)]
        for (row, col), v in pre.entries().items():
            lx, r = divmod(row, self.right_dim)
            l, x = divmod(lx, self.in_dim)
            self._pre.setdefault(x, []).append((l, r, col, v))
        self._post = post.to_map()
        self.codomain = self._post.codomain

    def contract(self, f):
        """post ∘ (id ⊗ f ⊗ id) ∘ pre as a map from pre's source legs."""
        if f.domain.dim != self.in_dim or f.codomain.dim != self.out_dim:
            raise DimensionMismatch("contraction: map is %d×%d, legs give %d×%d" % (
                f.codomain.dim, f.domain.dim, self.out_dim, self.in_dim))
        zero = self.field.zero
        odim, rdim = self.out_dim, self.right_dim
        mid = {}
        for x, fcol in f.by_col().items():
            for l, r, col, v in self._pre.get(x, ()):
                for y, w in fcol:
                    key = ((l * odim + y) * rdim + r, col)
                    mid[key] = mid.get(key, zero) + v * w
        return self._post @ LinMap(self.domain, self._post.domain, mid)


def _rref(rows, field):
    """Reduced row echelon form of sparse rows (dict col -> scalar).

    Returns (pivot list [(col, rowdict)], sorted by col).  Exact arithmetic,
    pivot = first nonzero column; deterministic for any input order since the
    RREF of a row space is unique.  Invariant: every echelon row meets the
    pivot columns only in its own pivot, so kernel extraction can read the
    free-column coefficients directly.
    """
    echelon = {}  # pivot col -> row dict (normalized, fully reduced)
    for row in rows:
        row = dict(row)
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
        inv = field.one / row[lead]
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
    return sorted(echelon.items())


def _map_rows(f):
    rows = {}
    for (r, c), v in f.entries.items():
        rows.setdefault(r, {})[c] = v
    return [rows[r] for r in sorted(rows)]


def rank(f):
    return len(_rref(_map_rows(f), f.field))


def kernel_basis(f):
    """Exact basis of ker f, canonical (one vector per free column, ascending).

    dim ker + rank = dim domain holds by construction.
    """
    field = f.field
    echelon = _rref(_map_rows(f), field)
    pivots = [c for c, _ in echelon]
    pivot_set = set(pivots)
    free = [c for c in range(f.domain.dim) if c not in pivot_set]
    basis = []
    for j in free:
        entries = {j: field.one}
        for c, row in echelon:
            v = row.get(j)
            if v:
                entries[c] = -v
        basis.append(Vector(f.domain, entries))
    return basis


class SubspaceSolver:
    """Expand vectors over a fixed independent basis (incremental elimination)."""

    def __init__(self, basis):
        if not basis:
            self.space = None
        else:
            self.space = basis[0].space
        self.basis = list(basis)
        self.field = self.space.field if self.space is not None else QQ
        self.echelon = []  # (lead index, row entries, coord entries), leads ascending
        for j, vec in enumerate(self.basis):
            row, coords = self._reduce(vec.entries, {j: self.field.one})
            if not row:
                raise ValueError("subspace basis is linearly dependent at index %d" % j)
            lead = min(row)
            inv = self.field.one / row[lead]
            row = {c: inv * v for c, v in row.items()}
            coords = {c: inv * v for c, v in coords.items()}
            self.echelon.append((lead, row, coords))
            self.echelon.sort(key=lambda t: t[0])

    def _reduce(self, entries, coords):
        row = dict(entries)
        coords = dict(coords)
        for lead, erow, ecoords in self.echelon:
            factor = row.get(lead)
            if not factor:
                continue
            for c, v in erow.items():
                w = row.get(c, self.field.zero) - factor * v
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
            for c, v in ecoords.items():
                w = coords.get(c, self.field.zero) - factor * v
                if w:
                    coords[c] = w
                else:
                    coords.pop(c, None)
        return row, coords

    def coords(self, vec):
        """Coefficients of vec over the basis, or None if not in the span."""
        if self.space is None:
            return {} if vec.is_zero() else None
        if vec.space.dim != self.space.dim:
            raise DimensionMismatch("membership test across different spaces")
        row, coords = self._reduce(vec.entries, {})
        if row:
            return None
        return {c: -v for c, v in coords.items()}


def membership(vec, basis):
    """True with exact expansion coefficients iff vec lies in span(basis)."""
    coords = SubspaceSolver(basis).coords(vec)
    if coords is None:
        return False, None
    return True, coords


def span_dim(vectors):
    if not vectors:
        return 0
    rows = [dict(v.entries) for v in vectors]
    return len(_rref(rows, vectors[0].space.field))


def solve_linear(rows, rhs, ncols, field):
    """One solution x of the sparse system rows·x = rhs, or None.

    rows: list of dict col->scalar; rhs: list of scalars aligned with rows.
    """
    aug = []
    RHS = ncols  # augmented column index
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[RHS] = b
        aug.append(r)
    echelon = _rref(aug, field)
    solution = {}
    for c, row in echelon:
        if c == RHS:
            return None  # inconsistent: pivot in augmented column
        solution[c] = row.get(RHS, field.zero)
    return {c: v for c, v in solution.items() if v}


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


def maps_first_difference(f, g):
    """First domain column (ascending) where two maps disagree, or None."""
    if f.domain.dim != g.domain.dim or f.codomain.dim != g.codomain.dim:
        raise DimensionMismatch("comparing maps of different shapes")
    cols = set(f.by_col()) | set(g.by_col())
    for c in sorted(cols):
        if dict(f.by_col().get(c, ())) != dict(g.by_col().get(c, ())):
            return c
    return None


def vector_to_linmap(vec, domain, codomain):
    """Reshape a vector in codomain⊗domain* coordinates (row-major, codomain
    index major) into the linear map it encodes."""
    entries = {}
    ddim = domain.dim
    for flat, v in vec.entries.items():
        entries[(flat // ddim, flat % ddim)] = v
    return LinMap(domain, codomain, entries)


def linmap_to_vector(f, hom_space):
    entries = {}
    ddim = f.domain.dim
    for (r, c), v in f.entries.items():
        entries[r * ddim + c] = v
    return Vector(hom_space, entries)


def hom_space(domain, codomain):
    """Hom(domain, codomain) as a labeled space; index = row·dim(domain)+col."""
    labels = tuple(
        "%s←%s" % (y, x)
        for y in codomain.labels
        for x in domain.labels
    )
    return Space(labels, domain.field)


def dual_space(domain):
    """Linear functionals on domain; coordinate i is the functional e_i ↦ 1."""
    labels = tuple("%s*" % lab for lab in domain.labels)
    return Space(labels, domain.field)


def vector_to_functional(vec, domain):
    """Vector in dual coordinates -> LinMap domain → ground field."""
    cod = unit_space(domain.field)
    return LinMap(domain, cod, {(0, c): v for c, v in vec.entries.items()})


def functional_to_vector(f, dual):
    return Vector(dual, {c: v for (_, c), v in f.entries.items()})

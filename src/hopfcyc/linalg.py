"""Exact sparse linear algebra on labeled finite-dimensional spaces.

Spaces carry ordered basis labels (tensor products join labels with the
character ⊗ in row-major order), so every counterexample the checkers emit
reads as honest algebra; a tensor or hom space whose joined labels cannot
collide joins them only when they are read.  Linear maps are sparse
``(row, col) -> scalar`` dictionaries.  Composite tensor expressions are
assembled with ``Chain``, which moves all its input columns through each
step of the pipeline together, keyed by flat row indices.

Every operator on cochains is one such walk from a whole source basis in
row layout, ``{ambient index: {basis vector k: scalar}}``: a fixed pipeline
walked forward from the cochains' coordinates, or transposed to pull
cochains back (φ ↦ φ ∘ chain is the walk of ``Chain.transposed()`` from φ's
coordinates, so no fixed map is materialized).  An operator that puts φ
between two fixed maps is walked from φ's hom coordinates too: a map after
φ is a step on its codomain legs, and a map before it a step on its domain
legs through that map bent or curried into one ``LinMap``.  The walk's
output rows go straight to ``Subspace.express_rows``, which reads the
coordinates of all the images over a canonical kernel basis in one pass, at
the basis' free columns, with no elimination at all.  ``Chain.images`` and
``Subspace.express`` are the same walk and kernel on raw ``{index: scalar}``
columns, transposed into rows and back.

An identity between operators compares two composites, tuples of maps
applied right to left (``composed``).  When every factor holds at most one
entry per column, ``composite_first_difference`` composes each side as a
column table (``LinMap.col_table``: the one row and value of each column,
built once and kept on the map) by list lookup, and equal tables settle
it; in every other case, and when the tables differ, the ``@`` products are
compared, so every verdict and witness is that of the products.

Every rank, kernel, solution and arbitrary-basis expansion runs through
one elimination kernel, ``_eliminate``, which visits only the leads a row
actually holds.  The forward pass first files every row with one nonzero
entry as a pivot and strikes its column from the other rows (most equalizer
rows hold one entry), then files the rest in descending order of their
lead column, which keeps the filed rows short.  ``kernel_basis``,
``membership`` and ``inverse_map`` each read their answer off one ``_rref``
of an augmented or transposed system.

Over GF(p) a scalar is a bare ``int``; each kernel accumulates unreduced
ints and reduces once per step (the ``LinMap`` and ``Vector`` constructors,
the end of each ``Chain`` step, each popped lead, and each row before
its pivot choice or zero test).  Over ℚ ``field.modulus`` is None and no
reduction runs.

All values are immutable after construction (by convention; nothing mutates
a published object), so everything here is safe to share between threads.
"""

from __future__ import annotations

import heapq
import itertools
import math

from .fields import QQ, FieldError


class DimensionMismatch(ValueError):
    pass


def _mixed(a, b):
    """Refuse to combine the scalars of two different fields; callers test
    ``a is not b`` first, so equal fields cost one identity test."""
    if a != b:
        raise FieldError("mixed fields %s and %s" % (a.name, b.name))


class Space:
    """A finite-dimensional vector space with ordered, distinct basis labels.

    A tensor space (``sep`` ⊗) or hom space (``sep`` ←, factors codomain and
    domain) whose joined labels cannot collide is built with
    ``labels=None``: it records its factors and dimension, and joins the
    labels only when they are first read."""

    __slots__ = ("_labels", "dim", "field", "factors", "sep")

    def __init__(self, labels, field=QQ, factors=None, sep="⊗"):
        self.field = field
        self.factors = tuple(factors) if factors else None
        self.sep = sep
        if labels is None:
            self._labels = None
            self.dim = math.prod(s.dim for s in self.factors)
            return
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be distinct")
        self._labels = labels
        self.dim = len(labels)

    @property
    def labels(self):
        if self._labels is None:
            self._labels = _joined_labels(self.factors, self.sep)
        return self._labels

    def label(self, i):
        if self._labels is not None:
            return self._labels[i]
        parts = []
        for s in reversed(self.factors):
            i, j = divmod(i, s.dim)
            parts.append(s.label(j))
        return self.sep.join(reversed(parts))

    def basis_vector(self, i):
        return Vector(self, {i: self.field.one})

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
        return "Space(dim=%d, %s, ...)" % (self.dim, self.label(0))


def unit_space(field=QQ):
    """The ground field as a 1-dimensional space (empty tensor factor)."""
    return Space(("()",), field)


def _joined_labels(spaces, sep="⊗"):
    return tuple(sep.join(parts) for parts in itertools.product(*[s.labels for s in spaces]))


def _holds(space, sep):
    """Whether some label of ``space`` holds ``sep``, read without joining."""
    if space._labels is None:
        return space.sep == sep or any(_holds(s, sep) for s in space.factors)
    return any(sep in lab for lab in space._labels)


def tensor_space(*spaces):
    """Tensor product with row-major index convention and ⊗-joined labels.

    When every factor is ⊗-free (read without joining, a lazy hom space
    is not) or is itself a lazily labeled tensor space, each joined label
    splits at ⊗ back into one label per factor, so the labels are distinct
    and are built on first read; otherwise they are joined and checked
    here."""
    if not spaces:
        raise ValueError("tensor_space needs at least one factor")
    field = spaces[0].field
    for s in spaces:
        if s.field is not field:
            _mixed(field, s.field)
    if len(spaces) == 1:
        return spaces[0]
    if all(s._labels is None and s.sep == "⊗" or s.sep != "←" and not _holds(s, "⊗")
           for s in spaces):
        return Space(None, field, factors=spaces)
    return Space(_joined_labels(spaces), field, factors=spaces)


def tensor_power(space, k):
    if k == 0:
        return unit_space(space.field)
    return tensor_space(*([space] * k))


class Vector:
    """Sparse vector: index -> nonzero scalar."""

    __slots__ = ("space", "entries")

    def __init__(self, space, entries=None):
        self.space = space
        p = space.field.modulus
        if p is None:
            self.entries = {i: v for i, v in (entries or {}).items() if v}
        else:
            self.entries = {i: r for i, v in (entries or {}).items() if (r := v % p)}

    def __add__(self, other):
        if other.space.dim != self.space.dim:
            raise DimensionMismatch("vector addition across different spaces")
        if other.space.field is not self.space.field:
            _mixed(self.space.field, other.space.field)
        out = dict(self.entries)
        for i, v in other.entries.items():
            w = out.get(i, 0) + v
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
            label = self.space.label(i)
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
        coeff = 1
        for (i, c), v in zip(combo, vectors):
            flat = flat * v.space.dim + i
            coeff = coeff * c
        entries[flat] = entries.get(flat, 0) + coeff
    return Vector(space, entries)


class LinMap:
    """Sparse linear map.  Composition (``@``) checks dimensions and fields
    only; labels are provenance, not identity.  Over GF(p) the constructor
    reduces every entry, so the operators accumulate unreduced ints."""

    __slots__ = ("domain", "codomain", "entries", "_by_col", "_single", "_table")

    def __init__(self, domain, codomain, entries=None):
        self.domain = domain
        self.codomain = codomain
        p = domain.field.modulus
        if p is None:
            self.entries = {k: v for k, v in (entries or {}).items() if v}
        else:
            self.entries = {k: r for k, v in (entries or {}).items() if (r := v % p)}
        self._by_col = self._single = self._table = None

    @classmethod
    def _of(cls, domain, codomain, entries):
        """A map on entries that are already reduced and hold no zero, taken
        as they are: no copy and no filtering pass."""
        f = cls.__new__(cls)
        f.domain, f.codomain, f.entries = domain, codomain, entries
        f._by_col = f._single = f._table = None
        return f

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

    def one_entry_per_col(self):
        """True when no column holds two entries (a permutation, g ↦ g⊗g, a
        group-algebra product, a unit insert); classified from ``by_col`` on
        the first call and kept."""
        if self._single is None:
            self._single = all(len(e) == 1 for e in self.by_col().values())
        return self._single

    def col_table(self):
        """The map as two lists, ``rows[c]`` and ``vals[c]`` (None for an
        empty column), when no column holds two entries, else None; built in
        one pass over ``entries`` on the first call and kept."""
        if self._table is None:
            rows, vals = [None] * self.domain.dim, [None] * self.domain.dim
            self._table = rows, vals
            for (r, c), v in self.entries.items():
                if rows[c] is not None:
                    self._table = False
                    break
                rows[c] = r
                vals[c] = v
        return self._table or None

    def column(self, c):
        return Vector(self.codomain, dict(self.by_col().get(c, ())))

    def apply(self, vec):
        if vec.space.dim != self.domain.dim:
            raise DimensionMismatch(
                "map applied to vector of dim %d, expected %d"
                % (vec.space.dim, self.domain.dim)
            )
        if vec.space.field is not self.domain.field:
            _mixed(self.domain.field, vec.space.field)
        out = {}
        cols = self.by_col()
        for c, coeff in vec.entries.items():
            for r, v in cols.get(c, ()):
                w = out.get(r, 0) + coeff * v
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
        if other.domain.field is not self.domain.field:
            _mixed(self.domain.field, other.domain.field)
        out = {}
        cols = self.by_col()
        for (k, c), v in other.entries.items():
            for r, w in cols.get(k, ()):
                key = (r, c)
                s = out.get(key, 0) + w * v
                if s:
                    out[key] = s
                else:
                    del out[key]
        # out holds no zero, so only GF(p) needs a pass: one reduction
        p = self.domain.field.modulus
        return LinMap._of(other.domain, self.codomain, out if p is None else
                          {key: r for key, s in out.items() if (r := s % p)})

    def __add__(self, other):
        self._check_same_shape(other)
        if other.domain.field is not self.domain.field:
            _mixed(self.domain.field, other.domain.field)
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k, 0) + v
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

    def __repr__(self):
        return "LinMap(%d×%d, %d nonzero)" % (
            self.codomain.dim,
            self.domain.dim,
            len(self.entries),
        )


def identity(space):
    one = space.field.one
    return LinMap(space, space, {(i, i): one for i in range(space.dim)})


def leg_permutation(legs, order):
    """Map ⊗legs → ⊗legs[order[i]]; order[i] names the source leg landing in
    target slot i.  Materialized; only use on spaces of modest dimension."""
    return Chain(legs).permute(order).to_map()


class Chain:
    """Tensor-pipeline builder: apply maps to selected legs, permute legs,
    then materialize the composite by moving every domain column through
    each step at once, on flat row indices.

    ``apply(f, at, nin, out_legs)`` consumes legs ``at .. at+nin-1`` as the
    domain of ``f`` (row-major), producing ``out_legs`` in their place.
    ``nin=0`` inserts at position ``at`` (map from the ground field);
    ``out_legs=[]`` drops the output (map to the ground field).

    A step whose map holds at most one entry per column (a permutation,
    g ↦ g⊗g, a group-algebra product, a unit insert) moves each row whole to
    its one new index instead of entry by entry; only rows that land on one
    index are added.

    The materialized entries (``entries``) are kept until the next
    ``apply`` or ``permute``.  A Chain that is one map on all its source
    legs is not walked: its entries are the map's own.
    """

    def __init__(self, source_legs, field=None):
        self.source_legs = list(source_legs)
        if self.source_legs:
            self.field = self.source_legs[0].field
        else:
            self.field = field if field is not None else QQ
        self.steps = []
        self.legs = list(self.source_legs)
        self._entries = None

    def apply(self, f, at, nin, out_legs):
        if f.domain.field is not self.field:
            _mixed(self.field, f.domain.field)
        dims = [s.dim for s in self.legs[at : at + nin]]
        if f.domain.dim != math.prod(dims):
            raise DimensionMismatch(
                "apply: map domain dim %d, legs give %d" % (f.domain.dim, math.prod(dims))
            )
        out_legs = list(out_legs)
        oprod = math.prod(s.dim for s in out_legs)
        if f.codomain.dim != oprod:
            raise DimensionMismatch(
                "apply: map codomain dim %d, out legs give %d" % (f.codomain.dim, oprod)
            )
        self.steps.append(("apply", f, at, dims, [s.dim for s in out_legs]))
        self.legs[at : at + nin] = out_legs
        self._entries = None
        return self

    def permute(self, order):
        if sorted(order) != list(range(len(self.legs))):
            raise ValueError("order must be a permutation of current legs")
        self.steps.append(("perm", list(order)))
        self.legs = [self.legs[j] for j in order]
        self._entries = None
        return self

    def entries(self):
        """The composite's ``(row, col) -> scalar`` entries; no labeled spaces.
        Callers only read them: the Chain keeps them for its next reader."""
        if self._entries is None:
            self._entries = self._materialize()
        return self._entries

    def images(self, columns):
        """The composite applied to raw ``{index: scalar}`` columns, in one walk
        from them instead of the identity: raw columns over the current legs,
        reduced and without zeros.  Inputs and kept entries are left alone."""
        out = [{} for _ in columns]
        for row, cols in self.walk(_row_state(columns)).items():
            for k, v in cols.items():
                out[k][row] = v
        return out

    def transposed(self):
        """The pipeline selfᵀ, which walks self's steps backwards, each map
        transposed and each permutation inverted.  Its walk of the
        coordinates of functionals φ on self's legs gives those of φ ∘ self,
        and self is never materialized."""
        out = Chain(self.legs, self.field)
        for step in reversed(self.steps):
            if step[0] == "perm":
                out.steps.append(("perm", sorted(range(len(step[1])), key=step[1].__getitem__)))
                continue
            _, f, at, in_dims, out_dims = step
            ft = LinMap(f.codomain, f.domain, {(c, r): v for (r, c), v in f.entries.items()})
            out.steps.append(("apply", ft, at, out_dims, in_dims))
        out.legs = list(self.source_legs)
        return out

    def _materialize(self):
        if len(self.steps) == 1 and self.steps[0][0] == "apply" \
                and len(self.steps[0][3]) == len(self.source_legs):
            return self.steps[0][1].entries  # one map on every leg: its own entries
        one = self.field.one
        dims = [s.dim for s in self.source_legs]
        state = self.walk({i: {i: one} for i in range(math.prod(dims))})
        return {(row, col): v for row, cols in state.items() for col, v in cols.items()}

    def walk(self, state):
        """Move every column through each step at once: ``state`` maps each flat
        row index over the source legs to its ``{col: scalar}`` row, and the
        state over the current legs is returned, reduced and without zeros or
        empty rows.  The walk owns ``state`` and its rows and may change them,
        so a caller that keeps a row state walks a copy.  Over GF(p) each apply
        step reduces every row it added to once."""
        p, one = self.field.modulus, self.field.one
        dims = [s.dim for s in self.source_legs]
        for step in self.steps:
            if step[0] == "perm":
                order = step[1]
                # a row's new index is additive over the source legs, so it is
                # a sum of two lookups: the leading legs and the trailing legs
                dest, stride = [0] * len(dims), 1  # each source leg's new stride
                for j in reversed(order):
                    dest[j], stride = stride, stride * dims[j]
                m = len(dims) // 2
                lead, trail = _leg_table(dims[:m], dest[:m]), _leg_table(dims[m:], dest[m:])
                size = len(trail)
                state = {lead[row // size] + trail[row % size]: cols
                         for row, cols in state.items()}
                dims = [dims[j] for j in order]
                continue
            _, f, at, in_dims, out_dims = step
            in_dim, out_dim = math.prod(in_dims), math.prod(out_dims)
            right_dim = math.prod(dims[at + len(in_dims):])
            dims[at : at + len(in_dims)] = out_dims
            by_col = f.by_col()
            new_state = {}
            if f.one_entry_per_col():
                # Each row moves whole to its one new index.  The old state is
                # private to this walk and dropped after the step, and no two
                # rows share a dict, so a row is taken over as it is (value 1)
                # or scaled, never copied.  A nonzero multiple of a reduced
                # nonzero row is nonzero, so only rows that land on one index
                # are added, and only they need the zero filter or reduction.
                merged = set()
                for row, cols in state.items():
                    lx, r = divmod(row, right_dim)
                    l, x = divmod(lx, in_dim)
                    entry = by_col.get(x)
                    if entry is None:
                        continue
                    y, v = entry[0]
                    if v != one:
                        cols = ({c: v * w for c, w in cols.items()} if p is None
                                else {c: v * w % p for c, w in cols.items()})
                    key = (l * out_dim + y) * right_dim + r
                    acc = new_state.setdefault(key, cols)
                    if acc is cols:
                        continue
                    merged.add(key)
                    for c, w in cols.items():
                        s = acc.get(c, 0) + w
                        if s:
                            acc[c] = s
                        else:
                            del acc[c]
                for key in merged:
                    acc = new_state[key] if p is None else _reduced(new_state[key], p)
                    if acc:
                        new_state[key] = acc
                    else:
                        del new_state[key]
                state = new_state
                continue
            for row, cols in state.items():
                lx, r = divmod(row, right_dim)
                l, x = divmod(lx, in_dim)
                base = l * out_dim
                for y, v in by_col.get(x, ()):
                    key = (base + y) * right_dim + r
                    acc = new_state.get(key)
                    if acc is None:
                        # a unit entry (the int 1) copies the row as is
                        new_state[key] = dict(cols) if v is one else {
                            c: v * w for c, w in cols.items()}
                        continue
                    for c, w in cols.items():
                        s = acc.get(c, 0) + v * w
                        if s:
                            acc[c] = s
                        else:
                            del acc[c]
            if p is None:
                state = {row: cols for row, cols in new_state.items() if cols}
            else:
                state = {row: red for row, cols in new_state.items()
                         if (red := {c: r for c, w in cols.items() if (r := w % p)})}
        return state

    def to_map(self):
        return LinMap(_legs_space(self.source_legs, self.field),
                      _legs_space(self.legs, self.field), self.entries())


def _leg_table(dims, strides):
    """Σ index_i · stride_i for every row-major index over ``dims``."""
    table = [0]
    for d, s in zip(dims, strides):
        table = [t + i * s for t in table for i in range(d)]
    return table


def _legs_space(legs, field):
    return tensor_space(*legs) if legs else unit_space(field)


def _row_state(columns):
    """Raw ``{index: scalar}`` columns in row layout, ``{index: {k: scalar}}``,
    every row a new dict."""
    rows = {}
    for k, col in enumerate(columns):
        for i, v in col.items():
            rows.setdefault(i, {})[k] = v
    return rows


def _eliminate(row, echelon, p):
    """Subtract from ``row``, in place and in ascending order, the echelon
    row at every lead it meets.  An echelon row has no entry below its own
    lead, so a popped lead never returns; a lead is pushed only when
    elimination newly creates it.  This is the one elimination kernel.

    Over GF(p) (``p`` is the modulus, None over ℚ) only the factor of each
    popped lead is reduced: the row is left with unreduced ints, some of
    them ≡ 0, for the caller to reduce with ``_reduced``."""
    heap = [c for c in row if c in echelon]
    heapq.heapify(heap)
    while heap:
        lead = heapq.heappop(heap)
        factor = row.get(lead)
        if factor and p is not None:
            factor %= p
        if not factor:
            continue
        for c, v in echelon[lead].items():
            old = row.get(c)
            if old is None:
                row[c] = -factor * v
                if c in echelon:
                    heapq.heappush(heap, c)
                continue
            w = old - factor * v
            if w:
                row[c] = w
            else:
                del row[c]
    return row


def _reduced(row, p):
    """``row`` with its entries reduced mod p and the zeros dropped."""
    return {c: r for c, v in row.items() if (r := v % p)}


def _echelon(rows, field):
    """Forward elimination: lead col -> normalized row with no entry at any
    lead filed before it.  A row with one nonzero entry, at column j, is
    filed first as the pivot row e_j, and column j is struck from the other
    rows (72-85% of the equalizer rows on the benchmark workloads hold one
    entry).  The other nonzero rows are filed in descending order of their
    lead column, so each row's lead is at or left of every lead filed
    before it: the filed rows stay short and the back pass of ``_rref`` has
    little left to remove."""
    p, echelon = field.modulus, {}
    for row in rows:
        if len(row) == 1:
            [(c, v)] = row.items()
            if v if p is None else v % p:
                echelon[c] = {c: field.one}
    if echelon:
        rows = [{c: v for c, v in r.items() if c not in echelon} for r in rows if len(r) > 1]
    for row in sorted((r for r in rows if r), key=min, reverse=True):
        row = _eliminate(dict(row), echelon, p)
        if p is not None:
            row = _reduced(row, p)
        if not row:
            continue
        lead = min(row)
        inv = field.inv(row[lead])
        if p is None:
            echelon[lead] = {c: inv * v for c, v in row.items()}
        else:
            echelon[lead] = {c: inv * v % p for c, v in row.items()}
    return echelon


def _rref(rows, field):
    """Reduced row echelon form of sparse rows (dict col -> scalar).

    Returns (pivot list [(col, rowdict)], sorted by col).  Exact arithmetic,
    pivot = first nonzero column; deterministic for any input order since the
    RREF of a row space is unique.  Forward elimination (``_echelon``, rows
    filed by descending lead), then one pass in descending lead order in
    which each row subtracts only the reduced rows whose leads it holds; with
    short filed rows that pass has little left to remove, and none for a
    one-entry pivot row e_j.  Invariant: every echelon row meets the pivot
    columns only in its own pivot, so kernel extraction can read the
    free-column coefficients directly.
    """
    done = {}
    p = field.modulus
    for lead, row in sorted(_echelon(rows, field).items(), reverse=True):
        if len(row) > 1:  # e_j holds no other lead, so it cannot change
            row = _eliminate(row, done, p)
            row = row if p is None else _reduced(row, p)
        done[lead] = row
    return sorted(done.items())


def _map_rows(f):
    rows = {}
    for (r, c), v in f.entries.items():
        rows.setdefault(r, {})[c] = v
    return [rows[r] for r in sorted(rows)]


def rank(f):
    return len(_echelon(_map_rows(f), f.field))


def kernel_basis(f):
    """Exact basis of ker f, canonical (one vector per free column, ascending).

    dim ker + rank = dim domain holds by construction.
    """
    return _null_vectors(_map_rows(f), f.domain)


def _null_vectors(rows, space):
    """Canonical basis of the vectors of ``space`` that every sparse row
    annihilates: one vector per free column, ascending, read off the RREF in
    one transposed pass."""
    one = space.field.one
    echelon = _rref(rows, space.field)
    pivots = {c for c, _ in echelon}
    free = {}  # free col -> {pivot col: -coefficient}, pivots ascending
    for c, row in echelon:
        for j, v in row.items():
            if j != c:
                free.setdefault(j, {})[c] = -v
    return [Vector(space, {j: one, **free.get(j, {})})
            for j in range(space.dim) if j not in pivots]


class Subspace:
    """A computed basis of a subspace of ``ambient``.  When the ambient is a
    hom space (or a dual space, with the ground field as codomain), its
    vectors are the maps ``domain → codomain`` that ``map`` reads back.

    The basis is canonical, as ``_null_vectors`` and ``kernel_basis`` give
    it: vector k is 1 at its last index j_k, and no other vector touches
    j_k.  So ``express_rows`` reads coefficient k at row j_k."""

    __slots__ = ("ambient", "basis", "domain", "codomain", "_free", "_pivots")

    def __init__(self, ambient, basis, domain=None, codomain=None):
        self.ambient = ambient
        self.basis = basis
        self.domain = domain
        self.codomain = codomain
        self._free = self._pivots = None  # indexed on first use

    @property
    def dim(self):
        return len(self.basis)

    def express_rows(self, rows):
        """Coordinates over the basis of the images held in a row state
        ``{ambient index t: {image i: scalar}}``, reduced and without zeros
        (``Chain.walk`` leaves it so; it is only read): ``(entries, None)``
        with entry (k, i) coefficient k of image i, or ``(None, i)`` for the
        smallest image i outside the span.  Coefficient k is row j_k, and the
        images lie in the span iff every other row t equals Σ_k b_k[t]·row j_k,
        so a row at an index that no basis vector touches must be empty."""
        if self._free is None:
            self._free = _free_columns(self.basis)
            self._pivots = _pivot_rows(self.basis, self._free)
        free, pivots, p = self._free, self._pivots, self.ambient.field.modulus
        entries, bad = {}, set()
        for t, row in rows.items():
            k = free.get(t)
            if k is not None:
                for i, c in row.items():
                    entries[(k, i)] = c
            elif t not in pivots:
                bad.update(row)
        for t, terms in pivots.items():
            want = {}
            for j, b in terms:
                for i, c in rows.get(j, {}).items():
                    want[i] = want.get(i, 0) + b * c
            want = {i: v for i, v in want.items() if v} if p is None else _reduced(want, p)
            got = rows.get(t, {})
            if want != got:
                bad.update(i for i in want.keys() | got.keys() if want.get(i) != got.get(i))
        return (None, min(bad)) if bad else (entries, None)

    def express(self, images):
        """``express_rows`` of reduced raw ``{index: scalar}`` columns, image i
        the i-th column."""
        return self.express_rows(_row_state(images))

    def coords(self, vec):
        """Coefficients of vec over the basis, or None if not in the span:
        the one-image case of ``express``."""
        if vec.space.dim != self.ambient.dim:
            raise DimensionMismatch("membership test across different spaces")
        entries, _ = self.express([vec.entries])
        return None if entries is None else {k: c for (k, _), c in entries.items()}

    def map(self, vec):
        return vector_to_linmap(vec, self.domain, self.codomain)


def _free_columns(basis):
    """{j_k: k} for a canonical basis; raises if the basis is not one."""
    free = {}
    for k, vec in enumerate(basis):
        j = max(vec.entries)
        if vec.entries[j] != 1 or j in free:
            raise ValueError("basis vector %d is not canonical at its last index" % k)
        free[j] = k
    for k, vec in enumerate(basis):
        for j in vec.entries:
            if free.get(j, k) != k:
                raise ValueError("basis vector %d touches the free column of vector %d"
                                 % (k, free[j]))
    return free


def _pivot_rows(basis, free):
    """{t: [(j_k, b_k[t])]} over the indices t ≠ j_k that the vectors touch."""
    pivots = {}
    for j, k in free.items():
        for t, v in basis[k].entries.items():
            if t != j:
                pivots.setdefault(t, []).append((j, v))
    return pivots


def membership(vec, basis):
    """True with exact expansion coefficients iff vec lies in span(basis).

    One RREF of the transposed system [b_0 … b_{k−1} | v]: the basis is
    independent iff columns 0 … k−1 are all pivots; then v is in the span iff
    column k is not, and coefficient j is pivot row j's entry at column k."""
    k = len(basis)
    rows = _row_state([b.entries for b in [*basis, vec]])
    echelon = _rref(list(rows.values()), (basis[0] if basis else vec).space.field)
    dependent = set(range(k)).difference(c for c, _ in echelon)
    if dependent:
        raise ValueError("subspace basis is linearly dependent at index %d" % min(dependent))
    if basis and vec.space.dim != basis[0].space.dim:
        raise DimensionMismatch("membership test across different spaces")
    if echelon and echelon[-1][0] == k:
        return False, None
    return True, {c: row[k] for c, row in echelon if k in row}


def span_dim(vectors):
    if not vectors:
        return 0
    return len(_echelon([v.entries for v in vectors], vectors[0].space.field))


def inverse_map(f):
    """Exact inverse of a square map, read off one RREF of the rows [f | I];
    raises if singular, which puts a pivot in the identity block."""
    n = f.domain.dim
    if n != f.codomain.dim:
        raise DimensionMismatch("inverse of a non-square map")
    rows = [{n + r: f.field.one} for r in range(n)]
    for (r, c), v in f.entries.items():
        rows[r][c] = v
    entries = {}
    for c, row in _rref(rows, f.field):
        if c >= n:
            raise ValueError("map is not invertible")
        for j, v in row.items():
            if j >= n:
                entries[(c, j - n)] = v
    return LinMap(f.codomain, f.domain, entries)


def maps_first_difference(f, g):
    """First domain column (ascending) where two maps disagree, or None."""
    if f.domain.dim != g.domain.dim or f.codomain.dim != g.codomain.dim:
        raise DimensionMismatch("comparing maps of different shapes")
    fe, ge = f.entries, g.entries
    if fe == ge:
        return None
    # no stored entry is zero, so a column differs iff one of its entries does
    return min([c for (r, c), v in fe.items() if ge.get((r, c)) != v]
               + [c for (r, c) in ge if (r, c) not in fe])


def composed(f):
    """A composite as one map: a ``LinMap`` as it is, and a tuple of maps
    applied right to left ((f, g) is f∘g) as its ``@`` products, each factor
    taken on the left of the product so far, so that every ``@`` reads the
    kept columns (``by_col``) of a factor rather than of a fresh product."""
    if isinstance(f, LinMap):
        return f
    out = f[-1]
    for g in f[-2::-1]:
        out = g @ out
    return out


def _factor_tables(maps):
    """The column tables (``LinMap.col_table``) of a composite's factors,
    right to left, when each holds at most one entry per column and they
    chain up over one field; else None."""
    tables, inner = [], None
    for g in reversed(maps):
        table = g.col_table()
        if table is None or inner is not None and (
                g.domain.dim != inner.codomain.dim or g.domain.field is not inner.domain.field):
            return None
        tables.append(table)
        inner = g
    return tables


def _composed_table(tables, p):
    """One column table from ``_factor_tables``, by list lookup.  Over GF(p)
    each column's product is reduced once: p is prime, so a product of
    nonzero residues is never 0."""
    rows, vals = tables[0]
    for g_rows, g_vals in tables[1:]:
        out_rows, out_vals = [], []  # one loop beats two comprehensions
        for r, v in zip(rows, vals):
            if r is None or (s := g_rows[r]) is None:
                out_rows.append(None)
                out_vals.append(None)
            else:
                out_rows.append(s)
                out_vals.append(g_vals[r] * v)
        rows, vals = out_rows, out_vals
    if p is not None and len(tables) > 1:
        vals = [None if v is None else v % p for v in vals]
    return rows, vals


def composite_first_difference(f, g):
    """``maps_first_difference`` of two composites (see ``composed``).  When
    a side has two factors or more and every factor holds at most one entry
    per column, both sides are composed as column tables, and equal tables
    mean no difference; in every other case the ``@`` products are
    compared."""
    fs = (f,) if isinstance(f, LinMap) else f
    gs = (g,) if isinstance(g, LinMap) else g
    if len(fs) + len(gs) > 2 and fs[0].codomain.dim == gs[0].codomain.dim:
        f_tables = _factor_tables(fs)
        g_tables = f_tables and _factor_tables(gs)
        if g_tables:
            p = fs[0].field.modulus
            if _composed_table(f_tables, p) == _composed_table(g_tables, p):
                return None
    return maps_first_difference(composed(fs), composed(gs))


def vector_to_linmap(vec, domain, codomain):
    """Reshape a vector in codomain⊗domain* coordinates (row-major, codomain
    index major) into the linear map it encodes."""
    entries = {}
    ddim = domain.dim
    for flat, v in vec.entries.items():
        entries[(flat // ddim, flat % ddim)] = v
    return LinMap(domain, codomain, entries)


def hom_space(domain, codomain):
    """Hom(domain, codomain) as a labeled space; index = row·dim(domain)+col,
    label y←x.  When no factor label holds ←, each label splits at ← back
    into y and x, so the labels are joined on first read, as a tensor
    space's are; otherwise they are joined and checked here."""
    if _holds(domain, "←") or _holds(codomain, "←"):
        return Space(_joined_labels((codomain, domain), "←"), domain.field)
    return Space(None, domain.field, factors=(codomain, domain), sep="←")


def dual_space(domain):
    """Linear functionals on domain; coordinate i is the functional e_i ↦ 1,
    labeled ``domain.label(i) + "*"`` and joined only when read."""
    return Space(None, domain.field, factors=(domain, Space(("*",), domain.field)), sep="")

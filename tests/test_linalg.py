"""Exact linear algebra: tensor maps, kernels, membership, wiring chains."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import chain_oracle
import gf_oracle
from rref_oracle import SubspaceSolver
from hopfcyc.fields import GF, QQ, FieldError
from hopfcyc.linalg import (
    Chain,
    LinMap,
    Space,
    Vector,
    dual_space,
    hom_space,
    identity,
    inverse_map,
    kernel_basis,
    composite_first_difference,
    leg_permutation,
    maps_first_difference,
    membership,
    rank,
    tensor_power,
    tensor_space,
    tensor_vectors,
    unit_space,
)
from chain_oracle import rotate_last_to_front, tensor_map


def zero_map(domain, codomain):
    return LinMap(domain, codomain, {})


def space(n, prefix="e", field=QQ):
    return Space(tuple("%s%d" % (prefix, i) for i in range(n)), field)


def from_rows(rows, dom=None, cod=None):
    m, n = len(rows), len(rows[0])
    dom = dom or space(n, "c")
    cod = cod or space(m, "r")
    entries = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = Fraction(v)
    return LinMap(dom, cod, entries)


scalars = st.integers(-4, 4).map(Fraction)


def sparse_map_2x2():
    return st.lists(scalars, min_size=4, max_size=4).map(
        lambda vals: from_rows([vals[:2], vals[2:]], space(2, "a"), space(2, "b"))
    )


class TestTensorMap:
    def test_identity_tensor_identity(self):
        assert tensor_map(identity(space(2)), identity(space(3))) == identity(
            tensor_space(space(2), space(3)))

    def test_zero_absorbs(self):
        f = from_rows([[1, 2], [3, 4]])
        z = zero_map(space(3), space(3))
        assert tensor_map(f, z).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(sparse_map_2x2(), sparse_map_2x2(), sparse_map_2x2(), sparse_map_2x2())
    def test_tensor_compose_interchange(self, f, g, fp, gp):
        # (f⊗g)∘(f′⊗g′) = (f∘f′)⊗(g∘g′), against a direct entrywise oracle
        lhs = tensor_map(f, g) @ tensor_map(fp, gp)
        rhs = tensor_map(f @ fp, g @ gp)
        assert lhs == rhs
        # independent oracle: expand one entry by explicit summation
        for (r, c) in list(lhs.entries)[:3]:
            rf, rg = divmod(r, 2)
            cf, cg = divmod(c, 2)
            total = Fraction(0)
            for k in range(2):
                for l in range(2):
                    total += (f.entries.get((rf, k), Fraction(0))
                              * fp.entries.get((k, cf), Fraction(0))
                              * g.entries.get((rg, l), Fraction(0))
                              * gp.entries.get((l, cg), Fraction(0)))
            assert lhs.entries[(r, c)] == total

    def test_tensor_associativity_row_major(self):
        f = from_rows([[1, 2], [0, 1]])
        g = from_rows([[3], [1]], space(1), space(2))
        h = from_rows([[1, -1]], space(2), space(1))
        assert tensor_map(tensor_map(f, g), h).entries == tensor_map(
            f, tensor_map(g, h)).entries


class TestKernel:
    def test_zero_map_full_kernel(self):
        z = zero_map(space(5), space(2))
        basis = kernel_basis(z)
        assert len(basis) == 5

    def test_identity_trivial_kernel(self):
        assert kernel_basis(identity(space(4))) == []

    def test_all_ones_2x2(self):
        f = from_rows([[1, 1], [1, 1]])
        basis = kernel_basis(f)
        assert len(basis) == 1
        # spanned by (1, -1) up to scale
        v = basis[0]
        assert v.entries[0] == -v.entries[1]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(scalars, min_size=4, max_size=4), min_size=3, max_size=3))
    def test_rank_nullity(self, rows):
        f = from_rows(rows, space(4, "c"), space(3, "r"))
        assert rank(f) + len(kernel_basis(f)) == 4

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(scalars, min_size=4, max_size=4), min_size=3, max_size=3))
    def test_kernel_vectors_map_to_zero(self, rows):
        f = from_rows(rows, space(4, "c"), space(3, "r"))
        for v in kernel_basis(f):
            assert f.apply(v).is_zero()


class TestMembership:
    def test_self_membership(self):
        v = Vector(space(3), {0: Fraction(2), 2: Fraction(1)})
        ok, coords = membership(v, [v])
        assert ok and coords == {0: Fraction(1)}

    def test_not_in_span(self):
        sp = space(2)
        ok, coords = membership(sp.basis_vector(0), [sp.basis_vector(1)])
        assert not ok and coords is None

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([QQ, GF(7)]),
           st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                    min_size=1, max_size=4),
           st.lists(st.integers(-4, 4), min_size=4, max_size=4),
           st.booleans())
    def test_membership_agrees_with_rank_oracle(self, field, basis_rows, vrow, descending):
        sp = space(4, field=field)

        def vector(row):
            return Vector(sp, {j: field.from_int(x) for j, x in enumerate(row) if x})

        basis = [b for b in map(vector, basis_rows) if not b.is_zero()]
        if descending:  # later basis vectors bring smaller leads
            basis.sort(key=lambda b: -min(b.entries))
        # drop dependent rows so SubspaceSolver accepts the basis
        indep = []
        for b in basis:
            try:
                SubspaceSolver(indep + [b])
                indep.append(b)
            except ValueError:
                pass
        v = vector(vrow)
        ok, coords = membership(v, indep)
        # oracle: rank comparison on stacked dense rows, over GF(p) in GFElements
        F = gf_oracle.oracle_field(field)

        def dense_rank(rows):
            mat = [[gf_oracle.lift(field, x) for x in r] for r in rows]
            r = 0
            for c in range(4):
                piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
                if piv is None:
                    continue
                mat[r], mat[piv] = mat[piv], mat[r]
                inv = F.inv(mat[r][c])
                for i in range(len(mat)):
                    if i != r and mat[i][c]:
                        f = mat[i][c] * inv
                        mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
                r += 1
            return r
        def densify(vec):
            return [vec.entries.get(j, field.zero) for j in range(4)]
        rows = [densify(b) for b in indep]
        expected = dense_rank(rows) == dense_rank(rows + [densify(v)]) if rows else v.is_zero()
        assert ok == expected
        if ok:
            recon = Vector(sp, {})
            for j, c in coords.items():
                recon = recon + indep[j].scaled(c)
            assert recon == v

    def test_elimination_creates_a_later_lead(self):
        # e0 meets only lead 0; eliminating it with e0 + e2 creates an entry
        # at lead 2, which must be eliminated too
        sp = space(3)
        basis = [Vector(sp, {0: 1, 2: 1}), Vector(sp, {2: 1})]
        ok, coords = membership(Vector(sp, {0: 1}), basis)
        assert ok and coords == {0: 1, 1: -1}
        ok, _ = membership(Vector(sp, {0: 1, 1: 1}), basis)
        assert not ok


@st.composite
def random_chains(draw, fields=(QQ, GF(7))):
    """A Chain on 0-4 source legs of dim 1-3 (never more than 5 legs) with up
    to five steps: sparse maps with entries that cancel (±1, ±2, zero maps
    included), inserts (nin = 0), drops (no output legs), permutations and
    rotations, over ℚ or GF(7) unless ``fields`` says otherwise."""
    field = draw(st.sampled_from(fields))
    names = iter("abcdefghijklmnopqrstuvwxyz")
    dims = st.integers(1, 3)
    legs = [space(d, next(names), field)
            for d in draw(st.lists(dims, min_size=0, max_size=4))]
    chain = Chain(legs, field)
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["apply", "apply", "permute", "rotate"]))
        n = len(chain.legs)
        if kind == "permute" and n:
            chain.permute(draw(st.permutations(range(n))))
        elif kind == "rotate" and n:
            rotate_last_to_front(chain)
        elif kind == "apply":
            at = draw(st.integers(0, n))
            nin = draw(st.integers(0, min(2, n - at)))
            nout = draw(st.integers(0, min(2, 5 - n + nin)))  # at most 5 legs
            out_legs = [space(d, next(names), field)
                        for d in draw(st.lists(dims, min_size=nout, max_size=nout))]
            dom, cod = (tensor_space(*ls) if ls else unit_space(field)
                        for ls in (chain.legs[at:at + nin], out_legs))
            values = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -2]),
                                   min_size=dom.dim * cod.dim, max_size=dom.dim * cod.dim))
            if draw(st.booleans()) and draw(st.booleans()):
                values = [0] * len(values)
            f = LinMap(dom, cod, {(k // dom.dim, k % dom.dim): field.from_int(x)
                                  for k, x in enumerate(values) if x})
            chain.apply(f, at, nin, out_legs)
    return chain


class TestChain:
    @settings(max_examples=300, deadline=None)
    @given(random_chains())
    def test_entries_match_column_walk(self, chain):
        assert chain.entries() == chain_oracle.walk_entries(chain)

    def test_cancelling_rows_are_dropped(self):
        a = space(2, "a")
        k = Space(("()",))
        diag = LinMap(k, a, {(0, 0): 1, (1, 0): 1})
        diff = LinMap(a, k, {(0, 0): 1, (0, 1): -1})
        chain = Chain([a]).apply(diag, 1, 0, [a]).apply(diff, 1, 1, [])
        assert chain.entries() == {} == chain_oracle.walk_entries(chain)
        assert Chain([], QQ).apply(diag, 0, 0, [a]).entries() == {(0, 0): 1, (1, 0): 1}

    def test_one_map_on_every_leg_is_not_walked(self):
        # the composite of one map applied to all the source legs is that
        # map: its entries are read as they are, and nothing indexes the map
        a, b = space(2, "a"), space(3, "b")
        f = from_rows([[0, 1, 1, 0], [2, 0, 0, 0], [1, 1, 0, -1]], tensor_space(a, a), b)
        chain = Chain([a, a]).apply(f, 0, 2, [b])
        assert chain.entries() == f.entries and f._by_col is None
        assert chain.entries() == chain_oracle.walk_entries(chain) and chain.to_map() == f

    def test_permutation_matches_leg_permutation(self):
        a, b, c = space(2, "a"), space(3, "b"), space(2, "c")
        perm = leg_permutation([a, b, c], [2, 0, 1])
        chain = Chain([a, b, c]).permute([2, 0, 1]).to_map()
        assert chain == perm

    def test_apply_middle_leg(self):
        a, b = space(2, "a"), space(2, "b")
        f = from_rows([[0, 1], [1, 0]], b, b)
        chain = Chain([a, b, a]).apply(f, 1, 1, [b]).to_map()
        expected = tensor_map(tensor_map(identity(a), f), identity(a))
        assert chain.entries == expected.entries

    @settings(max_examples=200, deadline=None)
    @given(random_chains(), st.data())
    def test_a_step_after_materializing_gives_the_new_composite(self, chain, data):
        before = chain.entries()
        assert chain.entries() is before  # kept for the next reader
        n, field = len(chain.legs), chain.field
        if n and data.draw(st.booleans()):
            chain.permute(data.draw(st.permutations(range(n))))
        else:
            at = data.draw(st.integers(0, n))
            nin = data.draw(st.integers(0, min(1, n - at)))
            dom = chain.legs[at] if nin else unit_space(field)
            out = space(2, "z", field)
            values = data.draw(st.lists(st.sampled_from([0, 1, -1, 2]),
                                        min_size=2 * dom.dim, max_size=2 * dom.dim))
            chain.apply(LinMap(dom, out, {(k // dom.dim, k % dom.dim): field.from_int(x)
                                          for k, x in enumerate(values) if x}),
                        at, nin, [out])
        assert chain.entries() == chain_oracle.walk_entries(chain)
        assert chain.to_map().entries == chain.entries()

    @settings(max_examples=200, deadline=None)
    @given(random_chains(), st.data())
    def test_images_match_the_map_and_keep_entries(self, chain, data):
        field = chain.field
        dim = math.prod(s.dim for s in chain.source_legs)
        codim = math.prod(s.dim for s in chain.legs)
        kept = chain.entries() if data.draw(st.booleans()) else None
        copy = dict(kept or {})
        vectors = []
        for _ in range(data.draw(st.integers(0, 4))):
            values = data.draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]),
                                        min_size=dim, max_size=dim))
            vectors.append(Vector(space(dim, "s", field),
                                  {i: field.from_int(x) for i, x in enumerate(values)}))
        images = chain.images([v.entries for v in vectors])
        if kept is None:  # walked from the vectors, never from the identity
            assert chain._entries is None
        else:
            assert chain.entries() is kept and kept == copy
        oracle = LinMap(space(dim, "s", field), space(codim, "t", field),
                        chain_oracle.walk_entries(chain))
        assert images == [oracle.apply(v).entries for v in vectors]
        assert images == [chain.to_map().apply(v).entries for v in vectors]

    def test_insert_and_drop(self):
        a = space(2, "a")
        k = Space(("()",))
        unit = LinMap(k, a, {(0, 0): Fraction(1)})
        counit = LinMap(a, k, {(0, 0): Fraction(1), (0, 1): Fraction(1)})
        # insert then contract: a ↦ Σ coefficients
        chain = Chain([a]).apply(unit, 1, 0, [a]).apply(counit, 1, 1, []).to_map()
        assert chain == identity(a)


@st.composite
def single_entry_chains(draw, fields=(QQ, GF(7), GF(2))):
    """A Chain on 1-3 source legs of dim 1-3 with two to six steps, most of
    them maps with at most one entry per column (moved whole): permutations,
    many-to-one maps where rows land on one index, scaled and zero columns,
    inserts (nin = 0) and drops (no output legs), mixed with general sparse
    maps, permutations and rotations."""
    field = draw(st.sampled_from(fields))
    names = iter("abcdefghijklmnopqrstuvwxyz")
    dims = st.integers(1, 3)
    chain = Chain([space(d, next(names), field)
                   for d in draw(st.lists(dims, min_size=1, max_size=3))], field)
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["single", "single", "single", "general", "permute",
                                     "rotate"]))
        n = len(chain.legs)
        if kind == "permute" and n:
            chain.permute(draw(st.permutations(range(n))))
            continue
        if kind == "rotate" and n:
            rotate_last_to_front(chain)
            continue
        at = draw(st.integers(0, n))
        nin = draw(st.integers(0, min(2, n - at)))
        nout = draw(st.integers(0, min(2, 4 - n + nin)))  # at most 4 legs
        out_legs = [space(d, next(names), field)
                    for d in draw(st.lists(dims, min_size=nout, max_size=nout))]
        dom, cod = (tensor_space(*ls) if ls else unit_space(field)
                    for ls in (chain.legs[at:at + nin], out_legs))
        if kind == "general":
            values = draw(st.lists(st.sampled_from([0, 1, -1, 2]),
                                   min_size=dom.dim * cod.dim, max_size=dom.dim * cod.dim))
            entries = {(k // dom.dim, k % dom.dim): x for k, x in enumerate(values) if x}
        else:  # rows drawn from a small range, so columns often share one
            entries = {}
            for c in range(dom.dim):
                x = draw(st.sampled_from([0, 1, 1, 1, -1, 2]))
                if x:
                    entries[(draw(st.integers(0, min(1, cod.dim - 1))), c)] = x
        f = LinMap(dom, cod, {k: field.from_int(x) for k, x in entries.items()})
        if kind != "general":
            assert f.one_entry_per_col()
        chain.apply(f, at, nin, out_legs)
    return chain


class TestWholeRowMoves:
    """Steps whose map holds at most one entry per column move each row
    whole; they must give the column walk's entries exactly."""

    @settings(max_examples=300, deadline=None)
    @given(single_entry_chains())
    def test_entries_match_column_walk(self, chain):
        assert chain.entries() == chain_oracle.walk_entries(chain)

    @pytest.mark.parametrize("field, minus", [(QQ, -1), (GF(7), -1), (GF(2), 1)],
                             ids=["QQ", "GF7", "GF2"])
    def test_rows_landing_on_one_index_cancel(self, field, minus):
        """Two copies of a row meet at one index with coefficients 1 and −1
        (over GF(2), 1 and 1): the row cancels and is dropped."""
        a, k = space(2, "a", field), unit_space(field)
        copy = LinMap(a, a, {(0, 0): 1, (1, 0): 1})
        fold = LinMap(a, k, {(0, 0): 1, (0, 1): field.from_int(minus)})
        assert fold.one_entry_per_col() and not copy.one_entry_per_col()
        chain = Chain([a]).apply(copy, 0, 1, [a]).apply(fold, 0, 1, [])
        assert chain.entries() == {} == chain_oracle.walk_entries(chain)
        keep = LinMap(a, k, {(0, 0): 1, (0, 1): 1})
        chain = Chain([a]).apply(copy, 0, 1, [a]).apply(keep, 0, 1, [])
        expected = {} if field is GF(2) else {(0, 0): 2}
        assert chain.entries() == expected == chain_oracle.walk_entries(chain)

    def test_one_entry_per_column_classification(self):
        a, b, k = space(2, "a"), space(3, "b"), unit_space()
        assert LinMap(a, b, {(2, 0): 1, (2, 1): 3}).one_entry_per_col()
        assert LinMap(a, b, {(0, 1): 1}).one_entry_per_col()
        assert not LinMap(k, a, {(0, 0): 1, (1, 0): 1}).one_entry_per_col()
        assert zero_map(a, b).one_entry_per_col()

    @settings(max_examples=200, deadline=None)
    @given(single_entry_chains(), st.data())
    def test_images_leave_their_inputs_and_earlier_results_alone(self, chain, data):
        field = chain.field
        dim = math.prod(s.dim for s in chain.source_legs)
        vectors = []
        for _ in range(data.draw(st.integers(1, 4))):
            values = data.draw(st.lists(st.sampled_from([0, 1, 1, -1, 2]),
                                        min_size=dim, max_size=dim))
            vectors.append(Vector(space(dim, "s", field),
                                  {i: field.from_int(x) for i, x in enumerate(values)}))
        inputs = [dict(v.entries) for v in vectors]
        first = chain.images([v.entries for v in vectors])
        results = [dict(v) for v in first]
        second = chain.images([v.entries for v in vectors])
        assert [v.entries for v in vectors] == inputs
        assert first == results
        assert second == first
        codim = math.prod(s.dim for s in chain.legs)
        oracle = LinMap(vectors[0].space, space(codim, "t", field),
                        chain_oracle.walk_entries(chain))
        assert results == [oracle.apply(v).entries for v in vectors]


def _first_difference_by_column(f, g):
    """Reference: the first column, ascending, whose entries differ."""
    for c in sorted(set(f.by_col()) | set(g.by_col())):
        if dict(f.by_col().get(c, ())) != dict(g.by_col().get(c, ())):
            return c
    return None


@st.composite
def map_pairs(draw):
    """Two maps of one shape over ℚ or GF(7): equal, differing in one
    column, on disjoint column sets, or independent."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    dom, cod = space(cols, "c", field), space(rows, "r", field)
    cells = st.lists(st.sampled_from([0, 0, 1, -1, 2, 3]),
                     min_size=rows * cols, max_size=rows * cols)
    f_vals = draw(cells)
    kind = draw(st.sampled_from(["equal", "one column", "disjoint", "independent"]))
    if kind == "equal":
        g_vals = list(f_vals)
    elif kind == "one column":
        c, g_vals = draw(st.integers(0, cols - 1)), list(f_vals)
        for r in range(rows):
            g_vals[r * cols + c] = draw(st.sampled_from([0, 1, -1, 2, 3]))
    elif kind == "disjoint":
        mask = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
        g_vals = draw(cells)
        f_vals = [v if mask[k % cols] else 0 for k, v in enumerate(f_vals)]
        g_vals = [0 if mask[k % cols] else v for k, v in enumerate(g_vals)]
    else:
        g_vals = draw(cells)

    def build(values):
        return LinMap(dom, cod, {(k // cols, k % cols): field.from_int(x)
                                 for k, x in enumerate(values) if x})

    return kind, build(f_vals), build(g_vals)


@settings(max_examples=300, deadline=None)
@given(map_pairs())
def test_first_difference_matches_column_walk(pair):
    kind, f, g = pair
    assert maps_first_difference(f, g) == _first_difference_by_column(f, g)
    assert maps_first_difference(g, f) == _first_difference_by_column(f, g)
    if kind == "equal":
        assert maps_first_difference(f, g) is None


@st.composite
def composite_pairs(draw):
    """Two composites (tuples of maps, applied right to left) with one outer
    shape over ℚ, GF(7) or GF(32003): most columns hold one entry and some
    none, and some factors hold one column with two.  The right side is the
    left side's ``@`` product as one map, its first two factors multiplied
    out, that product with one entry changed, or an independent composite."""
    field = draw(st.sampled_from([QQ, GF(7), GF(32003)]))
    values = st.sampled_from([1, -1, 2, 3, 6]).map(field.from_int)

    def factors(dims):
        out = []
        for k in range(len(dims) - 1):
            cols, rows = dims[k], dims[k + 1]
            entries = {}
            for c in range(cols):
                if draw(st.integers(0, 3)):
                    entries[draw(st.integers(0, rows - 1)), c] = draw(values)
            if rows > 1 and entries and draw(st.integers(0, 9)) == 0:
                r, c = draw(st.sampled_from(sorted(entries)))
                entries[(r + 1) % rows, c] = draw(values)
            out.append(LinMap(space(cols, "c%d_" % k, field), space(rows, "r%d_" % k, field),
                              entries))
        return tuple(reversed(out))

    dims = draw(st.lists(st.integers(1, 4), min_size=3, max_size=5))
    lhs = factors(dims)
    product = lhs[0]
    for f in lhs[1:]:
        product = product @ f
    kind = draw(st.sampled_from(["product", "regrouped", "changed", "independent"]))
    if kind == "product":
        rhs = product
    elif kind == "regrouped":
        rhs = (lhs[0] @ lhs[1],) + lhs[2:] if len(lhs) > 1 else lhs
    elif kind == "changed":
        entry = (draw(st.integers(0, dims[-1] - 1)), draw(st.integers(0, dims[0] - 1)))
        entries = dict(product.entries)
        entries[entry] = entries.get(entry, 0) + draw(values)
        rhs = LinMap(product.domain, product.codomain, entries)
    else:
        inner = draw(st.lists(st.integers(1, 4), min_size=0, max_size=3))
        rhs = factors([dims[0]] + inner + [dims[-1]])
    return kind, lhs, rhs


def _product(f):
    if isinstance(f, LinMap):
        return f
    out = f[0]
    for g in f[1:]:
        out = out @ g
    return out


@settings(max_examples=300, deadline=None)
@given(composite_pairs())
def test_composite_first_difference_matches_the_products(pair):
    kind, lhs, rhs = pair
    expected = maps_first_difference(_product(lhs), _product(rhs))
    assert composite_first_difference(lhs, rhs) == expected
    assert composite_first_difference(rhs, lhs) == expected
    if kind in ("product", "regrouped"):
        assert expected is None


class TestGF:
    def test_parse_and_arithmetic(self):
        F = GF(5)
        x = F.parse("7")
        assert x == F.from_int(2)
        assert F.parse("1/2") == F.from_int(3)  # 2·3 = 6 = 1 mod 5
        with pytest.raises(FieldError):
            F.parse("1/5")
        with pytest.raises(FieldError):
            QQ.parse("1/0")

    def test_kernel_over_gf(self):
        F = GF(3)
        sp = Space(("e0", "e1"), F)
        f = LinMap(sp, sp, {(0, 0): F.one, (0, 1): F.one,
                            (1, 0): F.one, (1, 1): F.one})
        basis = kernel_basis(f)
        assert len(basis) == 1
        assert rank(f) == 1

    def test_non_prime_rejected(self):
        with pytest.raises(FieldError):
            GF(6)


def test_inverse_map_round_trip():
    f = from_rows([[1, 1], [0, 1]])
    g = inverse_map(f)
    assert (f @ g) == identity(f.codomain)
    assert (g @ f) == identity(f.domain)


def test_tensor_vectors_row_major():
    a, b = space(2, "a"), space(2, "b")
    v = Vector(a, {1: Fraction(2)})
    w = Vector(b, {0: Fraction(3)})
    t = tensor_vectors(v, w)
    assert t.entries == {2: Fraction(6)}
    assert t.space.labels[2] == "a1⊗b0"


def test_lazy_tensor_labels_match_eager_join():
    a, b, c = space(2, "a"), space(3, "b"), space(2, "c")
    ab, bc = tensor_space(a, b), tensor_space(b, c)
    flat = tensor_space(a, b, c).labels
    for t in (tensor_space(ab, c), tensor_space(a, bc), tensor_power(ab, 2),
              tensor_space(ab, unit_space(), bc)):
        assert t._labels is None  # nothing joined until a label is read
        parts = [f.labels for f in t.factors]
        eager = tuple("⊗".join(p) for p in itertools.product(*parts))
        assert [t.label(i) for i in range(t.dim)] == list(eager)
        assert t._labels is None  # single labels are read without joining all
        assert t.labels == eager and len(set(eager)) == t.dim
    assert tensor_space(ab, c).labels == flat == tensor_space(a, bc).labels


@pytest.mark.parametrize("factors", [
    [("a", "a⊗b"), ("b⊗c", "c")],
    [("a", "a⊗b"), ("b", "c"), ("c⊗d", "d")],
])
def test_colliding_tensor_labels_raise_from_tensor_space(factors):
    spaces = [Space(labels) for labels in factors]
    with pytest.raises(ValueError, match="distinct"):
        tensor_space(*spaces)


def test_tensor_labels_with_separator_are_joined_eagerly():
    t = tensor_space(Space(("p⊗q", "r")), space(2, "s"))
    assert t._labels == ("p⊗q⊗s0", "p⊗q⊗s1", "r⊗s0", "r⊗s1")


def _eager_hom_labels(dom, cod):
    return tuple("%s←%s" % (y, x) for y in cod.labels for x in dom.labels)


def _corpus_colinear_factors():
    """(domain, codomain) of every corpus colinear hom space at n ≤ 2: each
    left comodule algebra of the equalizer corpus and the crossed-product
    instances, with each corpus coefficient."""
    from hopfcyc.corpus import crossed_product_instances
    from test_equalizer import CARRIER_HOPF, _carriers, _coefficients

    pairs = [(B, M) for _, _, B, M in crossed_product_instances()]
    for name in CARRIER_HOPF:
        H, algebras, _ = _carriers(name, QQ)
        pairs += [(A, M) for A in algebras for M in _coefficients(H)]
    for A, M in pairs:
        for n in range(3):
            yield tensor_power(A.space, n + 1), M.space


def test_lazy_hom_labels_match_eager_join():
    a, b, m = space(2, "a"), space(3, "b"), space(2, "m")
    cases = [(tensor_space(a, b), m), (a, tensor_space(m, b))]
    cases += list(_corpus_colinear_factors())
    assert len(cases) > 100
    for dom, cod in cases:
        h = hom_space(dom, cod)
        eager = _eager_hom_labels(dom, cod)
        assert h._labels is None  # nothing joined until a label is read
        assert h.dim == len(eager)
        assert [h.label(i) for i in range(h.dim)] == list(eager)
        assert h._labels is None  # single labels are read without joining all
        flat = Space(eager, dom.field)
        assert h == flat and hash(h) == hash(flat)
        assert h.labels == eager and len(set(eager)) == h.dim


def test_hom_labels_with_arrow_are_joined_eagerly():
    dom, cod = Space(("p←q", "r")), space(2, "s")
    assert hom_space(dom, cod)._labels == ("s0←p←q", "s0←r", "s1←p←q", "s1←r")
    assert hom_space(cod, dom)._labels == ("p←q←s0", "p←q←s1", "r←s0", "r←s1")
    with pytest.raises(ValueError, match="^basis labels must be distinct$"):
        hom_space(Space(("a←b", "b")), Space(("y", "y←a")))


def test_lazy_hom_factor_of_a_tensor_space_is_joined_eagerly():
    a, b, m = space(2, "a"), space(3, "b"), space(2, "m")
    h = hom_space(tensor_space(a, b), m)  # its labels hold ⊗
    t = tensor_space(h, m)
    assert h._labels is not None and t._labels is not None
    assert t.labels == tuple("%s⊗%s" % (x, y) for x in h.labels for y in m.labels)
    g = hom_space(a, m)  # ⊗-free, and still joined and checked
    t = tensor_space(g, b)
    assert g._labels is not None and t._labels is not None
    assert t.labels == tuple("%s⊗%s" % (x, y) for x in g.labels for y in b.labels)
    # two lazy hom spaces whose joined labels collide once tensored
    h1 = hom_space(Space(("a", "a⊗b")), Space(("y",)))
    h2 = hom_space(Space(("z",)), Space(("b⊗c", "c")))
    assert h1._labels is None and h2._labels is None
    with pytest.raises(ValueError, match="^basis labels must be distinct$"):
        tensor_space(h1, h2)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_lazy_dual_labels_match_eager_join(field):
    # a tensor domain, and a domain whose labels hold ⊗
    a, b = space(2, "a", field), space(3, "b", field)
    for dom in (tensor_space(a, b), Space(("p⊗q", "r"), field)):
        d = dual_space(dom)
        eager = tuple("%s*" % lab for lab in dom.labels)
        assert d._labels is None  # nothing joined until a label is read
        assert d.dim == dom.dim and d.field is field
        assert [d.label(i) for i in range(d.dim)] == list(eager)
        assert d._labels is None  # single labels are read without joining all
        flat = Space(eager, field)
        assert d == flat and hash(d) == hash(flat)
        assert d.labels == eager
        assert tensor_space(d, b).labels == tuple(
            "%s⊗%s" % (x, y) for x in eager for y in b.labels)

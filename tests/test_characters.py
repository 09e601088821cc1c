"""Characters and group-likes from minimal-polynomial roots, checked against
the {0, ±1} search of ``structure_oracle`` (entry for entry where that search
is complete, as an ordered sub-list where it is not), against a brute force
over all of GF(p)^dim, and on algebras where the old search missed
characters: Taft's T_3 over GF(7) and T_4 over GF(13), and k[Z2] written on
a rescaled basis over ℚ."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcyc.corpus import get_hopf, hopf_names
from hopfcyc.fields import GF, QQ
from hopfcyc.hopf import (
    HopfAlgebra,
    _char_name,
    _rational_roots,
    _roots_mod,
    enumerate_characters,
    enumerate_group_likes,
)
from hopfcyc.linalg import LinMap, Space, Vector, tensor_space, unit_space

import structure_oracle

COMPLETE_FIELDS = [QQ, GF(2), GF(3), GF(32003)]
WIDER_FIELDS = [GF(5), GF(7)]


def _dual_algebra(H):
    """The product and unit of H*, written from Δ and ε: e_r°·e_s° has
    coefficient Δ[(r, s), c] at e_c°."""
    products = {}
    for (r, c), v in H.comult.entries.items():
        products.setdefault(r, []).append((c, v))
    return products, {c: v for (_, c), v in H.counit.entries.items()}


def _reference(H):
    """The {0, ±1} search's lists: (name, entries) of each character and
    group-like, in search order."""
    chars = [(_char_name(H, combo), {(0, i): v for i, v in enumerate(combo) if v})
             for combo in structure_oracle.search_characters(
                 H.field, H.dim, H.mult.by_col(), H.unit.entries)]
    likes = []
    for combo in structure_oracle.search_characters(H.field, H.dim, *_dual_algebra(H)):
        vec = Vector(H.space, {i: v for i, v in enumerate(combo) if v})
        likes.append((vec.describe(), vec.entries))
    return chars, likes


def _listed(H):
    return ([(c.name, c.delta.entries) for c in enumerate_characters(H)],
            [(g.name, g.sigma.entries) for g in enumerate_group_likes(H)])


def _ordered_sublist(small, big):
    rest = iter(big)
    return all(any(x == y for y in rest) for x in small)


@pytest.mark.parametrize("field", COMPLETE_FIELDS, ids=str)
@pytest.mark.parametrize("name", hopf_names())
def test_lists_equal_the_search_where_it_is_complete(name, field):
    # names, values and order, for characters and group-likes alike
    H = get_hopf(name, field)
    assert _listed(H) == _reference(H)


@pytest.mark.parametrize("field", WIDER_FIELDS, ids=str)
@pytest.mark.parametrize("name", hopf_names())
def test_search_lists_are_ordered_sub_lists(name, field):
    H = get_hopf(name, field)
    for old, new in zip(_reference(H), _listed(H)):
        assert _ordered_sublist(old, new), name


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", [n for n in hopf_names() if get_hopf(n).dim <= 4])
def test_lists_equal_a_brute_force_over_the_field(name, p):
    field = GF(p)
    H = get_hopf(name, field)
    every = list(itertools.product(range(p), repeat=H.dim))
    chars = {v for v in every
             if structure_oracle.is_character(field, H.mult.by_col(), H.unit.entries, v)}
    likes = {v for v in every if structure_oracle.is_character(field, *_dual_algebra(H), v)}

    def values(entries, key):
        return tuple(entries.get(key(i), 0) for i in range(H.dim))

    found_chars = [values(c.delta.entries, lambda i: (0, i)) for c in enumerate_characters(H)]
    found_likes = [values(g.sigma.entries, lambda i: i) for g in enumerate_group_likes(H)]
    assert len(set(found_chars)) == len(found_chars) and set(found_chars) == chars
    assert len(set(found_likes)) == len(found_likes) and set(found_likes) == likes


def test_gf7_lists_gain_the_cube_roots_of_unity():
    F = GF(7)
    kZ3 = get_hopf("kZ3", F)
    assert [c.value(1) for c in enumerate_characters(kZ3)] == [1, 2, 4]
    for name, which, old, new in [("dualZ3", 1, 1, 3), ("bicrossed-s3-f3", 1, 2, 6),
                                  ("bicrossed-s3-f2", 0, 2, 6)]:
        H = get_hopf(name, F)
        assert (len(_reference(H)[which]), len(_listed(H)[which])) == (old, new), name


def _taft(n, zeta, p):
    """Taft's algebra T_n over GF(p) (Taft, PNAS 68, 1971): g^n = 1, x^n = 0,
    xg = ζgx, Δg = g⊗g, Δx = x⊗1 + g⊗x, ε(x) = 0, on the basis g^i x^j at
    index i·n + j, so Δ(g^i x^j) = Σ_k [j, k]_ζ g^{i+k} x^{j−k} ⊗ g^i x^k.
    The antipode is solved from the bialgebra by the oracle."""
    field, d = GF(p), n * n

    def label(i, j):
        g = "" if not i else "g" if i == 1 else "g%d" % i
        x = "" if not j else "x" if j == 1 else "x%d" % j
        return g + x or "1"

    def binom(j, k):  # Gaussian binomial [j, k] at ζ
        out = 1
        for t in range(k):
            out = out * (1 - pow(zeta, j - t, p)) * pow(1 - pow(zeta, t + 1, p), -1, p) % p
        return out

    space = Space(tuple(label(i, j) for i in range(n) for j in range(n)), field)
    HH = tensor_space(space, space)
    mult = LinMap(HH, space, {
        ((a + c) % n * n + b + e, (a * n + b) * d + c * n + e): pow(zeta, b * c, p)
        for a, b, c, e in itertools.product(range(n), repeat=4) if b + e < n})
    comult = LinMap(space, HH, {
        (((i + k) % n * n + j - k) * d + i * n + k, i * n + j): binom(j, k)
        for i in range(n) for j in range(n) for k in range(j + 1)})
    unit = Vector(space, {0: 1})
    counit = LinMap(space, unit_space(field), {(0, i * n): 1 for i in range(n)})
    antipode = structure_oracle.solve_antipode(space, mult, unit, comult, counit)
    return HopfAlgebra(space, mult, unit, comult, counit, antipode, name="T%d" % n)


def test_taft_3_over_gf7():
    # the {0, ±1} search found only g ↦ 1
    T3 = _taft(3, 2, 7)
    chars = enumerate_characters(T3)
    assert [c.delta.entries for c in chars] == [
        {(0, 3 * i): pow(z, i, 7) for i in range(3)} for z in (1, 2, 4)]
    assert [g.name for g in enumerate_group_likes(T3)] == ["g2", "g", "1"]
    assert len(structure_oracle.search_characters(
        T3.field, T3.dim, T3.mult.by_col(), T3.unit.entries)) == 1


def test_taft_4_over_gf13():
    # dimension 16, where the 3^dim search ran for over ten minutes
    T4 = _taft(4, 5, 13)
    assert [c.value(4) for c in enumerate_characters(T4)] == [1, 12, 5, 8]
    assert [g.name for g in enumerate_group_likes(T4)] == ["g3", "g2", "g", "1"]


@pytest.mark.parametrize("c", [2, 10 ** 12])
def test_kz2_on_a_rescaled_basis(c):
    # k[Z2] on the basis {1, u = c·t}: u² = c²·1, Δu = u⊗u / c, ε(u) = c, so
    # the characters send u to ±c and the group-likes are 1 and u / c; the
    # {0, ±1} search found none of them, not even ε
    space = Space(("1", "u"), QQ)
    HH = tensor_space(space, space)
    H = HopfAlgebra(space, LinMap(HH, space, {(0, 0): 1, (1, 1): 1, (1, 2): 1, (0, 3): c * c}),
                    Vector(space, {0: 1}),
                    LinMap(space, HH, {(0, 0): 1, (3, 1): Fraction(1, c)}),
                    LinMap(space, unit_space(QQ), {(0, 0): 1, (0, 1): c}),
                    LinMap(space, space, {(0, 0): 1, (1, 1): 1}), name="k[Z2]/c")
    assert [chi.delta.entries for chi in enumerate_characters(H)] == [
        {(0, 0): 1, (0, 1): -c}, {(0, 0): 1, (0, 1): c}]
    assert [g.sigma.entries for g in enumerate_group_likes(H)] == [
        {1: Fraction(1, c)}, {0: 1}]
    assert structure_oracle.search_characters(QQ, 2, H.mult.by_col(), H.unit.entries) == []


def _expand(roots, p=None):
    """The coefficients, low degree first, of Π (x − r)."""
    f = [1]
    for r in roots:
        f = [(a - r * b) for a, b in zip([0] + f, f + [0])]
    return f if p is None else [v % p for v in f]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13, 101]), st.data())
def test_roots_mod_p_equal_a_scan(p, data):
    # planted roots with multiplicity, times a random cofactor
    planted = data.draw(st.lists(st.integers(0, p - 1), max_size=6))
    extra = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
    extra[-1] = extra[-1] or 1
    f = [0] * (len(planted) + len(extra))
    for i, a in enumerate(_expand(planted, p)):
        for j, b in enumerate(extra):
            f[i + j] = (f[i + j] + a * b) % p
    roots = _roots_mod(f, p)
    assert len(set(roots)) == len(roots)
    assert set(roots) == {r for r in range(p)
                          if not sum(v * r ** k for k, v in enumerate(f)) % p}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12)), max_size=5),
       st.integers(1, 30), st.booleans(), st.integers(1, 5))
def test_rational_roots_are_the_planted_ones(planted, c, plus, scale):
    # Π (x − a/b), with repeats, times x² + c (no real root) or x² − (c² + 1)
    # (no rational root), scaled by a rational: its rational roots are the
    # planted ones exactly
    roots = [Fraction(a, b) for a, b in planted]
    f = _expand(roots)
    quad = [c, 0, 1] if plus else [-(c * c + 1), 0, 1]
    g = [0] * (len(f) + 2)
    for i, a in enumerate(f):
        for j, b in enumerate(quad):
            g[i + j] += a * b * Fraction(scale, 7)
    found = _rational_roots(tuple(g))
    assert len(set(found)) == len(found) and set(found) == set(roots)
    assert all(isinstance(r, int) for r in found if r == int(r))


def test_rational_roots_past_the_search_values():
    # roots ±10^12 and a root with a large denominator, each exact
    assert sorted(_rational_roots((-10 ** 24, 0, 1))) == [-10 ** 12, 10 ** 12]
    x = Fraction(3, 10 ** 9 + 7)
    assert _rational_roots(tuple(_expand([x, x, -x]))) in ([x, -x], [-x, x])

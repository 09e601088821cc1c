"""Finite-dimensional Hopf algebras by structure constants, and the example zoo.

Structure tensors are validated eagerly at construction (associativity,
(co)unitality, coassociativity, bialgebra compatibility, antipode axiom),
so downstream code may assume a verified Hopf algebra.  ``verify_hopf``
exposes the same audit as a verdict with counterexample witnesses.
"""

from __future__ import annotations

import itertools

from .fields import QQ
from .groups import ExactFactorization, Group
from .linalg import (
    Chain,
    LinMap,
    Space,
    Vector,
    identity,
    inverse_map,
    maps_first_difference,
    solve_linear,
    tensor_space,
    unit_space,
)
from . import results
from .results import CheckResult


class StructureError(ValueError):
    """A structure-constant object failed its axioms at construction."""

    def __init__(self, check):
        self.check = check
        super().__init__(check.describe())


class HopfAlgebra:
    """mult: H⊗H→H, unit: vector, comult: H→H⊗H, counit: H→k, antipode: H→H."""

    def __init__(self, space, mult, unit, comult, counit, antipode, name="", validate=True):
        self.space = space
        self.mult = mult
        self.unit = unit
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.name = name or "H"
        self.field = space.field
        self._memo = {}  # iterated_comult / antipode_inverse results
        _check_hopf_shapes(self)
        if validate:
            check = verify_hopf(self)
            if not check:
                raise StructureError(check)

    @property
    def dim(self):
        return self.space.dim

    def unit_map(self):
        """The unit as a map k→H."""
        k = unit_space(self.field)
        return LinMap(k, self.space, {(i, 0): v for i, v in self.unit.entries.items()})

    def iterated_comult(self, k):
        """Δ^{k}: H → H^{⊗(k+1)}, Sweedler legs left to right; Δ^{0} = id."""
        key = ("Δ", k)
        if key not in self._memo:
            out = identity(self.space)
            for i in range(k):
                # expand the last leg
                chain = Chain([self.space] * (i + 1))
                chain.apply(self.comult, i, 1, [self.space, self.space])
                out = chain.to_map() @ out
            self._memo[key] = out
        return self._memo[key]

    def multiply_legs(self, k):
        """H^{⊗k} → H, left-to-right product; k=0 gives the unit map."""
        if k == 0:
            return self.unit_map()
        chain = Chain([self.space] * k)
        for _ in range(k - 1):
            chain.apply(self.mult, 0, 2, [self.space])
        return chain.to_map()

    def antipode_inverse(self):
        """S⁻¹, memoized per instance."""
        if "S⁻¹" not in self._memo:
            self._memo["S⁻¹"] = inverse_map(self.antipode)
        return self._memo["S⁻¹"]

    def flip(self):
        """The tensor swap H⊗H→H⊗H."""
        H = self.space
        d = H.dim
        HH = tensor_space(H, H)
        return LinMap(
            HH, HH, {(j * d + i, i * d + j): self.field.one for i in range(d) for j in range(d)}
        )

    def is_commutative(self):
        return maps_first_difference(self.mult, self.mult @ self.flip()) is None

    def is_cocommutative(self):
        return maps_first_difference(self.comult, self.flip() @ self.comult) is None

    def __repr__(self):
        return "HopfAlgebra(%s, dim=%d)" % (self.name, self.dim)


def _check_hopf_shapes(H):
    d = H.dim
    bad = None
    if H.mult.domain.dim != d * d or H.mult.codomain.dim != d:
        bad = "mult"
    elif H.unit.space.dim != d:
        bad = "unit"
    elif H.comult.domain.dim != d or H.comult.codomain.dim != d * d:
        bad = "comult"
    elif H.counit.domain.dim != d or H.counit.codomain.dim != 1:
        bad = "counit"
    elif H.antipode.domain.dim != d or H.antipode.codomain.dim != d:
        bad = "antipode"
    if bad:
        raise StructureError(
            results.failed("structure-shape", bad, "tensor shape", "expected shape")
        )


def _compare(name, lhs, rhs, domain):
    col = maps_first_difference(lhs, rhs)
    if col is None:
        return results.passed(name)
    return results.failed(
        name, domain.labels[col], lhs.column(col), rhs.column(col)
    )


def bialgebra_checks(H):
    """The bialgebra part of the audit (no antipode); shared with verify_hopf."""
    Hs = H.space
    k = unit_space(H.field)
    checks = []

    assoc_l = Chain([Hs, Hs, Hs]).apply(H.mult, 0, 2, [Hs]).apply(H.mult, 0, 2, [Hs]).to_map()
    assoc_r = Chain([Hs, Hs, Hs]).apply(H.mult, 1, 2, [Hs]).apply(H.mult, 0, 2, [Hs]).to_map()
    checks.append(("associativity", assoc_l, assoc_r, tensor_space(Hs, Hs, Hs)))

    unit_l = Chain([Hs]).apply(H.unit_map(), 0, 0, [Hs]).apply(H.mult, 0, 2, [Hs]).to_map()
    unit_r = Chain([Hs]).apply(H.unit_map(), 1, 0, [Hs]).apply(H.mult, 0, 2, [Hs]).to_map()
    checks.append(("left-unit", unit_l, identity(Hs), Hs))
    checks.append(("right-unit", unit_r, identity(Hs), Hs))

    coassoc_l = Chain([Hs]).apply(H.comult, 0, 1, [Hs, Hs]).apply(H.comult, 0, 1, [Hs, Hs]).to_map()
    coassoc_r = Chain([Hs]).apply(H.comult, 0, 1, [Hs, Hs]).apply(H.comult, 1, 1, [Hs, Hs]).to_map()
    checks.append(("coassociativity", coassoc_l, coassoc_r, Hs))

    counit_l = Chain([Hs]).apply(H.comult, 0, 1, [Hs, Hs]).apply(H.counit, 0, 1, []).to_map()
    counit_r = Chain([Hs]).apply(H.comult, 0, 1, [Hs, Hs]).apply(H.counit, 1, 1, []).to_map()
    checks.append(("left-counit", counit_l, identity(Hs), Hs))
    checks.append(("right-counit", counit_r, identity(Hs), Hs))

    # Δ is an algebra map
    dm_l = Chain([Hs, Hs]).apply(H.mult, 0, 2, [Hs]).apply(H.comult, 0, 1, [Hs, Hs]).to_map()
    dm_r = (
        Chain([Hs, Hs])
        .apply(H.comult, 0, 1, [Hs, Hs])
        .apply(H.comult, 2, 1, [Hs, Hs])
        .permute([0, 2, 1, 3])
        .apply(H.mult, 0, 2, [Hs])
        .apply(H.mult, 1, 2, [Hs])
        .to_map()
    )
    checks.append(("comult-multiplicative", dm_l, dm_r, tensor_space(Hs, Hs)))

    em_l = Chain([Hs, Hs]).apply(H.mult, 0, 2, [Hs]).apply(H.counit, 0, 1, []).to_map()
    em_r = Chain([Hs, Hs]).apply(H.counit, 0, 1, []).apply(H.counit, 0, 1, []).to_map()
    checks.append(("counit-multiplicative", em_l, em_r, tensor_space(Hs, Hs)))

    results_list = [_compare(name, lhs, rhs, dom) for name, lhs, rhs, dom in checks]

    unit_image = H.comult.apply(H.unit)
    unit_sq = Chain([k]).apply(H.unit_map(), 0, 0, [Hs]).apply(H.unit_map(), 1, 0, [Hs]).to_map()
    expected = unit_sq.column(0)
    if unit_image == expected:
        results_list.append(results.passed("comult-unital"))
    else:
        results_list.append(results.failed("comult-unital", "1", unit_image, expected))

    eps_unit = H.counit.apply(H.unit)
    if eps_unit.entries == {0: H.field.one}:
        results_list.append(results.passed("counit-unital"))
    else:
        results_list.append(
            results.failed("counit-unital", "1", eps_unit, Vector(unit_space(H.field), {0: H.field.one}))
        )
    return results_list


def verify_hopf(H) -> CheckResult:
    """Full axiom audit; on failure names the axiom and a witness basis element."""
    Hs = H.space
    all_checks = bialgebra_checks(H)

    unit_eps = (
        Chain([Hs]).apply(H.counit, 0, 1, []).apply(H.unit_map(), 0, 0, [Hs]).to_map()
    )
    anti_l = (
        Chain([Hs])
        .apply(H.comult, 0, 1, [Hs, Hs])
        .apply(H.antipode, 0, 1, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .to_map()
    )
    anti_r = (
        Chain([Hs])
        .apply(H.comult, 0, 1, [Hs, Hs])
        .apply(H.antipode, 1, 1, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .to_map()
    )
    all_checks.append(_compare("antipode-left", anti_l, unit_eps, Hs))
    all_checks.append(_compare("antipode-right", anti_r, unit_eps, Hs))

    return results.merge("hopf-axioms", all_checks)


class Character:
    """An algebra map δ: H→k, validated: δ(ab)=δ(a)δ(b), δ(1)=1."""

    def __init__(self, hopf, delta, name="δ", validate=True):
        self.hopf = hopf
        self.delta = delta
        self.name = name
        if validate:
            check = self.verify()
            if not check:
                raise StructureError(check)

    @classmethod
    def from_values(cls, hopf, values, name="δ"):
        """values: list of scalars, one per basis element."""
        k = unit_space(hopf.field)
        entries = {(0, i): v for i, v in enumerate(values) if v}
        return cls(hopf, LinMap(hopf.space, k, entries), name=name)

    def verify(self):
        H = self.hopf
        lhs = self.delta @ H.mult
        rhs = (
            Chain([H.space, H.space])
            .apply(self.delta, 0, 1, [])
            .apply(self.delta, 0, 1, [])
            .to_map()
        )
        out = _compare("character-multiplicative", lhs, rhs, tensor_space(H.space, H.space))
        if not out:
            return out
        if self.delta.apply(H.unit).entries != {0: H.field.one}:
            return results.failed(
                "character-unital", "1", self.delta.apply(H.unit), "1"
            )
        return results.passed("character")

    def value(self, i):
        """δ on the i-th basis element."""
        return self.delta.entries.get((0, i), self.hopf.field.zero)

    def __repr__(self):
        return "Character(%s on %s)" % (self.name, self.hopf.name)


def counit_character(H):
    return Character(H, H.counit, name="ε")


class GroupLike:
    """σ with Δσ = σ⊗σ, ε(σ)=1, and a verified two-sided inverse."""

    def __init__(self, hopf, sigma, sigma_inverse=None, name="σ", validate=True):
        self.hopf = hopf
        self.sigma = sigma
        self.name = name
        if validate:
            # cheap comult/counit conditions before solving for an inverse
            pre = self._verify_comult()
            if not pre:
                raise StructureError(pre)
        self.sigma_inverse = (
            sigma_inverse if sigma_inverse is not None else self._solve_inverse()
        )
        if validate:
            check = self.verify()
            if not check:
                raise StructureError(check)

    def _verify_comult(self):
        H = self.hopf
        lhs = H.comult.apply(self.sigma)
        rhs = _tensor_vec(self.sigma, self.sigma)
        if lhs != rhs:
            return results.failed("group-like-comult", self.name, lhs, rhs)
        eps = H.counit.apply(self.sigma)
        if eps.entries != {0: H.field.one}:
            return results.failed("group-like-counit", self.name, eps, "1")
        return results.passed("group-like-comult")

    def _solve_inverse(self):
        H = self.hopf
        # left multiplication by sigma as a matrix, then solve L x = 1
        left = _left_multiplication(H, self.sigma)
        rows = {}
        for (r, c), v in left.entries.items():
            rows.setdefault(r, {})[c] = v
        rhs = [H.unit.entries.get(r, H.field.zero) for r in range(H.dim)]
        sol = solve_linear([rows.get(r, {}) for r in range(H.dim)], rhs, H.dim, H.field)
        if sol is None:
            raise StructureError(
                results.failed("group-like-invertible", self.name, self.sigma, "no inverse")
            )
        return Vector(H.space, sol)

    def verify(self):
        H = self.hopf
        lhs = H.comult.apply(self.sigma)
        rhs = _tensor_vec(self.sigma, self.sigma)
        if lhs != rhs:
            return results.failed("group-like-comult", self.name, lhs, rhs)
        eps = H.counit.apply(self.sigma)
        if eps.entries != {0: H.field.one}:
            return results.failed("group-like-counit", self.name, eps, "1")
        left = _left_multiplication(H, self.sigma).apply(self.sigma_inverse)
        right = _left_multiplication(H, self.sigma_inverse).apply(self.sigma)
        if left != H.unit:
            return results.failed("group-like-inverse", self.name, left, H.unit)
        if right != H.unit:
            return results.failed("group-like-inverse", self.name, right, H.unit)
        return results.passed("group-like")

    def __repr__(self):
        return "GroupLike(%s in %s)" % (self.name, self.hopf.name)


def unit_group_like(H):
    return GroupLike(H, H.unit, H.unit, name="1")


def _tensor_vec(v, w):
    from .linalg import tensor_vectors

    return tensor_vectors(v, w)


def _left_multiplication(H, vec):
    """h ↦ vec·h as a matrix on H."""
    d = H.dim
    entries = {}
    for i, coeff in vec.entries.items():
        for (r, c), v in H.mult.entries.items():
            a, b = divmod(c, d)
            if a == i:
                key = (r, b)
                entries[key] = entries.get(key, H.field.zero) + coeff * v
    return LinMap(H.space, H.space, {k: v for k, v in entries.items() if v})


def _right_multiplication(H, vec):
    """h ↦ h·vec as a matrix on H."""
    d = H.dim
    entries = {}
    for i, coeff in vec.entries.items():
        for (r, c), v in H.mult.entries.items():
            a, b = divmod(c, d)
            if b == i:
                key = (r, a)
                entries[key] = entries.get(key, H.field.zero) + coeff * v
    return LinMap(H.space, H.space, {k: v for k, v in entries.items() if v})


def conjugation(H, sigma: GroupLike):
    """h ↦ σ⁻¹·h·σ as a matrix."""
    return _left_multiplication(H, sigma.sigma_inverse) @ _right_multiplication(H, sigma.sigma)


def twisted_antipode(H, delta: Character, convention="first-leg"):
    """S_δ(h) = δ(h⁽¹⁾)S(h⁽²⁾)  (default), or δ(h⁽²⁾)S(h⁽¹⁾) with
    convention="second-leg".  S_ε = S exactly under both."""
    Hs = H.space
    if convention == "first-leg":
        chain = (
            Chain([Hs])
            .apply(H.comult, 0, 1, [Hs, Hs])
            .apply(delta.delta, 0, 1, [])
            .apply(H.antipode, 0, 1, [Hs])
        )
    elif convention == "second-leg":
        chain = (
            Chain([Hs])
            .apply(H.comult, 0, 1, [Hs, Hs])
            .apply(delta.delta, 1, 1, [])
            .apply(H.antipode, 0, 1, [Hs])
        )
    else:
        raise ValueError("unknown twisted-antipode convention %r" % convention)
    return chain.to_map()


def check_modular_pair(H, delta: Character, sigma: GroupLike) -> CheckResult:
    """Pass iff δ(σ) = 1."""
    val = delta.delta.apply(sigma.sigma)
    one = H.field.one
    if val.entries == {0: one}:
        return results.passed("modular-pair", detail="δ(σ)=1")
    return results.failed(
        "modular-pair",
        "σ = %s" % sigma.sigma.describe(),
        val,
        Vector(unit_space(H.field), {0: one}),
        detail="δ(σ) ≠ 1",
    )


def solve_antipode(space, mult, unit_vec, comult, counit):
    """Solve m∘(S⊗id)∘Δ = unit∘ε for S (linear in S); unique when it exists."""
    d = space.dim
    field = space.field
    # unknown S[z, h1]; flat index z*d + h1
    rows = []
    rhs = []
    mult_cols = mult.by_col()
    comult_cols = comult.by_col()
    eps = {c: v for (_, c), v in counit.entries.items()}
    for h in range(d):
        coeffs_per_y = {}
        for hh, dv in comult_cols.get(h, ()):
            h1, h2 = divmod(hh, d)
            for z in range(d):
                for y, mv in mult_cols.get(z * d + h2, ()):
                    key = (y, z * d + h1)
                    coeffs_per_y[key] = coeffs_per_y.get(key, field.zero) + dv * mv
        for y in range(d):
            row = {
                zh1: v for (yy, zh1), v in coeffs_per_y.items() if yy == y and v
            }
            rows.append(row)
            target = eps.get(h, field.zero) * unit_vec.entries.get(y, field.zero)
            rhs.append(target)
    sol = solve_linear(rows, rhs, d * d, field)
    if sol is None:
        raise StructureError(
            results.failed("antipode-solvable", "bialgebra", "no antipode", "required")
        )
    entries = {}
    for flat, v in sol.items():
        z, h1 = divmod(flat, d)
        entries[(z, h1)] = v
    return LinMap(space, space, entries)


# ---------------------------------------------------------------------------
# the example zoo
# ---------------------------------------------------------------------------


def group_algebra(group: Group, field=QQ, name=None):
    """k[G]: basis = group elements, Δg = g⊗g, ε(g)=1, S(g)=g⁻¹."""
    space = Space(group.labels, field)
    n = group.order
    one = field.one
    mult = LinMap(
        tensor_space(space, space),
        space,
        {(group.mul(a, b), a * n + b): one for a in range(n) for b in range(n)},
    )
    unit = Vector(space, {group.identity: one})
    comult = LinMap(
        space, tensor_space(space, space), {(g * n + g, g): one for g in range(n)}
    )
    counit = LinMap(space, unit_space(field), {(0, g): one for g in range(n)})
    antipode = LinMap(space, space, {(group.inv(g), g): one for g in range(n)})
    return HopfAlgebra(
        space, mult, unit, comult, counit, antipode, name=name or "k[%s]" % group.name
    )


def function_hopf(group: Group, field=QQ, name=None):
    """k^G: delta-function basis, pointwise product, Δ(e_g)=Σ_{ab=g} e_a⊗e_b."""
    labels = tuple("δ%s" % lab for lab in group.labels)
    space = Space(labels, field)
    n = group.order
    one = field.one
    mult = LinMap(
        tensor_space(space, space),
        space,
        {(a, a * n + a): one for a in range(n)},
    )
    unit = Vector(space, {g: one for g in range(n)})
    comult_entries = {}
    for a in range(n):
        for b in range(n):
            comult_entries[(a * n + b, group.mul(a, b))] = one
    comult = LinMap(space, tensor_space(space, space), comult_entries)
    counit = LinMap(space, unit_space(field), {(0, group.identity): one})
    antipode = LinMap(space, space, {(group.inv(g), g): one for g in range(n)})
    return HopfAlgebra(
        space, mult, unit, comult, counit, antipode, name=name or "k^%s" % group.name
    )


def trivial_hopf(field=QQ):
    """The ground field as a Hopf algebra (dim 1)."""
    space = Space(("1",), field)
    one = field.one
    k = unit_space(field)
    return HopfAlgebra(
        space,
        LinMap(tensor_space(space, space), space, {(0, 0): one}),
        Vector(space, {0: one}),
        LinMap(space, tensor_space(space, space), {(0, 0): one}),
        LinMap(space, k, {(0, 0): one}),
        identity(space),
        name="k",
    )


def sweedler_h4(field=QQ):
    """The four-dimensional Hopf algebra with basis 1, g, x, gx:
    g²=1, x²=0, xg=−gx, Δg=g⊗g, Δx=x⊗1+g⊗x, S(g)=g, S(x)=−gx.
    The smallest example with S² ≠ id (S² is conjugation by g)."""
    space = Space(("1", "g", "x", "gx"), field)
    one = field.one
    neg = field.from_int(-1)
    I, G, X, GX = 0, 1, 2, 3
    prod = {
        (I, I): {I: one}, (I, G): {G: one}, (I, X): {X: one}, (I, GX): {GX: one},
        (G, I): {G: one}, (G, G): {I: one}, (G, X): {GX: one}, (G, GX): {X: one},
        (X, I): {X: one}, (X, G): {GX: neg}, (X, X): {}, (X, GX): {},
        (GX, I): {GX: one}, (GX, G): {X: neg}, (GX, X): {}, (GX, GX): {},
    }
    mult_entries = {}
    for (a, b), out in prod.items():
        for r, v in out.items():
            mult_entries[(r, a * 4 + b)] = v
    mult = LinMap(tensor_space(space, space), space, mult_entries)
    unit = Vector(space, {I: one})
    comult_entries = {
        (I * 4 + I, I): one,
        (G * 4 + G, G): one,
        (X * 4 + I, X): one,
        (G * 4 + X, X): one,
        (GX * 4 + G, GX): one,
        (I * 4 + GX, GX): one,
    }
    comult = LinMap(space, tensor_space(space, space), comult_entries)
    counit = LinMap(space, unit_space(field), {(0, I): one, (0, G): one})
    antipode = LinMap(space, space, {(I, I): one, (G, G): one, (GX, X): neg, (X, GX): one})
    return HopfAlgebra(space, mult, unit, comult, counit, antipode, name="H4")


class BicrossedProduct:
    """k^F ⋈ k[U] from an exact factorization G = F·U.

    Algebra: smash product for the left U-action on F (u·e_f = e_{u▷f});
    coalgebra: cosmash for the right F-coaction on U read off u◁f.  The
    antipode is solved from the bialgebra data and the whole structure is
    re-verified, so a factorization that reaches the constructor always
    yields an honest Hopf algebra.
    """

    def __init__(self, factorization: ExactFactorization, field=QQ, name=None):
        self.factorization = factorization
        fz = factorization
        group = fz.group
        nf, nu = len(fz.left), len(fz.right)
        labels = tuple(
            "δ%s⋈%s" % (group.labels[f], group.labels[u])
            for f in fz.left
            for u in fz.right
        )
        space = Space(labels, field)
        one = field.one
        fpos = {f: i for i, f in enumerate(fz.left)}
        upos = {u: i for i, u in enumerate(fz.right)}

        def flat(fi, ui):
            return fi * nu + ui

        d = nf * nu
        mult_entries = {}
        for fi, f in enumerate(fz.left):
            for ui, u in enumerate(fz.right):
                for gi, g in enumerate(fz.left):
                    for vi, v in enumerate(fz.right):
                        if fpos[fz.act_left(u, g)] != fi:
                            continue
                        uv = upos[group.mul(u, v)]
                        col = flat(fi, ui) * d + flat(gi, vi)
                        mult_entries[(flat(fi, uv), col)] = one
        mult = LinMap(tensor_space(space, space), space, mult_entries)
        unit = Vector(
            space, {flat(fi, upos[group.identity]): one for fi in range(nf)}
        )
        comult_entries = {}
        for fi, f in enumerate(fz.left):
            for ui, u in enumerate(fz.right):
                for ai, a in enumerate(fz.left):
                    for bi, b in enumerate(fz.left):
                        if group.mul(a, b) != f:
                            continue
                        # left leg carries u ◁ b⁻¹
                        ub = upos[fz.act_right(u, group.inv(b))]
                        row = flat(ai, ub) * d + flat(bi, ui)
                        comult_entries[(row, flat(fi, ui))] = one
        comult = LinMap(space, tensor_space(space, space), comult_entries)
        counit = LinMap(
            space,
            unit_space(field),
            {(0, flat(fpos[group.identity], ui)): one for ui in range(nu)},
        )
        antipode = solve_antipode(space, mult, unit, comult, counit)
        self.hopf = HopfAlgebra(
            space,
            mult,
            unit,
            comult,
            counit,
            antipode,
            name=name
            or "k^%s⋈k[%s]" % ("{" + ",".join(fz.f_labels()) + "}", "{" + ",".join(fz.u_labels()) + "}"),
        )
        self.space = space
        self.field = field
        self.nf, self.nu = nf, nu
        self.flat = flat


def bicrossed_product(group, left_labels, right_labels, field=QQ, name=None):
    """Bicrossed product Hopf algebra from G = F·U (unique factorization,
    checked exhaustively).  Returns a BicrossedProduct wrapper; the Hopf
    algebra itself is the ``.hopf`` attribute."""
    fz = ExactFactorization(group, left_labels, right_labels)
    return BicrossedProduct(fz, field=field, name=name)


def co_opposite(H):
    """H^cop: flipped comultiplication, antipode replaced by S⁻¹."""
    return HopfAlgebra(
        H.space,
        H.mult,
        H.unit,
        H.flip() @ H.comult,
        H.counit,
        H.antipode_inverse(),
        name=H.name + "^cop",
    )


def enumerate_characters(H, max_dim_for_search=6):
    """All characters of H whose basis values lie in {0, 1, -1}, by exhaustive
    search.  Over Q this captures every character of the zoo: group algebras
    have ±1-valued characters (one-dimensional rational representations),
    function algebras have 0/1-valued evaluations, and the bismash products
    mix the two."""
    if H.dim > max_dim_for_search:
        raise ValueError("character search capped at dimension %d" % max_dim_for_search)
    field = H.field
    values = (field.zero, field.one, field.from_int(-1))
    found = []
    for combo in itertools.product(values, repeat=H.dim):
        try:
            found.append(Character.from_values(H, list(combo), name=_char_name(H, combo)))
        except StructureError:
            continue
    return found


def _char_name(H, combo):
    parts = []
    for i, v in enumerate(combo):
        if v != H.field.one:
            parts.append("%s↦%s" % (H.space.labels[i], H.field.format(v)))
    return "ε" if not parts else "δ[%s]" % ",".join(parts)


def enumerate_group_likes(H, max_dim_for_search=6):
    """All group-likes with coefficients in {0, 1, -1}, by exhaustive search;
    captures the group elements of k[G], the multiplicative characters inside
    k^G, and the bismash group-likes."""
    if H.dim > max_dim_for_search:
        raise ValueError("group-like search capped at dimension %d" % max_dim_for_search)
    field = H.field
    values = (field.zero, field.one, field.from_int(-1))
    out = []
    for combo in itertools.product(values, repeat=H.dim):
        vec = Vector(H.space, {i: v for i, v in enumerate(combo) if v})
        if vec.is_zero():
            continue
        try:
            out.append(GroupLike(H, vec, name=vec.describe()))
        except StructureError:
            continue
    return out

"""Finite-dimensional Hopf algebras by structure constants, and the example zoo.

Structure tensors are validated eagerly at construction (associativity,
(co)unitality, coassociativity, bialgebra compatibility, antipode axiom),
so downstream code may assume a verified Hopf algebra.  ``verify_hopf``
exposes the same audit as a verdict with counterexample witnesses.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .fields import GF, QQ, _is_prime
from .groups import ExactFactorization, Group
from .linalg import (
    Chain,
    LinMap,
    Space,
    Vector,
    dual_space,
    identity,
    inverse_map,
    maps_first_difference,
    membership,
    tensor_space,
    tensor_vectors,
    unit_space,
)
from . import results
from .results import CheckResult, compare


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
        self._memo = {}  # iterated_comult / antipode_inverse / predual results
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
        return unit_map(self.unit)

    def iterated_comult(self, k):
        """Δ^{k}: H → H^{⊗(k+1)}, Sweedler legs left to right; Δ^{0} = id."""
        key = ("Δ", k)
        if key not in self._memo:
            out = identity(self.space)
            for i in range(k):
                # expand the last leg
                chain = Chain([self.space] * (i + 1))
                chain.apply(self.comult, i, 1, [self.space, self.space])
                out = chain.to_map() if i == 0 else chain.to_map() @ out
            self._memo[key] = out
        return self._memo[key]

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


def unit_map(unit):
    """The unit vector of an algebra as a map k→A."""
    A = unit.space
    return LinMap(unit_space(A.field), A, {(i, 0): v for i, v in unit.entries.items()})


def algebra_axioms(S, mult, unit, names):
    """Associativity, then the left and the right unit law, of the algebra
    (S, mult, unit), as verdicts under the three condition ``names``."""
    eta = unit_map(unit)
    assoc_l = Chain([S, S, S]).apply(mult, 0, 2, [S]).apply(mult, 0, 2, [S]).to_map()
    assoc_r = Chain([S, S, S]).apply(mult, 1, 2, [S]).apply(mult, 0, 2, [S]).to_map()
    checks = [compare(names[0], assoc_l, assoc_r, tensor_space(S, S, S).label)]
    for name, at in zip(names[1:], (0, 1)):
        unit_side = Chain([S]).apply(eta, at, 0, [S]).apply(mult, 0, 2, [S]).to_map()
        checks.append(compare(name, unit_side, identity(S), S.label))
    return checks


def coalgebra_axioms(S, comult, counit, names):
    """Coassociativity, then the left and the right counit law, of the
    coalgebra (S, comult, counit), as verdicts under the three ``names``."""
    co_l = Chain([S]).apply(comult, 0, 1, [S, S]).apply(comult, 0, 1, [S, S]).to_map()
    co_r = Chain([S]).apply(comult, 0, 1, [S, S]).apply(comult, 1, 1, [S, S]).to_map()
    checks = [compare(names[0], co_l, co_r, S.label)]
    for name, at in zip(names[1:], (0, 1)):
        counit_side = Chain([S]).apply(comult, 0, 1, [S, S]).apply(counit, at, 1, []).to_map()
        checks.append(compare(name, counit_side, identity(S), S.label))
    return checks


def comodule_axioms(S, coaction, H, side):
    """Coassociativity and counitality of an H-coaction S → H⊗S
    (side="left") or S → S⊗H (side="right")."""
    Hs = H.space
    legs, h = ([Hs, S], 0) if side == "left" else ([S, Hs], 1)
    co_l = Chain([S]).apply(coaction, 0, 1, legs).apply(coaction, 1 - h, 1, legs).to_map()
    co_r = Chain([S]).apply(coaction, 0, 1, legs).apply(H.comult, h, 1, [Hs, Hs]).to_map()
    counit_side = Chain([S]).apply(coaction, 0, 1, legs).apply(H.counit, h, 1, []).to_map()
    return [compare("comodule-coassociativity", co_l, co_r, S.label),
            compare("comodule-counit", counit_side, identity(S), S.label)]


def module_axioms(S, action, H, side):
    """Associativity and unitality of an H-action H⊗S → S (side="left") or
    S⊗H → S (side="right"); the left side puts the product of H first."""
    Hs = H.space
    legs, h = ([Hs, Hs, S], 0) if side == "left" else ([S, Hs, Hs], 1)
    by_product = Chain(legs).apply(H.mult, h, 2, [Hs]).apply(action, 0, 2, [S]).to_map()
    twice = Chain(legs).apply(action, 1 - h, 2, [S]).apply(action, 0, 2, [S]).to_map()
    lhs, rhs = (by_product, twice) if side == "left" else (twice, by_product)
    unit_side = Chain([S]).apply(H.unit_map(), h, 0, [Hs]).apply(action, 0, 2, [S]).to_map()
    return [compare("module-associativity", lhs, rhs, tensor_space(*legs).label),
            compare("module-unit", unit_side, identity(S), S.label)]


def bialgebra_checks(H):
    """The bialgebra part of the audit (no antipode); shared with verify_hopf."""
    Hs = H.space
    k = unit_space(H.field)
    checks = algebra_axioms(Hs, H.mult, H.unit, ("associativity", "left-unit", "right-unit"))
    checks += coalgebra_axioms(Hs, H.comult, H.counit,
                               ("coassociativity", "left-counit", "right-counit"))

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
    checks.append(compare("comult-multiplicative", dm_l, dm_r, tensor_space(Hs, Hs).label))

    em_l = Chain([Hs, Hs]).apply(H.mult, 0, 2, [Hs]).apply(H.counit, 0, 1, []).to_map()
    em_r = Chain([Hs, Hs]).apply(H.counit, 0, 1, []).apply(H.counit, 0, 1, []).to_map()
    checks.append(compare("counit-multiplicative", em_l, em_r, tensor_space(Hs, Hs).label))

    unit_image = H.comult.apply(H.unit)
    unit_sq = Chain([k]).apply(H.unit_map(), 0, 0, [Hs]).apply(H.unit_map(), 1, 0, [Hs]).to_map()
    expected = unit_sq.column(0)
    if unit_image == expected:
        checks.append(results.passed("comult-unital"))
    else:
        checks.append(results.failed("comult-unital", "1", unit_image, expected))

    eps_unit = H.counit.apply(H.unit)
    if eps_unit.entries == {0: H.field.one}:
        checks.append(results.passed("counit-unital"))
    else:
        checks.append(
            results.failed("counit-unital", "1", eps_unit, Vector(unit_space(H.field), {0: H.field.one}))
        )
    return checks


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
    all_checks.append(compare("antipode-left", anti_l, unit_eps, Hs.label))
    all_checks.append(compare("antipode-right", anti_r, unit_eps, Hs.label))

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
        out = compare("character-multiplicative", lhs, rhs, tensor_space(H.space, H.space).label)
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
    """σ with Δσ = σ⊗σ, ε(σ)=1, and a verified two-sided inverse (S(σ) if none is given)."""

    def __init__(self, hopf, sigma, sigma_inverse=None, name="σ", validate=True):
        self.hopf = hopf
        self.sigma = sigma
        self.name = name
        self.sigma_inverse = (
            sigma_inverse if sigma_inverse is not None else hopf.antipode.apply(sigma)
        )
        if validate:
            check = self.verify()
            if not check:
                raise StructureError(check)

    def _verify_comult(self):
        H = self.hopf
        lhs = H.comult.apply(self.sigma)
        rhs = tensor_vectors(self.sigma, self.sigma)
        if lhs != rhs:
            return results.failed("group-like-comult", self.name, lhs, rhs)
        eps = H.counit.apply(self.sigma)
        if eps.entries != {0: H.field.one}:
            return results.failed("group-like-counit", self.name, eps, "1")
        return results.passed("group-like-comult")

    def verify(self):
        H = self.hopf
        pre = self._verify_comult()
        if not pre:
            return pre
        left = _multiplication(H, self.sigma, "left").apply(self.sigma_inverse)
        right = _multiplication(H, self.sigma_inverse, "left").apply(self.sigma)
        if left != H.unit:
            return results.failed("group-like-inverse", self.name, left, H.unit)
        if right != H.unit:
            return results.failed("group-like-inverse", self.name, right, H.unit)
        return results.passed("group-like")

    def __repr__(self):
        return "GroupLike(%s in %s)" % (self.name, self.hopf.name)


def unit_group_like(H):
    return GroupLike(H, H.unit, H.unit, name="1")


def _multiplication(H, vec, side):
    """h ↦ vec·h (side="left") or h ↦ h·vec (side="right") as a matrix on H,
    in one pass over the entries of H's product."""
    d, coeffs, entries = H.dim, vec.entries, {}
    for (r, c), v in H.mult.entries.items():
        a, b = divmod(c, d)
        if side == "right":
            a, b = b, a
        coeff = coeffs.get(a)
        if coeff:
            entries[(r, b)] = entries.get((r, b), 0) + coeff * v
    return LinMap(H.space, H.space, entries)


def conjugation(H, sigma: GroupLike):
    """h ↦ σ⁻¹·h·σ as a matrix."""
    return (_multiplication(H, sigma.sigma_inverse, "left")
            @ _multiplication(H, sigma.sigma, "right"))


def twisted_antipode(H, delta: Character):
    """S_δ(h) = δ(h⁽¹⁾)S(h⁽²⁾); S_ε = S."""
    Hs = H.space
    return (Chain([Hs]).apply(H.comult, 0, 1, [Hs, Hs])
            .apply(delta.delta, 0, 1, []).apply(H.antipode, 0, 1, [Hs]).to_map())


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
    """k^F ⋈ k[U] from an exact factorization G = F·U, with e_f⋈u at basis
    index ``flat(f, u)``.

    Algebra: smash product for the left U-action on F (u·e_f = e_{u▷f});
    coalgebra: cosmash for the right F-coaction on U read off u◁f.  Every
    structure tensor is written in closed form from the factorization:
    (e_f⋈u)(e_g⋈v) = δ_{f,u▷g} e_f⋈uv, 1 = Σ_f e_f⋈1,
    Δ(e_f⋈u) = Σ_{ab=f} e_a⋈(u◁b⁻¹) ⊗ e_b⋈u, ε(e_f⋈u) = δ_{f,1}, and the
    bismash antipode S(e_f⋈u) = e_a⋈b with ab = (fu)⁻¹ (Takeuchi, 1981).
    The HopfAlgebra constructor audits every axiom, so a factorization that
    reaches it always yields an honest Hopf algebra.
    """

    def __init__(self, factorization: ExactFactorization, field=QQ, name=None):
        self.factorization = fz = factorization
        group, F, U = fz.group, fz.left, fz.right
        space = Space(
            tuple("δ%s⋈%s" % (group.labels[f], group.labels[u]) for f in F for u in U), field)
        d, e, one, flat = space.dim, group.identity, field.one, self.flat
        mult = {(flat(f, group.mul(u, v)), flat(f, u) * d + flat(g, v)): one
                for u in U for g in F for f in (fz.act_left(u, g),) for v in U}
        comult = {(flat(a, fz.act_right(u, group.inv(b))) * d + flat(b, u),
                   flat(group.mul(a, b), u)): one for a in F for b in F for u in U}
        antipode = {(flat(*fz.factorize(group.inv(group.mul(f, u)))), flat(f, u)): one
                    for f in F for u in U}
        HH = tensor_space(space, space)
        self.hopf = HopfAlgebra(
            space,
            LinMap(HH, space, mult),
            Vector(space, {flat(f, e): one for f in F}),
            LinMap(space, HH, comult),
            LinMap(space, unit_space(field), {(0, flat(e, u)): one for u in U}),
            LinMap(space, space, antipode),
            name=name
            or "k^%s⋈k[%s]" % ("{" + ",".join(fz.f_labels()) + "}", "{" + ",".join(fz.u_labels()) + "}"),
        )

    def flat(self, f, u):
        """The basis index of e_f⋈u, for group elements f in F and u in U."""
        fz = self.factorization
        return fz.f_pos[f] * len(fz.right) + fz.u_pos[u]


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


def predual(H):
    """K = (H^op)* in H's dual coordinates e_i°: product Δᵀ, unit ε, coproduct
    (μ∘flip)ᵀ, counit 1ᵀ, antipode (S⁻¹)ᵀ.  Built unvalidated, kept on H."""
    if "predual" not in H._memo:
        K = dual_space(H.space)
        KK = tensor_space(K, K)

        def dual(f, domain, codomain):
            return LinMap(domain, codomain, {(c, r): v for (r, c), v in f.entries.items()})

        H._memo["predual"] = HopfAlgebra(
            K, dual(H.comult, KK, K), Vector(K, {c: v for (_, c), v in H.counit.entries.items()}),
            dual(H.mult @ H.flip(), K, KK), dual(H.unit_map(), K, unit_space(H.field)),
            dual(H.antipode_inverse(), K, K), name="(%s^op)*" % H.name, validate=False)
    return H._memo["predual"]


def _trim(f, p):
    """f as a list, reduced mod p over GF(p), without trailing zeros."""
    f = list(f) if p is None else [v % p for v in f]
    while f and not f[-1]:
        f.pop()
    return f


def _poly_divmod(f, g, field):
    """Quotient and remainder of f by g (coefficients low degree first, g's
    leading one nonzero)."""
    p, f, n = field.modulus, list(f), len(g) - 1
    inv, q = field.inv(g[-1]), [0] * max(len(f) - n, 0)
    for k in range(len(f) - n - 1, -1, -1):
        c = f[k + n] * inv
        q[k] = c = c if p is None else c % p
        if c:
            for j, v in enumerate(g):
                f[k + j] -= c * v
    return q, _trim(f[:n], p)


def _poly_gcd(f, g, field):
    """The monic greatest common divisor of f and g (g trimmed)."""
    while g:
        f, g = g, _poly_divmod(f, g, field)[1]
    return _poly_divmod(f, [f[-1]], field)[0]


def _poly_pow_mod(f, e, m, field):
    """f^e mod m, by squaring, for f of lower degree than m."""
    def mul_mod(a, b):
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return _poly_divmod(out, m, field)[1]

    out = [1]
    while e:
        if e & 1:
            out = mul_mod(out, f)
        f, e = mul_mod(f, f), e >> 1
    return out


def _roots_mod(f, p):
    """The distinct roots in GF(p) of f (ints, low degree first, leading
    coefficient prime to p): 0 if x | f, and the others from
    g = gcd(f, x^p − x), split by gcd(g, (x + a)^((p−1)/2) − 1) with the
    shifts a = 0, 1, 2, … (Cantor and Zassenhaus, Math. Comp. 36, 1981).  A
    root r lands in that factor iff r + a is a nonzero square; for odd p, at
    least (p − 1)/2 of the shifts a < p part any two roots, and over GF(2) g
    has at most the root 1."""
    F, f = GF(p), _trim(f, p)
    roots = [0] if not f[0] else []
    while not f[0]:
        f = f[1:]
    if len(f) < 3:  # a constant, or one linear factor
        return roots + [-f[0] * pow(f[1], -1, p) % p for _ in f[1:]]
    xp = _poly_pow_mod([0, 1], p, f, F) + [0, 0]
    xp[1] -= 1  # x^p − x mod f
    stack = [(_poly_gcd(f, _trim(xp, p), F), 0)]
    while stack:
        g, a = stack.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2:
            h = _poly_pow_mod([a, 1], (p - 1) // 2, g, F) + [0]
            h[0] -= 1
            h = _poly_gcd(g, _trim(h, p), F)
            if 1 < len(h) < len(g):
                stack += [(h, a + 1), (_poly_divmod(g, h, F)[0], a + 1)]
            else:
                stack.append((g, a + 1))
    return roots


def _rational_roots(f):
    """The distinct rational roots of f (rational coefficients, low degree
    first).  Past the root 0, they are the roots of the squarefree part s,
    taken to integer coefficients, modulo the first odd prime p that keeps s
    squarefree with its degree, each lifted p-adically by Newton's step past
    2(|s_0| + 1)·|lc s|, rationally reconstructed (Wang, Guy and Davenport,
    SIGSAM Bull. 1982) and checked exactly.  A root a/b in lowest terms has
    |a| ≤ |s_0| and b ≤ |lc s|, so none is missed."""
    roots = [0] if not f[0] else []
    while not f[0]:
        f = f[1:]
    if len(f) < 3:  # a constant, or one linear factor
        return roots + [_normal(Fraction(-f[0], f[1])) for _ in f[1:]]
    df = [k * v for k, v in enumerate(f)][1:]
    s = _poly_divmod(f, _poly_gcd(f, df, QQ), QQ)[0]
    den = math.lcm(*(Fraction(v).denominator for v in s))
    s = [int(v * den) for v in s]
    ds = [k * v for k, v in enumerate(s)][1:]
    p = 3
    while not (s[-1] % p and len(_poly_gcd(s, _trim(ds, p), GF(p))) == 1):
        p = next(q for q in itertools.count(p + 2, 2) if _is_prime(q))

    def value(g, x, n):  # g(x) mod n, by Horner's rule
        out = 0
        for v in reversed(g):
            out = (out * x + v) % n
        return out

    for r in _roots_mod(s, p):
        n = p
        while n <= 2 * (abs(s[0]) + 1) * abs(s[-1]):
            n *= n
            r = (r - value(s, r, n) * pow(value(ds, r, n), -1, n)) % n
        r0, r1, t0, t1 = n, r, 0, 1  # extended Euclid until r1 ≤ |s_0|
        while r1 > abs(s[0]):
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        x = Fraction(r1, t1)
        if not sum(v * x ** k for k, v in enumerate(s)):
            roots.append(_normal(x))
    return roots


def _normal(x):
    """A rational as ``QQ`` keeps it: an int when integral."""
    return x.numerator if x.denominator == 1 else x


def _minimal_polynomial(space, products, unit, i):
    """The monic minimal polynomial of basis element i (low degree first) in
    the algebra given as in ``_characters``: the first power of e_i that
    ``membership`` finds in the span of the lower ones."""
    d, powers = space.dim, [Vector(space, unit)]
    while True:
        nxt = {}
        for a, x in powers[-1].entries.items():
            for r, v in products.get(a * d + i, ()):
                nxt[r] = nxt.get(r, 0) + x * v
        vec = Vector(space, nxt)
        inside, coeffs = membership(vec, powers)
        if inside:
            return tuple(-coeffs.get(j, 0) for j in range(len(powers))) + (1,)
        powers.append(vec)


def _characters(space, products, unit):
    """Every character, as a tuple of basis values, of the algebra on
    ``space`` whose product sends basis pair (i, j) to ``products[i·d + j]``
    (pairs (r, v)) and whose unit has the entries ``unit``.  χ(e_i) is a
    root of the minimal polynomial of e_i, so a depth-first walk gives each
    index one of those roots, in the order 0, 1, −1, then the other roots
    ascending, and checks χ(1) = 1 and each χ(e_i e_j) = χ(e_i)χ(e_j) as
    soon as every index it reads is assigned.  The list is lexicographic in
    that value order, so the characters with values in {0, 1, −1} come in
    ``itertools.product`` order."""
    field, d = space.field, space.dim
    p = field.modulus
    rank = {v: k for k, v in enumerate(dict.fromkeys((0, 1, field.from_int(-1))))}
    roots_of, candidates = {}, []
    for i in range(d):
        m = _minimal_polynomial(space, products, unit, i)
        if m not in roots_of:
            roots = _roots_mod(m, p) if p else _rational_roots(m)
            roots_of[m] = sorted(roots, key=lambda v: (rank.get(v, 3), v))
        candidates.append(roots_of[m])
    checks = [[] for _ in range(d)]  # each at the largest index it reads
    checks[max(unit)].append((list(unit.items()), None, None))
    for i in range(d):
        for j in range(d):
            terms = products.get(i * d + j, ())
            checks[max(i, j, *(r for r, _ in terms))].append((terms, i, j))
    out, values = [], [None] * d

    def walk(k):
        for x in candidates[k]:
            values[k] = x
            for terms, i, j in checks[k]:
                miss = sum(v * values[r] for r, v in terms) - (
                    1 if i is None else values[i] * values[j])
                if miss % p if p else miss:
                    break
            else:
                if k + 1 < d:
                    walk(k + 1)
                else:
                    out.append(tuple(values))

    walk(0)
    return out


def enumerate_characters(H):
    """Every character of H, in the order of ``_characters``: exact and
    complete over ℚ and GF(p) at any dimension.  The zoo's characters are
    ±1-valued on group elements and 0/1-valued on the idempotents of function
    algebras, except where the field holds more roots of unity: over GF(7),
    k[Z3] also has t ↦ 2 and t ↦ 4."""
    return [Character.from_values(H, list(values), name=_char_name(H, values))
            for values in _characters(H.space, H.mult.by_col(), H.unit.entries)]


def _char_name(H, combo):
    parts = []
    for i, v in enumerate(combo):
        if v != H.field.one:
            parts.append("%s↦%s" % (H.space.labels[i], H.field.format(v)))
    return "ε" if not parts else "δ[%s]" % ",".join(parts)


def _dual_product_and_unit(H):
    """The product and unit of H*, whose characters are the group-likes of H,
    as ``_characters`` takes them: Δ's entries grouped by row (the columns of
    Δᵀ) and ε's entries.  The algebra of ``predual(H)``, read without
    building the predual."""
    products = {}
    for (r, c), v in H.comult.entries.items():
        products.setdefault(r, []).append((c, v))
    return products, {c: v for (_, c), v in H.counit.entries.items()}


def enumerate_group_likes(H):
    """Every group-like of H, found as the characters of H* (product Δᵀ,
    unit ε) in the order of ``_characters``: the group elements of k[G], the
    multiplicative characters inside k^G (over GF(7), k^Z3 has three), and
    the bismash group-likes."""
    out = []
    for values in _characters(H.space, *_dual_product_and_unit(H)):
        vec = Vector(H.space, {i: v for i, v in enumerate(values) if v})
        out.append(GroupLike(H, vec, name=vec.describe()))
    return out

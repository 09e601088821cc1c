"""Quantum symmetries and the coefficient-condition decision procedures.

Carriers: comodule algebras (either side), comodule coalgebras (right),
module algebras (left).  Coefficients: module-comodules with a right action
and a left coaction, with no compatibility assumed; compatibility is exactly
what the checkers decide.  Every failing verdict carries a basis witness
whose two sides were evaluated independently.

Each coefficient subspace is the equalizer of two stated maps, solved by
``_equalizer`` from their entries; the cotensor chains of a comodule
coalgebra C are the colinear maps over its dual algebra (``dual_carrier``).
Each carrier condition is an identity between two tensor pipelines; the
four coaction (co)commutativity checks build theirs with
``_products_agree``.  Each coefficient identity is written once, as a map
on H⊗M or M: the action (``_acting``), the AYD sides L, R
(``_ayd_sides``), L − R (``_ayd_difference``) and s_M (``_stability``).
All but the pair (L, R) are kept on M (``_memo``); the pair is built where
it is read, by the classical check and a failing witness.  The
carrier-SAYD check over an algebra walks the colinear cochains' hom
coordinates through them, with the bent coaction kept on the carrier
(``_diag``).  There too are the diagonal coactions λ_diag by degree:
structure maps, so each degree is one closed-form loop over the degree
below, λ and H's product, while ``Chain`` stays for operators on cochains.
"""

from __future__ import annotations

from .fields import QQ
from .hopf import (
    Character,
    GroupLike,
    StructureError,
    _multiplication,
    algebra_axioms,
    check_modular_pair,
    co_opposite,
    coalgebra_axioms,
    comodule_axioms,
    conjugation,
    module_axioms,
    predual,
    twisted_antipode,
    unit_map,
)
from .linalg import (
    Chain,
    LinMap,
    Space,
    Subspace,
    Vector,
    _null_vectors,
    hom_space,
    identity,
    kernel_basis,
    leg_permutation,
    tensor_power,
    tensor_space,
    tensor_vectors,
    unit_space,
)
from . import results
from .results import CheckResult, compare


class ComoduleAlgebra:
    """An algebra with an H-coaction that is an algebra map.

    side="left":  coaction A → H⊗A;  side="right": coaction A → A⊗H.
    """

    def __init__(self, hopf, space, mult, unit, coaction, side="left", name="A", validate=True):
        self.hopf = hopf
        self.space = space
        self.mult = mult
        self.unit = unit
        self.coaction = coaction
        self.side = side
        self.name = name
        # diag_left_coaction by degree k, and the bent coaction (_bent_coaction)
        self._diag = {}
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if validate:
            check = self.verify()
            if not check:
                raise StructureError(check)

    @property
    def dim(self):
        return self.space.dim

    def unit_map(self):
        return unit_map(self.unit)

    def left_coaction(self):
        """The coaction in A → H⊗A form (flip a right coaction)."""
        if self.side == "left":
            return self.coaction
        return leg_permutation([self.space, self.hopf.space], [1, 0]) @ self.coaction

    def verify(self):
        A, H, Hs = self.space, self.hopf, self.hopf.space
        checks = algebra_axioms(A, self.mult, self.unit, (
            "algebra-associativity", "algebra-left-unit", "algebra-right-unit"))
        checks += comodule_axioms(A, self.coaction, H, self.side)
        # the coaction's codomain legs in order (H then A, or A then H), each
        # with its product and unit
        factors = [(Hs, H.mult, H.unit), (A, self.mult, self.unit)]
        if self.side == "right":
            factors.reverse()
        cod = [S for S, _, _ in factors]
        mult_co = Chain([A, A]).apply(self.mult, 0, 2, [A]).apply(self.coaction, 0, 1, cod).to_map()
        co_mult = (Chain([A, A]).apply(self.coaction, 0, 1, cod)
                   .apply(self.coaction, 2, 1, cod).permute([0, 2, 1, 3]))
        units = Chain([], field=A.field)
        for at, (S, mult, unit) in enumerate(factors):
            co_mult.apply(mult, at, 2, [S])
            units.apply(unit_map(unit), at, 0, [S])
        checks.append(compare("coaction-multiplicative", mult_co, co_mult.to_map(),
                              tensor_space(A, A).label))
        co_unit = self.coaction.apply(self.unit)
        expected = units.to_map().column(0)
        if co_unit == expected:
            checks.append(results.passed("coaction-unital"))
        else:
            checks.append(results.failed("coaction-unital", "1", co_unit, expected))
        return results.merge("comodule-algebra", checks)

    def __repr__(self):
        return "ComoduleAlgebra(%s over %s, dim=%d, %s)" % (
            self.name, self.hopf.name, self.dim, self.side)


class ComoduleCoalgebra:
    """A coalgebra with a right H-coaction under which Δ and ε are colinear."""

    def __init__(self, hopf, space, comult, counit, coaction, name="C", validate=True):
        self.hopf = hopf
        self.space = space
        self.comult = comult
        self.counit = counit
        self.coaction = coaction
        self.name = name
        self._memo = {}  # "dual": the dual algebra C* (dual_carrier)
        if validate:
            check = self.verify()
            if not check:
                raise StructureError(check)

    @property
    def dim(self):
        return self.space.dim

    def verify(self):
        C, H, Hs = self.space, self.hopf, self.hopf.space
        checks = coalgebra_axioms(C, self.comult, self.counit, (
            "coalgebra-coassociativity", "coalgebra-left-counit", "coalgebra-right-counit"))
        checks += comodule_axioms(C, self.coaction, H, "right")

        # Δ colinear: c⁽¹⁾⟨0⟩ ⊗ c⁽²⁾⟨0⟩ ⊗ c⁽¹⁾⟨1⟩c⁽²⁾⟨1⟩ = Δ(c⟨0⟩) ⊗ c⟨1⟩
        lhs = (
            Chain([C])
            .apply(self.comult, 0, 1, [C, C])
            .apply(self.coaction, 0, 1, [C, Hs])
            .apply(self.coaction, 2, 1, [C, Hs])
            .permute([0, 2, 1, 3])
            .apply(H.mult, 2, 2, [Hs])
            .to_map()
        )
        rhs = (
            Chain([C])
            .apply(self.coaction, 0, 1, [C, Hs])
            .apply(self.comult, 0, 1, [C, C])
            .to_map()
        )
        checks.append(compare("comult-colinear", lhs, rhs, C.label))
        # ε colinear: ε(c⟨0⟩)c⟨1⟩ = ε(c)1
        lhs_e = (
            Chain([C]).apply(self.coaction, 0, 1, [C, Hs]).apply(self.counit, 0, 1, []).to_map()
        )
        rhs_e = (
            Chain([C]).apply(self.counit, 0, 1, []).apply(H.unit_map(), 0, 0, [Hs]).to_map()
        )
        checks.append(compare("counit-colinear", lhs_e, rhs_e, C.label))
        return results.merge("comodule-coalgebra", checks)

    def __repr__(self):
        return "ComoduleCoalgebra(%s over %s, dim=%d)" % (self.name, self.hopf.name, self.dim)


class ModuleAlgebra:
    """An algebra with a left H-action: h▷(ab) = (h⁽¹⁾▷a)(h⁽²⁾▷b), h▷1 = ε(h)1."""

    def __init__(self, hopf, space, mult, unit, action, name="A", validate=True):
        self.hopf = hopf
        self.space = space
        self.mult = mult
        self.unit = unit
        self.action = action  # H⊗A → A
        self.name = name
        self._memo = {}  # "predual": the carrier over the predual (predual_carrier)
        if validate:
            check = self.verify()
            if not check:
                raise StructureError(check)

    @property
    def dim(self):
        return self.space.dim

    def unit_map(self):
        return unit_map(self.unit)

    def verify(self):
        A, H, Hs = self.space, self.hopf, self.hopf.space
        checks = algebra_axioms(A, self.mult, self.unit, (
            "algebra-associativity", "algebra-unit", "algebra-right-unit"))
        checks += module_axioms(A, self.action, H, "left")
        lhs = Chain([Hs, A, A]).apply(self.mult, 1, 2, [A]).apply(self.action, 0, 2, [A]).to_map()
        rhs = (
            Chain([Hs, A, A])
            .apply(H.comult, 0, 1, [Hs, Hs])
            .permute([0, 2, 1, 3])
            .apply(self.action, 0, 2, [A])
            .apply(self.action, 1, 2, [A])
            .apply(self.mult, 0, 2, [A])
            .to_map()
        )
        checks.append(compare("action-multiplicative", lhs, rhs, tensor_space(Hs, A, A).label))
        lhs_u = Chain([Hs]).apply(self.unit_map(), 1, 0, [A]).apply(self.action, 0, 2, [A]).to_map()
        rhs_u = Chain([Hs]).apply(H.counit, 0, 1, []).apply(self.unit_map(), 0, 0, [A]).to_map()
        checks.append(compare("action-unital", lhs_u, rhs_u, Hs.label))
        return results.merge("module-algebra", checks)

    def __repr__(self):
        return "ModuleAlgebra(%s over %s, dim=%d)" % (self.name, self.hopf.name, self.dim)


class ModuleComodule:
    """Coefficient candidate: right H-action M⊗H→M and left H-coaction M→H⊗M.

    Only the separate module and comodule axioms are enforced here; the
    compatibility conditions are what the checkers decide.
    """

    def __init__(self, hopf, space, action, coaction, name="M", validate=True):
        self.hopf = hopf
        self.space = space
        self.action = action
        self.coaction = coaction
        self.name = name
        # maps built once and kept: on H⊗M "act" h⊗m ↦ m◁h (_acting) and
        # "ayd" L − R of the AYD sides (_ayd_difference); on M "stab"
        # m ↦ m⟨0⟩◁m⟨−1⟩ (_stability); and
        # "predual" the coefficient over the predual (predual_coefficient)
        self._memo = {}
        if validate:
            check = self.verify()
            if not check:
                raise StructureError(check)

    @property
    def dim(self):
        return self.space.dim

    def verify(self):
        checks = module_axioms(self.space, self.action, self.hopf, "right")
        checks += comodule_axioms(self.space, self.coaction, self.hopf, "left")
        return results.merge("module-comodule", checks)

    def __repr__(self):
        return "ModuleComodule(%s over %s, dim=%d)" % (self.name, self.hopf.name, self.dim)


# ---------------------------------------------------------------------------
# standard constructions
# ---------------------------------------------------------------------------


def regular_comodule_algebra(H):
    """A = H with the comultiplication as a left coaction."""
    return ComoduleAlgebra(H, H.space, H.mult, H.unit, H.comult, side="left",
                           name="%s(reg)" % H.name)


def trivial_comodule_algebra(H, side="left"):
    """A = k with the trivial coaction 1 ↦ 1⊗1."""
    field = H.field
    A = Space(("1a",), field)
    one = field.one
    mult = LinMap(tensor_space(A, A), A, {(0, 0): one})
    unit = Vector(A, {0: one})
    if side == "left":
        coaction = LinMap(A, tensor_space(H.space, A),
                          {(i, 0): v for i, v in H.unit.entries.items()})
    else:
        coaction = LinMap(A, tensor_space(A, H.space),
                          {(i, 0): v for i, v in H.unit.entries.items()})
    return ComoduleAlgebra(H, A, mult, unit, coaction, side=side, name="k(triv)")


def adjoint_comodule_coalgebra(H):
    """C = H with the right adjoint coaction c ↦ c⁽²⁾ ⊗ S(c⁽¹⁾)c⁽³⁾, the
    standard comodule-coalgebra structure on H itself.  (The comultiplication
    alone is a comodule structure on H but is not colinear for Δ, so it does
    not qualify here.)"""
    Hs = H.space
    coact = (
        Chain([Hs])
        .apply(H.iterated_comult(2), 0, 1, [Hs, Hs, Hs])
        .permute([1, 0, 2])
        .apply(H.antipode, 1, 1, [Hs])
        .apply(H.mult, 1, 2, [Hs])
        .to_map()
    )
    return ComoduleCoalgebra(H, Hs, H.comult, H.counit, coact, name="%s(adj)" % H.name)


def comult_comodule_coalgebra(H):
    """C = H carrying the comultiplication as a right coaction.  This is a
    comodule (coassociativity) but not a comodule coalgebra, so the object is
    built unvalidated; use it only where the coalgebra-colinearity axioms are
    not consumed (cotensor chains, involution conditions)."""
    return ComoduleCoalgebra(
        H, H.space, H.comult, H.counit, H.comult, name="%s(Δ)" % H.name, validate=False
    )


def trivial_comodule_coalgebra(H):
    field = H.field
    C = Space(("1c",), field)
    one = field.one
    comult = LinMap(C, tensor_space(C, C), {(0, 0): one})
    counit = LinMap(C, unit_space(field), {(0, 0): one})
    coaction = LinMap(C, tensor_space(C, H.space),
                      {(i, 0): v for i, v in H.unit.entries.items()})
    return ComoduleCoalgebra(H, C, comult, counit, coaction, name="k(triv)")


def as_left_comodule_algebra(A, hopf_cop=None):
    """Convert a right H-comodule algebra into a left comodule algebra over
    H^cop by flipping the coaction legs."""
    if A.side != "right":
        raise ValueError("expected a right comodule algebra")
    Hcop = hopf_cop if hopf_cop is not None else co_opposite(A.hopf)
    flip = leg_permutation([A.space, A.hopf.space], [1, 0])
    return ComoduleAlgebra(Hcop, A.space, A.mult, A.unit, flip @ A.coaction,
                           side="left", name=A.name + "(left)")


def as_right_comodule_algebra(A, hopf_cop=None):
    """Convert a left H-comodule algebra into a right one over H^cop."""
    if A.side != "left":
        raise ValueError("expected a left comodule algebra")
    Hcop = hopf_cop if hopf_cop is not None else co_opposite(A.hopf)
    flip = leg_permutation([A.hopf.space, A.space], [1, 0])
    return ComoduleAlgebra(Hcop, A.space, A.mult, A.unit, flip @ A.coaction,
                           side="right", name=A.name + "(right)")


def predual_carrier(A: ModuleAlgebra) -> ComoduleAlgebra:
    """A as a left comodule algebra over K = predual(H), a ↦ Σ_i e_i° ⊗ e_i▷a
    (Montgomery, CBMS 82, ch. 1); its diagonal coaction is
    ã ↦ Σ_h e_h° ⊗ h⁽¹⁾▷a₀ ⊗ … ⊗ h⁽ⁿ⁺¹⁾▷aₙ.  Built unvalidated, kept on A."""
    if "predual" not in A._memo:
        K, As = predual(A.hopf), A.space
        coaction = {(i * As.dim + r, a): v for (r, c), v in A.action.entries.items()
                    for i, a in (divmod(c, As.dim),)}
        A._memo["predual"] = ComoduleAlgebra(
            K, As, A.mult, A.unit, LinMap(As, tensor_space(K.space, As), coaction),
            name=A.name, validate=False)
    return A._memo["predual"]


def dual_carrier(C: ComoduleCoalgebra) -> ComoduleAlgebra:
    """C* as a left H-comodule algebra on C's own Space: product Δᵀ, unit ε,
    coaction ⟨f⟨−1⟩ ⊗ f⟨0⟩, c⟩ = f(c⟨0⟩)c⟨1⟩ (Montgomery, CBMS 82, ch. 1).  Its
    colinear maps (C*)^{⊗(n+1)} → M are C^{⊗(n+1)} □_H M.  Built unvalidated,
    kept on C."""
    if "dual" not in C._memo:
        Cs, d = C.space, C.hopf.dim
        mult = {(c, r): v for (r, c), v in C.comult.entries.items()}
        coaction = {(h * Cs.dim + c, i): v for (r, c), v in C.coaction.entries.items()
                    for i, h in (divmod(r, d),)}
        C._memo["dual"] = ComoduleAlgebra(
            C.hopf, Cs, LinMap(tensor_space(Cs, Cs), Cs, mult),
            Vector(Cs, {c: v for (_, c), v in C.counit.entries.items()}),
            LinMap(Cs, tensor_space(C.hopf.space, Cs), coaction), name=C.name, validate=False)
    return C._memo["dual"]


def predual_coefficient(M: ModuleComodule) -> ModuleComodule:
    """M* in M's coordinates over K = predual(H): coaction μ ↦ Σ_i e_i° ⊗
    μ(−◁e_i), action μ◁ξ = ξ(S⁻¹(m⟨−1⟩))·μ(m⟨0⟩).  A colinear f: A^{⊗(n+1)} → M*
    is a functional with f(m◁h ⊗ ã) = f(m ⊗ h▷ã), an H-invariant one, and
    acting by a_n⟨−1⟩ feeds S⁻¹(m⟨−1⟩)▷a_n to it.  Built unvalidated, kept on M."""
    if "predual" not in M._memo:
        H, Ms = M.hopf, M.space
        K, d, md = predual(H), H.dim, Ms.dim
        s_inv, action = H.antipode_inverse().by_col(), {}
        for (r, m), v in M.coaction.entries.items():  # (S⁻¹⊗id)∘λ_M, bent
            h, p = divmod(r, md)
            for i, w in s_inv.get(h, ()):
                action[(m, p * d + i)] = action.get((m, p * d + i), 0) + w * v
        coaction = {(i * md + m, r): v for (r, c), v in M.action.entries.items()
                    for m, i in (divmod(c, d),)}
        M._memo["predual"] = ModuleComodule(
            K, Ms, LinMap(tensor_space(Ms, K.space), Ms, action),
            LinMap(Ms, tensor_space(K.space, Ms), coaction), name=M.name, validate=False)
    return M._memo["predual"]


def scalar_coefficients(H, delta: Character, sigma: GroupLike, name=None):
    """The one-dimensional coefficient with m◁h = δ(h)m and coaction 1 ↦ σ⊗1.

    Requires (δ, σ) to be a modular pair (δ(σ)=1)."""
    check = check_modular_pair(H, delta, sigma)
    if not check:
        raise StructureError(check)
    field = H.field
    M = Space(("m",), field)
    action = LinMap(
        tensor_space(M, H.space), M,
        {(0, c): v for (_, c), v in delta.delta.entries.items()},
    )
    coaction = LinMap(
        M, tensor_space(H.space, M), {(i, 0): v for i, v in sigma.sigma.entries.items()}
    )
    return ModuleComodule(H, M, action, coaction,
                          name=name or "^%sC_%s" % (sigma.name, delta.name))


def trivial_action_comodule(H, coaction, space=None, name="M(triv-act)"):
    """Comodule with the trivial action m◁h = ε(h)m."""
    M = space if space is not None else coaction.domain
    action = Chain([M, H.space]).apply(H.counit, 1, 1, []).to_map()
    return ModuleComodule(H, M, action, coaction, name=name)


def trivial_coaction_module(H, action, space=None, name="M(triv-coact)"):
    """Module with the trivial coaction m ↦ 1⊗m."""
    M = space if space is not None else action.codomain
    coaction = Chain([M]).apply(H.unit_map(), 0, 0, [H.space]).to_map()
    return ModuleComodule(H, M, action, coaction, name=name)


def trivial_module_algebra(H):
    """A = k with action h▷1 = ε(h)1."""
    field = H.field
    A = Space(("1a",), field)
    one = field.one
    mult = LinMap(tensor_space(A, A), A, {(0, 0): one})
    unit = Vector(A, {0: one})
    action = Chain([H.space, A]).permute([1, 0]).apply(H.counit, 1, 1, []).to_map()
    return ModuleAlgebra(H, A, mult, unit, action, name="k(triv)")


def translation_module_algebra(group, field=QQ):
    """The function algebra on a group as a module algebra over the group
    algebra, acting by translation g▷e_f = e_{gf}.  Returns (k[G], A)."""
    from .hopf import function_hopf, group_algebra

    H = group_algebra(group, field)
    F = function_hopf(group, field)
    n = group.order
    entries = {
        (group.mul(g, f), g * n + f): field.one
        for g in range(n)
        for f in range(n)
    }
    action = LinMap(tensor_space(H.space, F.space), F.space, entries)
    return H, ModuleAlgebra(H, F.space, F.mult, F.unit, action,
                            name="k^%s(transl)" % group.name)


def adjoint_module_algebra(H):
    """A = H with the adjoint action h▷a = h⁽¹⁾ a S(h⁽²⁾)."""
    Hs = H.space
    action = (
        Chain([Hs, Hs])
        .apply(H.comult, 0, 1, [Hs, Hs])
        .permute([0, 2, 1])
        .apply(H.antipode, 2, 1, [Hs])
        .apply(H.mult, 1, 2, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .to_map()
    )
    return ModuleAlgebra(H, Hs, H.mult, H.unit, action, name="%s(adjoint)" % H.name)


def algebra_over_trivial_hopf(space, mult, unit, trivial, name="A"):
    """Wrap a bare algebra as a module algebra over the trivial Hopf algebra
    (the classical, symmetry-free case)."""
    action = LinMap(
        tensor_space(trivial.space, space), space,
        {(a, a): space.field.one for a in range(space.dim)},
    )
    return ModuleAlgebra(trivial, space, mult, unit, action, name=name)


def comodule_algebra_over_trivial_hopf(space, mult, unit, trivial, name="B"):
    """Wrap a bare algebra as a left comodule algebra over the trivial Hopf
    algebra (trivial coaction)."""
    coaction = LinMap(
        space, tensor_space(trivial.space, space),
        {(a, a): space.field.one for a in range(space.dim)},
    )
    return ComoduleAlgebra(trivial, space, mult, unit, coaction, side="left", name=name)


def regular_coaction_trivial_action(H):
    """M = H as a left comodule via Δ, with the trivial action."""
    return trivial_action_comodule(H, H.comult, space=H.space,
                                   name="%s(Δ,triv)" % H.name)


def regular_action_trivial_coaction(H):
    """M = H as a right module via multiplication, with the trivial coaction."""
    return trivial_coaction_module(H, H.mult, space=H.space,
                                   name="%s(mult,triv)" % H.name)


# ---------------------------------------------------------------------------
# diagonal coactions and subspace computations
# ---------------------------------------------------------------------------


def diag_left_coaction(A: ComoduleAlgebra, k):
    """A^{⊗k} → H ⊗ A^{⊗k}: ã ↦ a₀⟨−1⟩⋯a_{k−1}⟨−1⟩ ⊗ ã⟨0⟩, built once per
    degree and kept on A.  Degree 0 is H's unit.  Degree k is one loop over
    the columns a⊗c̃: each entry h₁⊗a′ of λ(a) meets each entry h₂⊗b̃ of the
    kept degree-(k−1) column c̃ and adds H's product column h₁⊗h₂ at
    h⊗a′⊗b̃; the constructor drops what cancels.  A structure map, written
    in closed form as H's are, not an operator on cochains: no ``Chain``."""
    if k == 0:
        return A._diag.setdefault(0, A.hopf.unit_map())
    if k not in A._diag:
        H, As, prev = A.hopf, A.space, diag_left_coaction(A, k - 1)
        Adim, Hdim, rest = As.dim, H.dim, prev.domain.dim
        mult, kept, entries = H.mult.by_col(), prev.by_col(), {}
        for a, coact in A.left_coaction().by_col().items():
            for c, col in kept.items():
                src = a * rest + c
                for r1, v1 in coact:
                    h1, a1 = divmod(r1, Adim)
                    for r2, v2 in col:
                        h2, b = divmod(r2, rest)
                        for h, w in mult.get(h1 * Hdim + h2, ()):
                            key = ((h * Adim + a1) * rest + b, src)
                            entries[key] = entries.get(key, 0) + v1 * v2 * w
        A._diag[k] = LinMap(tensor_space(*[As] * k), tensor_space(H.space, *[As] * k), entries)
    return A._diag[k]


class DegreeCapError(ValueError):
    """A subspace computation would exceed the configured size cap."""


# unknowns allowed in one colinearity system; cost grows as
# dim(carrier)^(n+1)·dim(M), so this keeps runs desk-scale
SIZE_CAP = 200_000


def _check_size_cap(size, what):
    if size > SIZE_CAP:
        raise DegreeCapError(
            "%s needs %d unknowns, above the configured cap %d" % (what, size, SIZE_CAP))


def _equalizer(ambient, alpha, beta):
    """Canonical basis of {x ∈ ambient : α(x) = β(x)} for two maps out of
    ``ambient`` into one space: ``alpha`` is α's rows filed as
    ``{row: {col: v}}`` (fresh dicts, which this consumes) and ``beta`` is
    β's ``(row, col, v)`` entries.  β's entries are subtracted in place, and
    each nonzero row of α − β is one constraint."""
    rows = alpha
    for r, c, v in beta:
        row = rows.setdefault(r, {})
        w = row.get(c, 0) - v
        if w:
            row[c] = w
        else:
            del row[c]
    return _null_vectors([rows[r] for r in sorted(rows) if rows[r]], ambient)


def colinear_hom_space(A: ComoduleAlgebra, M: ModuleComodule, n, value_last=False) -> Subspace:
    """Exact basis of the left-colinear maps A^{⊗(n+1)} → M: the equalizer
    of f ↦ λ_M∘f and f ↦ (id_H⊗f)∘λ_diag, maps A^{⊗(n+1)} → H⊗M, over
    M⊗A^{⊗(n+1)}, or A^{⊗(n+1)}⊗M with ``value_last``: over A = C*
    (``dual_carrier``) that is C^{⊗(n+1)} □_H M in its coordinates c̃⊗m."""
    if A.side != "left":
        raise ValueError("colinear hom spaces need a left comodule algebra")
    dom = tensor_power(A.space, n + 1)
    _check_size_cap(dom.dim * M.dim, "%s at degree %d" % (
        "cotensor space" if value_last else "colinear hom space", n))
    Adim, Mdim = dom.dim, M.dim
    HM = M.hopf.space.dim * Mdim
    # the entry of H⊗M at row r and input a is constraint row a·dim(H⊗M) + r;
    # unknown f(a)_m is column m·dim A^{⊗(n+1)} + a, or a·dim M + m value last
    ms, as_ = (1, Mdim) if value_last else (Adim, 1)
    alpha = {}
    for (r, mp), v in M.coaction.entries.items():
        for a in range(Adim):
            alpha.setdefault(a * HM + r, {})[mp * ms + a * as_] = v
    beta = ((a * HM + h * Mdim + m, m * ms + b * as_, v)
            for (r, a), v in diag_left_coaction(A, n + 1).entries.items()
            for h, b in (divmod(r, Adim),) for m in range(Mdim))
    if value_last:
        ambient = tensor_space(*([A.space] * (n + 1) + [M.space]))
        return Subspace(ambient, _equalizer(ambient, alpha, beta))
    ambient = hom_space(dom, M.space)
    return Subspace(ambient, _equalizer(ambient, alpha, beta), dom, M.space)


# ---------------------------------------------------------------------------
# coefficient-condition checkers
# ---------------------------------------------------------------------------


def check_sayd(M: ModuleComodule) -> CheckResult:
    """Classical stability and anti-Yetter-Drinfeld compatibility:
    coaction(m◁h) = S(h⁽³⁾)m⟨−1⟩h⁽¹⁾ ⊗ m⟨0⟩◁h⁽²⁾  and  m⟨0⟩◁m⟨−1⟩ = m."""
    Hs, Ms = M.hopf.space, M.space
    flip = leg_permutation([Ms, Hs], [1, 0])
    lhs, rhs = (side @ flip for side in _ayd_sides(M))
    ayd = compare("anti-yetter-drinfeld", lhs, rhs, tensor_space(Ms, Hs).label)
    if not ayd:
        return ayd
    res = compare("stability", _stability(M), identity(Ms), Ms.label)
    if not res:
        return res
    return results.passed("sayd", detail=M.name)


def _stability(M):
    """s_M: m ↦ m⟨0⟩◁m⟨−1⟩ on M, built once and kept on M."""
    if "stab" not in M._memo:
        Hs, Ms = M.hopf.space, M.space
        M._memo["stab"] = (Chain([Ms]).apply(M.coaction, 0, 1, [Hs, Ms]).permute([1, 0])
                           .apply(M.action, 0, 2, [Ms]).to_map())
    return M._memo["stab"]


def _acting(M):
    """h⊗m ↦ m◁h on H⊗M, the map that acts on a cochain's value, built once
    and kept on M."""
    if "act" not in M._memo:
        M._memo["act"] = (Chain([M.hopf.space, M.space]).permute([1, 0])
                          .apply(M.action, 0, 2, [M.space]).to_map())
    return M._memo["act"]


def _ayd_sides(M):
    """The two sides of the AYD identity as maps on H⊗M: L, h⊗m ↦ λ_M(m◁h),
    and R, h⊗m ↦ S(h⁽³⁾)m⟨−1⟩h⁽¹⁾ ⊗ m⟨0⟩◁h⁽²⁾.  They depend on neither the
    degree nor the carrier; only their difference is kept on M."""
    H, Hs, Ms = M.hopf, M.hopf.space, M.space
    lhs = (Chain([Hs, Ms]).permute([1, 0]).apply(M.action, 0, 2, [Ms])
           .apply(M.coaction, 0, 1, [Hs, Ms]))
    rhs = (Chain([Hs, Ms]).apply(H.iterated_comult(2), 0, 1, [Hs] * 3)
           .apply(M.coaction, 3, 1, [Hs, Ms]).permute([2, 3, 0, 4, 1])
           .apply(H.antipode, 0, 1, [Hs]).apply(H.mult, 0, 2, [Hs])
           .apply(H.mult, 0, 2, [Hs]).apply(M.action, 1, 2, [Ms]))
    return lhs.to_map(), rhs.to_map()


def _ayd_difference(M):
    """L − R on H⊗M, built once and kept on M: by linearity the two AYD
    sides of a cochain φ differ by the one walk of φ through it."""
    if "ayd" not in M._memo:
        lhs, rhs = _ayd_sides(M)
        M._memo["ayd"] = lhs - rhs
    return M._memo["ayd"]


def _bent_coaction(A):
    """A → H⊗A with entry (h⊗a, a′) = λ(a)[h⊗a′], built once and kept on A:
    a cochain's first input leg walked through it gives (id_H⊗φ)∘(λ⊗id)."""
    if "bent" not in A._diag:
        Adim = A.dim
        A._diag["bent"] = LinMap(A.space, tensor_space(A.hopf.space, A.space), {
            (h * Adim + a, b): v
            for (r, a), v in A.left_coaction().entries.items() for h, b in (divmod(r, Adim),)})
    return A._diag["bent"]


def _carrier_ayd(A, M, n, suffix):
    """φ ↦ suffix∘(id_H⊗φ)∘(coaction⊗id) at degree n, a walk of φ's hom
    coordinates: the first input leg through ``_bent_coaction``, H moved to
    the front, then ``suffix`` on H⊗M."""
    Hs, Ms, As = A.hopf.space, M.space, A.space
    return (Chain([Ms] + [As] * (n + 1)).apply(_bent_coaction(A), 1, 1, [Hs, As])
            .permute([1, 0] + list(range(2, n + 3))).apply(suffix, 0, 2, [Hs, Ms]))


def _carrier_stability(A, M, n):
    """φ ↦ s_M∘φ at degree n, one step of s_M on the value leg of φ's hom
    coordinates.  On a colinear φ, λ_M∘φ = (id_H⊗φ)∘λ_diag, so this is the
    stability map φ ↦ act∘(id_H⊗φ)∘λ_diag."""
    Ms = M.space
    return Chain([Ms] + [A.space] * (n + 1)).apply(_stability(M), 0, 1, [Ms])


def check_sayd_over_algebra(A: ComoduleAlgebra, M: ModuleComodule, n_max=2) -> CheckResult:
    """Carrier-relative SAYD test through the colinear cochains on A.

    For each degree n ≤ n_max and every basis element φ of the colinear hom
    space: (i) the AYD identity after multiplying the first coaction leg into
    the value of φ, and (ii) stability φ(ã⟨0⟩)◁ã⟨−1⟩ = φ(ã).  The whole
    basis is walked once through the difference of the AYD sides and once
    through s_M on the value (``_carrier_stability``); the two AYD sides are
    walked apart only for the first failing φ, for its witness."""
    verdicts = []
    for n in range(n_max + 1):
        sub = colinear_hom_space(A, M, n)
        dims_note = "n=%d, dim=%d" % (n, sub.dim)
        if sub.dim:
            cols = [v.entries for v in sub.basis]
            ayd = _carrier_ayd(A, M, n, _ayd_difference(M)).images(cols)
            stab = _carrier_stability(A, M, n).images(cols)
        for k, vec in enumerate(sub.basis):
            if not ayd[k] and stab[k] == vec.entries:
                continue
            # only a failing φ is turned into maps, for the witness
            phi = sub.map(vec)

            def at(col):
                return "n=%d, φ_%d, input %s" % (n, k, phi.domain.label(col))

            HM, ddim, sides = tensor_space(A.hopf.space, M.space), phi.domain.dim, []
            for side in _ayd_sides(M):
                image = _carrier_ayd(A, M, n, side).images([vec.entries])[0]
                sides.append(LinMap(phi.domain, HM, {divmod(i, ddim): v for i, v in image.items()}))
            res = compare("carrier-ayd-algebra", *sides, at, detail=dims_note)
            if res:
                res = compare("carrier-stability-algebra", _stability(M) @ phi, phi,
                              at, detail=dims_note)
            return res
        verdicts.append(dims_note)
    return results.passed("sayd-over-algebra", detail="; ".join(verdicts))


def check_sayd_over_coalgebra(C: ComoduleCoalgebra, M: ModuleComodule, n_max=2) -> CheckResult:
    """Carrier-relative SAYD test through the cotensor chains on C.

    (i) c⟨0⟩ ⊗ coaction(m◁c⟨1⟩) = c⟨0⟩ ⊗ S(c⟨1⟩⁽³⁾)m⟨−1⟩c⟨1⟩⁽¹⁾ ⊗ m⟨0⟩◁c⟨1⟩⁽²⁾;
    (ii) on every basis element w of the cotensor space (over C*), acting by
    the diagonal right-coaction leg fixes the element: w⟨0⟩◁w⟨1⟩ = w.  On the
    cotensor space ρ_diag ⊗ id = id ⊗ λ_M, so this is (id ⊗ s_M)(w) = w with
    s_M(m) = m⟨0⟩◁m⟨−1⟩ kept on M, one walk from the whole basis per degree.
    (i) is tested as one walk of c⊗m ↦ c⟨0⟩ ⊗ (L − R)(c⟨1⟩⊗m), with the AYD
    difference kept on M; its two sides are walked apart only if it fails,
    for the witness."""
    Hs, Ms, Cs = C.hopf.space, M.space, C.space
    if (Chain([Cs, Ms]).apply(C.coaction, 0, 1, [Cs, Hs])
            .apply(_ayd_difference(M), 1, 2, [Hs, Ms]).entries()):
        lhs, rhs = (Chain([Cs, Ms]).apply(C.coaction, 0, 1, [Cs, Hs])
                    .apply(side, 1, 2, [Hs, Ms]).to_map() for side in _ayd_sides(M))
        return compare("carrier-ayd-coalgebra", lhs, rhs, tensor_space(Cs, Ms).label)
    dims_notes, A = [], dual_carrier(C)
    for n in range(n_max + 1):
        sub = colinear_hom_space(A, M, n, True)
        dims_notes.append("n=%d, dim=%d" % (n, sub.dim))
        chain = Chain([Cs] * (n + 1) + [Ms]).apply(_stability(M), n + 1, 1, [Ms])
        for j, (out, w) in enumerate(zip(chain.images([w.entries for w in sub.basis]),
                                         sub.basis)):
            if out != w.entries:
                return results.failed(
                    "carrier-stability-coalgebra",
                    "n=%d, basis element %d = %s" % (n, j, w.describe()),
                    Vector(w.space, out),
                    w,
                )
    return results.passed("sayd-over-coalgebra", detail="; ".join(dims_notes))


def _twisted_square_coaction(A: ComoduleAlgebra, delta, sigma):
    """a ↦ σ⁻¹S_δ²(a⟨−1⟩)σ ⊗ a⟨0⟩ on A."""
    H, Hs, As = A.hopf, A.hopf.space, A.space
    s_d = twisted_antipode(H, delta)
    twisted = conjugation(H, sigma) @ s_d @ s_d
    return Chain([As]).apply(A.left_coaction(), 0, 1, [Hs, As]).apply(twisted, 0, 1, [Hs]).to_map()


def check_involution_over_algebra(A: ComoduleAlgebra, delta: Character,
                                  sigma: GroupLike) -> CheckResult:
    """σ⁻¹ S_δ²(a⟨−1⟩) σ ⊗ a⟨0⟩ = a⟨−1⟩ ⊗ a⟨0⟩ on every basis element of A."""
    mp = check_modular_pair(A.hopf, delta, sigma)
    if not mp:
        return mp
    lhs = _twisted_square_coaction(A, delta, sigma)
    res = compare("involution-algebra", lhs, A.left_coaction(), A.space.label)
    if res:
        return results.passed("involution-algebra", detail="σ=%s, δ=%s" % (sigma.name, delta.name))
    return res


def check_involution_over_coalgebra(C: ComoduleCoalgebra, delta: Character,
                                    sigma: GroupLike) -> CheckResult:
    """c⟨0⟩ ⊗ S_δ²(c⟨1⟩) = c⟨0⟩ ⊗ σ c⟨1⟩ σ⁻¹ on every basis element of C."""
    H, Hs, Cs = C.hopf, C.hopf.space, C.space
    mp = check_modular_pair(H, delta, sigma)
    if not mp:
        return mp
    s_d = twisted_antipode(H, delta)
    lhs = Chain([Cs]).apply(C.coaction, 0, 1, [Cs, Hs]).apply(s_d @ s_d, 1, 1, [Hs]).to_map()
    conj = (_multiplication(H, sigma.sigma, "left")
            @ _multiplication(H, sigma.sigma_inverse, "right"))
    rhs = Chain([Cs]).apply(C.coaction, 0, 1, [Cs, Hs]).apply(conj, 1, 1, [Hs]).to_map()
    res = compare("involution-coalgebra", lhs, rhs, Cs.label)
    if res:
        return results.passed("involution-coalgebra", detail="σ=%s, δ=%s" % (sigma.name, delta.name))
    return res


def stable_subalgebra(A: ComoduleAlgebra, delta: Character,
                      sigma: GroupLike) -> ComoduleAlgebra:
    """The subalgebra on which the twisted-square antipode condition holds:
    kernel of a ↦ σ⁻¹S_δ²(a⟨−1⟩)σ⊗a⟨0⟩ − a⟨−1⟩⊗a⟨0⟩, returned as a verified
    comodule subalgebra (closure under product, unit, and coaction checked)."""
    H, Hs, As = A.hopf, A.hopf.space, A.space
    mp = check_modular_pair(H, delta, sigma)
    if not mp:
        raise StructureError(mp)
    coact = A.left_coaction()
    basis = kernel_basis(_twisted_square_coaction(A, delta, sigma) - coact)
    labels = tuple(v.describe() for v in basis)
    B = Space(labels, As.field)
    span, k = Subspace(As, basis), len(basis)

    def outside(condition, where, vec):
        return StructureError(results.failed(
            condition, where, vec, "an element of the computed subspace"))

    # multiplication restricted to the kernel: the coordinates of every product
    products = [A.mult.apply(tensor_vectors(bi, bj)) for bi in basis for bj in basis]
    mult_entries, escaped = span.express([prod.entries for prod in products])
    if escaped is not None:
        raise outside("subalgebra-closure", "%s · %s" % (
            labels[escaped // k], labels[escaped % k]), products[escaped])
    unit_coords = span.coords(A.unit)
    if unit_coords is None:
        raise outside("subalgebra-unit", "1", A.unit)
    # the coaction: the coordinates of the H-component h of the image of b_j
    comps = {}
    for j, b in enumerate(basis):
        for flat, v in coact.apply(b).entries.items():
            comps.setdefault((j, flat // As.dim), {})[flat % As.dim] = v
    parts = sorted(comps)
    entries, escaped = span.express([comps[part] for part in parts])
    if escaped is not None:
        raise outside("subalgebra-coaction", labels[parts[escaped][0]],
                      Vector(As, comps[parts[escaped]]))
    coact_entries = {(parts[i][1] * k + r, parts[i][0]): v for (r, i), v in entries.items()}
    sub = ComoduleAlgebra(
        H,
        B,
        LinMap(tensor_space(B, B), B, mult_entries),
        Vector(B, unit_coords),
        LinMap(B, tensor_space(Hs, B), coact_entries),
        side="left",
        name="B(%s,%s)" % (delta.name, sigma.name),
    )
    sub.embedding = basis  # basis vectors inside A
    return sub


def _products_agree(name, H, legs, base, orders, at):
    """``compare(name)`` between two pipelines on ``legs``: ``base`` applied
    to a fresh Chain, then one of the two leg ``orders`` each, then the
    product of H on legs ``at``, ``at + 1``."""
    lhs, rhs = (base(Chain(legs)).permute(order).apply(H.mult, at, 2, [H.space]).to_map()
                for order in orders)
    return compare(name, lhs, rhs, tensor_space(*legs).label)


def check_commutative_coaction_algebra(A: ComoduleAlgebra, n_max=0) -> CheckResult:
    """Coaction legs commute with every element of H, on A^{⊗(n+1)} under the
    diagonal coaction for 0 ≤ n ≤ n_max.  The elementwise (n=0) identity
    propagates leg-by-leg, so n ≥ 1 only re-verifies what n = 0 implies."""
    H, Hs, As = A.hopf, A.hopf.space, A.space
    for n in range(n_max + 1):
        lam, rest = diag_left_coaction(A, n + 1), list(range(1, n + 2))
        res = _products_agree(
            "commutative-coaction-algebra" + ("(n=%d)" % n if n else ""), H,
            [As] * (n + 1) + [Hs], lambda chain: chain.apply(lam, 0, n + 1, [Hs] + [As] * (n + 1)),
            ([0, n + 2] + rest, [n + 2, 0] + rest), 0)
        if not res:
            return res
    return results.passed("commutative-coaction-algebra", detail=A.name)


def check_cocommutative_coaction_algebra(A: ComoduleAlgebra, n_max=2) -> CheckResult:
    """b̃⟨−1⟩a⟨−1⟩⁽¹⁾ ⊗ a⟨−1⟩⁽²⁾ ⊗ a⟨0⟩ ⊗ b̃⟨0⟩ =
    a⟨−1⟩⁽²⁾b̃⟨−1⟩ ⊗ a⟨−1⟩⁽¹⁾ ⊗ a⟨0⟩ ⊗ b̃⟨0⟩ for a ∈ A, b̃ ∈ A^{⊗n}, 1 ≤ n ≤ n_max."""
    H, Hs, As = A.hopf, A.hopf.space, A.space
    coact = A.left_coaction()
    for n in range(1, n_max + 1):
        lam_n, rest = diag_left_coaction(A, n), list(range(4, n + 4))

        def base(chain):
            chain.apply(coact, 0, 1, [Hs, As])
            chain.apply(lam_n, 2, n, [Hs] + [As] * n)
            # legs now: ha1 ha2 a0 hb b1..bn
            return chain.apply(H.comult, 0, 1, [Hs, Hs])

        res = _products_agree("cocommutative-coaction-algebra(n=%d)" % n, H, [As] * (n + 1),
                              base, ([3, 0, 1, 2] + rest, [1, 3, 0, 2] + rest), 0)
        if not res:
            return res
    return results.passed("cocommutative-coaction-algebra", detail=A.name)


def check_commutative_coaction_coalgebra(C: ComoduleCoalgebra) -> CheckResult:
    """c⟨0⟩ ⊗ h·c⟨1⟩ = c⟨0⟩ ⊗ c⟨1⟩·h for all basis c ∈ C, h ∈ H."""
    H, Hs, Cs = C.hopf, C.hopf.space, C.space
    res = _products_agree("commutative-coaction-coalgebra", H, [Cs, Hs],
                          lambda chain: chain.apply(C.coaction, 0, 1, [Cs, Hs]),
                          ([0, 2, 1], [0, 1, 2]), 1)
    if res:
        return results.passed("commutative-coaction-coalgebra", detail=C.name)
    return res


def check_cocommutative_coaction_coalgebra(C: ComoduleCoalgebra, n_max=2) -> CheckResult:
    """c̃⟨0⟩ ⊗ d⟨0⟩ ⊗ c̃⟨1⟩d⟨1⟩⁽¹⁾ ⊗ d⟨1⟩⁽²⁾ =
    c̃⟨0⟩ ⊗ d⟨0⟩ ⊗ d⟨1⟩⁽²⁾c̃⟨1⟩ ⊗ d⟨1⟩⁽¹⁾ for d ∈ C, c̃ ∈ C^{⊗n}, 0 ≤ n ≤ n_max;
    ρ_diag on C^{⊗n} is λ_diag of C* transposed on the C legs."""
    H, Hs, Cs = C.hopf, C.hopf.space, C.space
    for n in range(n_max + 1):
        lam, Cn, front = diag_left_coaction(dual_carrier(C), n), Cs.dim ** n, list(range(n))
        rho_n = LinMap(tensor_power(Cs, n), tensor_space(tensor_power(Cs, n), Hs), {
            (c2 * Hs.dim + h, c): v for (r, c2), v in lam.entries.items()
            for h, c in (divmod(r, Cn),)})

        def base(chain):
            chain.apply(rho_n, 0, n, [Cs] * n + [Hs])
            chain.apply(C.coaction, n + 1, 1, [Cs, Hs])
            # legs: c̃(n) hc d0 hd1 hd2
            return chain.apply(H.comult, n + 2, 1, [Hs, Hs])

        res = _products_agree("cocommutative-coaction-coalgebra(n=%d)" % n, H, [Cs] * (n + 1),
                              base, (front + [n + 1, n, n + 2, n + 3],
                                     front + [n + 1, n + 3, n, n + 2]), n + 1)
        if not res:
            return res
    return results.passed("cocommutative-coaction-coalgebra", detail=C.name)


# ---------------------------------------------------------------------------
# bicrossed-product carriers
# ---------------------------------------------------------------------------


def bicrossed_function_comodule_algebra(B) -> ComoduleAlgebra:
    """The function-algebra factor of a bicrossed product as a right comodule
    algebra: e_f ↦ Σ_{ab=f} e_a ⊗ (e_b⋈1)."""
    fz, field, d = B.factorization, B.hopf.field, B.hopf.dim
    group, pos, nf = fz.group, fz.f_pos, len(fz.left)
    A = Space(tuple("δ%s" % group.labels[f] for f in fz.left), field)
    one = field.one
    mult = LinMap(tensor_space(A, A), A, {(a, a * nf + a): one for a in range(nf)})
    unit = Vector(A, {a: one for a in range(nf)})
    coaction = LinMap(A, tensor_space(A, B.hopf.space), {
        (pos[a] * d + B.flat(b, group.identity), pos[group.mul(a, b)]): one
        for a in fz.left for b in fz.left})
    return ComoduleAlgebra(B.hopf, A, mult, unit, coaction, side="right",
                           name="F-factor")


def bicrossed_group_comodule_coalgebra(B) -> ComoduleCoalgebra:
    """The group-algebra factor of a bicrossed product as a right comodule
    coalgebra: u ↦ Σ_f (u◁f) ⊗ (e_{f⁻¹}⋈1)."""
    fz, field, d = B.factorization, B.hopf.field, B.hopf.dim
    group, pos, nu = fz.group, fz.u_pos, len(fz.right)
    C = Space(tuple(group.labels[u] for u in fz.right), field)
    one = field.one
    comult = LinMap(C, tensor_space(C, C), {(u * nu + u, u): one for u in range(nu)})
    counit = LinMap(C, unit_space(field), {(0, u): one for u in range(nu)})
    coaction = LinMap(C, tensor_space(C, B.hopf.space), {
        (pos[fz.act_right(u, f)] * d + B.flat(group.inv(f), group.identity), pos[u]): one
        for u in fz.right for f in fz.left})
    return ComoduleCoalgebra(B.hopf, C, comult, counit, coaction, name="U-factor")

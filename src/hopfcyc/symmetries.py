"""Quantum symmetries and the coefficient-condition decision procedures.

Carriers: comodule algebras (either side), comodule coalgebras (right),
module algebras (left).  Coefficients: module-comodules with a right action
and a left coaction, with no compatibility assumed; compatibility is exactly
what the checkers decide.  Every failing verdict carries a basis witness
whose two sides were evaluated independently.
"""

from __future__ import annotations

from .fields import QQ
from .hopf import (
    Character,
    GroupLike,
    StructureError,
    _left_multiplication,
    _right_multiplication,
    co_opposite,
    twisted_antipode,
)
from .linalg import (
    Chain,
    Contraction,
    LinMap,
    Space,
    SubspaceSolver,
    Vector,
    hom_space,
    identity,
    kernel_basis,
    leg_permutation,
    maps_first_difference,
    tensor_power,
    tensor_space,
    unit_space,
    vector_to_linmap,
)
from . import results
from .results import CheckResult


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
        k = unit_space(self.space.field)
        return LinMap(k, self.space, {(i, 0): v for i, v in self.unit.entries.items()})

    def left_coaction(self):
        """The coaction in A → H⊗A form (flip a right coaction)."""
        if self.side == "left":
            return self.coaction
        return leg_permutation([self.space, self.hopf.space], [1, 0]) @ self.coaction

    def verify(self):
        A, H = self.space, self.hopf
        checks = []
        assoc_l = Chain([A, A, A]).apply(self.mult, 0, 2, [A]).apply(self.mult, 0, 2, [A]).to_map()
        assoc_r = Chain([A, A, A]).apply(self.mult, 1, 2, [A]).apply(self.mult, 0, 2, [A]).to_map()
        checks.append(_cmp("algebra-associativity", assoc_l, assoc_r, tensor_space(A, A, A)))
        u_l = Chain([A]).apply(self.unit_map(), 0, 0, [A]).apply(self.mult, 0, 2, [A]).to_map()
        u_r = Chain([A]).apply(self.unit_map(), 1, 0, [A]).apply(self.mult, 0, 2, [A]).to_map()
        checks.append(_cmp("algebra-left-unit", u_l, identity(A), A))
        checks.append(_cmp("algebra-right-unit", u_r, identity(A), A))

        Hs = H.space
        if self.side == "left":
            co_l = Chain([A]).apply(self.coaction, 0, 1, [Hs, A]).apply(self.coaction, 1, 1, [Hs, A]).to_map()
            co_r = Chain([A]).apply(self.coaction, 0, 1, [Hs, A]).apply(H.comult, 0, 1, [Hs, Hs]).to_map()
            checks.append(_cmp("comodule-coassociativity", co_l, co_r, A))
            cu = Chain([A]).apply(self.coaction, 0, 1, [Hs, A]).apply(H.counit, 0, 1, []).to_map()
            checks.append(_cmp("comodule-counit", cu, identity(A), A))
            mult_co = Chain([A, A]).apply(self.mult, 0, 2, [A]).apply(self.coaction, 0, 1, [Hs, A]).to_map()
            co_mult = (
                Chain([A, A])
                .apply(self.coaction, 0, 1, [Hs, A])
                .apply(self.coaction, 2, 1, [Hs, A])
                .permute([0, 2, 1, 3])
                .apply(H.mult, 0, 2, [Hs])
                .apply(self.mult, 1, 2, [A])
                .to_map()
            )
            checks.append(_cmp("coaction-multiplicative", mult_co, co_mult, tensor_space(A, A)))
            co_unit = self.coaction.apply(self.unit)
            expected = (
                Chain([], field=A.field).apply(H.unit_map(), 0, 0, [Hs]).apply(self.unit_map(), 1, 0, [A]).to_map().column(0)
            )
        else:
            co_l = Chain([A]).apply(self.coaction, 0, 1, [A, Hs]).apply(self.coaction, 0, 1, [A, Hs]).to_map()
            co_r = Chain([A]).apply(self.coaction, 0, 1, [A, Hs]).apply(H.comult, 1, 1, [Hs, Hs]).to_map()
            checks.append(_cmp("comodule-coassociativity", co_l, co_r, A))
            cu = Chain([A]).apply(self.coaction, 0, 1, [A, Hs]).apply(H.counit, 1, 1, []).to_map()
            checks.append(_cmp("comodule-counit", cu, identity(A), A))
            mult_co = Chain([A, A]).apply(self.mult, 0, 2, [A]).apply(self.coaction, 0, 1, [A, Hs]).to_map()
            co_mult = (
                Chain([A, A])
                .apply(self.coaction, 0, 1, [A, Hs])
                .apply(self.coaction, 2, 1, [A, Hs])
                .permute([0, 2, 1, 3])
                .apply(self.mult, 0, 2, [A])
                .apply(H.mult, 1, 2, [Hs])
                .to_map()
            )
            checks.append(_cmp("coaction-multiplicative", mult_co, co_mult, tensor_space(A, A)))
            co_unit = self.coaction.apply(self.unit)
            expected = (
                Chain([], field=A.field).apply(self.unit_map(), 0, 0, [A]).apply(H.unit_map(), 1, 0, [Hs]).to_map().column(0)
            )
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
        if validate:
            check = self.verify()
            if not check:
                raise StructureError(check)

    @property
    def dim(self):
        return self.space.dim

    def verify(self):
        C, H, Hs = self.space, self.hopf, self.hopf.space
        checks = []
        co_l = Chain([C]).apply(self.comult, 0, 1, [C, C]).apply(self.comult, 0, 1, [C, C]).to_map()
        co_r = Chain([C]).apply(self.comult, 0, 1, [C, C]).apply(self.comult, 1, 1, [C, C]).to_map()
        checks.append(_cmp("coalgebra-coassociativity", co_l, co_r, C))
        cu_l = Chain([C]).apply(self.comult, 0, 1, [C, C]).apply(self.counit, 0, 1, []).to_map()
        cu_r = Chain([C]).apply(self.comult, 0, 1, [C, C]).apply(self.counit, 1, 1, []).to_map()
        checks.append(_cmp("coalgebra-left-counit", cu_l, identity(C), C))
        checks.append(_cmp("coalgebra-right-counit", cu_r, identity(C), C))

        cm_l = Chain([C]).apply(self.coaction, 0, 1, [C, Hs]).apply(self.coaction, 0, 1, [C, Hs]).to_map()
        cm_r = Chain([C]).apply(self.coaction, 0, 1, [C, Hs]).apply(H.comult, 1, 1, [Hs, Hs]).to_map()
        checks.append(_cmp("comodule-coassociativity", cm_l, cm_r, C))
        cm_u = Chain([C]).apply(self.coaction, 0, 1, [C, Hs]).apply(H.counit, 1, 1, []).to_map()
        checks.append(_cmp("comodule-counit", cm_u, identity(C), C))

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
        checks.append(_cmp("comult-colinear", lhs, rhs, C))
        # ε colinear: ε(c⟨0⟩)c⟨1⟩ = ε(c)1
        lhs_e = (
            Chain([C]).apply(self.coaction, 0, 1, [C, Hs]).apply(self.counit, 0, 1, []).to_map()
        )
        rhs_e = (
            Chain([C]).apply(self.counit, 0, 1, []).apply(H.unit_map(), 0, 0, [Hs]).to_map()
        )
        checks.append(_cmp("counit-colinear", lhs_e, rhs_e, C))
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
        if validate:
            check = self.verify()
            if not check:
                raise StructureError(check)

    @property
    def dim(self):
        return self.space.dim

    def unit_map(self):
        k = unit_space(self.space.field)
        return LinMap(k, self.space, {(i, 0): v for i, v in self.unit.entries.items()})

    def verify(self):
        A, H, Hs = self.space, self.hopf, self.hopf.space
        checks = []
        assoc_l = Chain([A, A, A]).apply(self.mult, 0, 2, [A]).apply(self.mult, 0, 2, [A]).to_map()
        assoc_r = Chain([A, A, A]).apply(self.mult, 1, 2, [A]).apply(self.mult, 0, 2, [A]).to_map()
        checks.append(_cmp("algebra-associativity", assoc_l, assoc_r, tensor_space(A, A, A)))
        u_l = Chain([A]).apply(self.unit_map(), 0, 0, [A]).apply(self.mult, 0, 2, [A]).to_map()
        checks.append(_cmp("algebra-unit", u_l, identity(A), A))

        act_assoc_l = Chain([Hs, Hs, A]).apply(H.mult, 0, 2, [Hs]).apply(self.action, 0, 2, [A]).to_map()
        act_assoc_r = Chain([Hs, Hs, A]).apply(self.action, 1, 2, [A]).apply(self.action, 0, 2, [A]).to_map()
        checks.append(_cmp("module-associativity", act_assoc_l, act_assoc_r, tensor_space(Hs, Hs, A)))
        act_unit = Chain([A]).apply(H.unit_map(), 0, 0, [Hs]).apply(self.action, 0, 2, [A]).to_map()
        checks.append(_cmp("module-unit", act_unit, identity(A), A))

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
        checks.append(_cmp("action-multiplicative", lhs, rhs, tensor_space(Hs, A, A)))
        lhs_u = Chain([Hs]).apply(self.unit_map(), 1, 0, [A]).apply(self.action, 0, 2, [A]).to_map()
        rhs_u = Chain([Hs]).apply(H.counit, 0, 1, []).apply(self.unit_map(), 0, 0, [A]).to_map()
        checks.append(_cmp("action-unital", lhs_u, rhs_u, Hs))
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
        if validate:
            check = self.verify()
            if not check:
                raise StructureError(check)

    @property
    def dim(self):
        return self.space.dim

    def verify(self):
        M, H, Hs = self.space, self.hopf, self.hopf.space
        checks = []
        a_l = Chain([M, Hs, Hs]).apply(self.action, 0, 2, [M]).apply(self.action, 0, 2, [M]).to_map()
        a_r = Chain([M, Hs, Hs]).apply(H.mult, 1, 2, [Hs]).apply(self.action, 0, 2, [M]).to_map()
        checks.append(_cmp("module-associativity", a_l, a_r, tensor_space(M, Hs, Hs)))
        a_u = Chain([M]).apply(H.unit_map(), 1, 0, [Hs]).apply(self.action, 0, 2, [M]).to_map()
        checks.append(_cmp("module-unit", a_u, identity(M), M))
        c_l = Chain([M]).apply(self.coaction, 0, 1, [Hs, M]).apply(self.coaction, 1, 1, [Hs, M]).to_map()
        c_r = Chain([M]).apply(self.coaction, 0, 1, [Hs, M]).apply(H.comult, 0, 1, [Hs, Hs]).to_map()
        checks.append(_cmp("comodule-coassociativity", c_l, c_r, M))
        c_u = Chain([M]).apply(self.coaction, 0, 1, [Hs, M]).apply(H.counit, 0, 1, []).to_map()
        checks.append(_cmp("comodule-counit", c_u, identity(M), M))
        return results.merge("module-comodule", checks)

    def __repr__(self):
        return "ModuleComodule(%s over %s, dim=%d)" % (self.name, self.hopf.name, self.dim)


def _cmp(name, lhs, rhs, domain):
    col = maps_first_difference(lhs, rhs)
    if col is None:
        return results.passed(name)
    return results.failed(name, domain.labels[col], lhs.column(col), rhs.column(col))


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
    not consumed (cotensor spaces, involution conditions)."""
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


def scalar_coefficients(H, delta: Character, sigma: GroupLike, name=None):
    """The one-dimensional coefficient with m◁h = δ(h)m and coaction 1 ↦ σ⊗1.

    Requires (δ, σ) to be a modular pair (δ(σ)=1)."""
    from .hopf import check_modular_pair

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
    """A^{⊗k} → H ⊗ A^{⊗k}: ã ↦ a₀⟨−1⟩⋯a_{k−1}⟨−1⟩ ⊗ ã⟨0⟩."""
    H = A.hopf
    coact = A.left_coaction()
    if k == 0:
        return Chain([], field=H.field).apply(H.unit_map(), 0, 0, [H.space]).to_map()
    chain = Chain([A.space] * k)
    for i in range(k):
        chain.apply(coact, 2 * i, 1, [H.space, A.space])
    order = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
    chain.permute(order)
    for _ in range(k - 1):
        chain.apply(H.mult, 0, 2, [H.space])
    return chain.to_map()


def diag_right_coaction(C: ComoduleCoalgebra, k):
    """C^{⊗k} → C^{⊗k} ⊗ H: c̃ ↦ c̃⟨0⟩ ⊗ c₀⟨1⟩⋯c_{k−1}⟨1⟩."""
    H = C.hopf
    if k == 0:
        return Chain([], field=H.field).apply(H.unit_map(), 0, 0, [H.space]).to_map()
    chain = Chain([C.space] * k)
    for i in range(k):
        chain.apply(C.coaction, 2 * i, 1, [C.space, H.space])
    order = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
    chain.permute(order)
    for _ in range(k - 1):
        chain.apply(H.mult, k, 2, [H.space])
    return chain.to_map()


class DegreeCapError(ValueError):
    """A subspace computation would exceed the configured size cap."""


# unknowns allowed in one colinearity/cotensor system; cost grows as
# dim(carrier)^(n+1)·dim(M), so this keeps runs desk-scale
SIZE_CAP = 200_000


def _check_size_cap(size, what, cap=None):
    cap = SIZE_CAP if cap is None else cap
    if size > cap:
        raise DegreeCapError(
            "%s needs %d unknowns, above the configured cap %d" % (what, size, cap))


class HomSubspace:
    """A computed basis of a subspace of Hom(domain, codomain)."""

    def __init__(self, domain, codomain, basis_vectors):
        self.domain = domain
        self.codomain = codomain
        self.ambient = hom_space(domain, codomain)
        self.basis = basis_vectors

    @property
    def dim(self):
        return len(self.basis)

    def maps(self):
        return [vector_to_linmap(v, self.domain, self.codomain) for v in self.basis]


def colinear_hom_space(A: ComoduleAlgebra, M: ModuleComodule, n) -> HomSubspace:
    """Exact basis of the left-colinear maps A^{⊗(n+1)} → M, i.e. the f with
    coaction_M ∘ f = (id_H ⊗ f) ∘ diagonal-coaction."""
    if A.side != "left":
        raise ValueError("colinear hom spaces need a left comodule algebra")
    field = A.space.field
    dom = tensor_power(A.space, n + 1)
    _check_size_cap(dom.dim * M.dim, "colinear hom space at degree %d" % n)
    Hdim = A.hopf.dim
    Mdim = M.dim
    Adim = dom.dim
    lam_diag = diag_left_coaction(A, n + 1)
    # organize the two coactions
    lm_by_hm = {}
    for (r, c), v in M.coaction.entries.items():
        h, mo = divmod(r, Mdim)
        lm_by_hm.setdefault((h, mo), []).append((c, v))
    ld_by_col = {}
    for (r, c), v in lam_diag.entries.items():
        h, b = divmod(r, Adim)
        ld_by_col.setdefault(c, {}).setdefault(h, []).append((b, v))
    rows = []
    zero = field.zero
    for a in range(Adim):
        ld_a = ld_by_col.get(a, {})
        hs = set(ld_a)
        hs.update(h for (h, _) in lm_by_hm)
        for h in sorted(hs):
            for mo in range(Mdim):
                row = {}
                for (mp, v) in lm_by_hm.get((h, mo), ()):
                    key = mp * Adim + a
                    row[key] = row.get(key, zero) + v
                for (b, v) in ld_a.get(h, ()):
                    key = mo * Adim + b
                    w = row.get(key, zero) - v
                    if w:
                        row[key] = w
                    else:
                        row.pop(key, None)
                if row:
                    rows.append(row)
    from .linalg import _rref

    echelon = _rref(rows, field)
    pivot_set = {c for c, _ in echelon}
    hom = hom_space(dom, M.space)
    basis = []
    for j in range(hom.dim):
        if j in pivot_set:
            continue
        entries = {j: field.one}
        for c, row in echelon:
            v = row.get(j)
            if v:
                entries[c] = -v
        basis.append(Vector(hom, entries))
    return HomSubspace(dom, M.space, basis)


class TensorSubspace:
    """A computed basis of a subspace of an explicit tensor space."""

    def __init__(self, ambient, basis_vectors):
        self.ambient = ambient
        self.basis = basis_vectors

    @property
    def dim(self):
        return len(self.basis)


def cotensor_space(C: ComoduleCoalgebra, M: ModuleComodule, n) -> TensorSubspace:
    """Basis of C^{⊗(n+1)} □_H M: kernel of ρ_diag⊗id − id⊗λ_M inside
    C^{⊗(n+1)} ⊗ H ⊗ M read as maps into C^{⊗(n+1)}⊗H⊗M."""
    Cs, Hs, Ms = C.space, C.hopf.space, M.space
    k = n + 1
    _check_size_cap(Cs.dim ** k * Ms.dim, "cotensor space at degree %d" % n)
    legs = [Cs] * k + [Ms]
    rho = diag_right_coaction(C, k)
    # both sides land in C^{⊗k} ⊗ H ⊗ M
    left = Chain(legs).apply(rho, 0, k, [Cs] * k + [Hs]).to_map()
    right = Chain(legs).apply(M.coaction, k, 1, [Hs, Ms]).to_map()
    diff = left - right
    basis = kernel_basis(diff)
    ambient = tensor_space(*legs)
    basis = [Vector(ambient, v.entries) for v in basis]
    return TensorSubspace(ambient, basis)


# ---------------------------------------------------------------------------
# coefficient-condition checkers
# ---------------------------------------------------------------------------


def check_sayd(M: ModuleComodule) -> CheckResult:
    """Classical stability and anti-Yetter-Drinfeld compatibility:
    coaction(m◁h) = S(h⁽³⁾)m⟨−1⟩h⁽¹⁾ ⊗ m⟨0⟩◁h⁽²⁾  and  m⟨0⟩◁m⟨−1⟩ = m."""
    H, Hs, Ms = M.hopf, M.hopf.space, M.space
    lhs = (
        Chain([Ms, Hs])
        .apply(M.action, 0, 2, [Ms])
        .apply(M.coaction, 0, 1, [Hs, Ms])
        .to_map()
    )
    rhs = (
        Chain([Ms, Hs])
        .apply(H.iterated_comult(2), 1, 1, [Hs, Hs, Hs])
        .apply(M.coaction, 0, 1, [Hs, Ms])
        .permute([4, 0, 2, 1, 3])
        .apply(H.antipode, 0, 1, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .apply(M.action, 1, 2, [Ms])
        .to_map()
    )
    ayd = _cmp("anti-yetter-drinfeld", lhs, rhs, tensor_space(Ms, Hs))
    if not ayd:
        return ayd
    stab = (
        Chain([Ms])
        .apply(M.coaction, 0, 1, [Hs, Ms])
        .permute([1, 0])
        .apply(M.action, 0, 2, [Ms])
        .to_map()
    )
    res = _cmp("stability", stab, identity(Ms), Ms)
    if not res:
        return res
    return results.passed("sayd", detail=M.name)


def _carrier_sayd_pipelines(A, M, n):
    """The two sides of the carrier-relative AYD identity and the stability
    map at degree n, each as a pipeline contracted with a colinear map φ."""
    H, Hs, Ms, As = A.hopf, A.hopf.space, M.space, A.space
    legs = [As] * (n + 1)
    coact = A.left_coaction()
    lhs = Contraction(
        Chain(legs).apply(coact, 0, 1, [Hs, As]), 1, n + 1,
        Chain([Hs, Ms]).permute([1, 0]).apply(M.action, 0, 2, [Ms])
        .apply(M.coaction, 0, 1, [Hs, Ms]),
    )
    rhs = Contraction(
        Chain(legs).apply(coact, 0, 1, [Hs, As]).apply(H.iterated_comult(2), 0, 1, [Hs] * 3),
        3, n + 1,
        Chain([Hs, Hs, Hs, Ms])
        .apply(M.coaction, 3, 1, [Hs, Ms])
        .permute([2, 3, 0, 4, 1])
        .apply(H.antipode, 0, 1, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .apply(M.action, 1, 2, [Ms]),
    )
    stab = Contraction(
        Chain(legs).apply(diag_left_coaction(A, n + 1), 0, n + 1, [Hs] + legs), 1, n + 1,
        Chain([Hs, Ms]).permute([1, 0]).apply(M.action, 0, 2, [Ms]),
    )
    return lhs, rhs, stab


def check_sayd_over_algebra(A: ComoduleAlgebra, M: ModuleComodule, n_max=2) -> CheckResult:
    """Carrier-relative SAYD test through the colinear cochains on A.

    For each degree n ≤ n_max and every basis element φ of the colinear hom
    space: (i) the AYD identity after multiplying the first coaction leg into
    the value of φ, and (ii) stability φ(ã⟨0⟩)◁ã⟨−1⟩ = φ(ã)."""
    verdicts = []
    for n in range(n_max + 1):
        sub = colinear_hom_space(A, M, n)
        dims_note = "n=%d, dim=%d" % (n, sub.dim)
        if sub.dim:
            lhs_p, rhs_p, stab_p = _carrier_sayd_pipelines(A, M, n)
        for k, phi in enumerate(sub.maps()):
            lhs, rhs = lhs_p.contract(phi), rhs_p.contract(phi)
            col = maps_first_difference(lhs, rhs)
            if col is not None:
                return results.failed(
                    "carrier-ayd-algebra",
                    "n=%d, φ_%d, input %s" % (n, k, lhs.domain.labels[col]),
                    lhs.column(col),
                    rhs.column(col),
                    detail=dims_note,
                )
            stab = stab_p.contract(phi)
            col = maps_first_difference(stab, phi)
            if col is not None:
                return results.failed(
                    "carrier-stability-algebra",
                    "n=%d, φ_%d, input %s" % (n, k, stab.domain.labels[col]),
                    stab.column(col),
                    phi.column(col),
                    detail=dims_note,
                )
        verdicts.append(dims_note)
    return results.passed("sayd-over-algebra", detail="; ".join(verdicts))


def check_sayd_over_coalgebra(C: ComoduleCoalgebra, M: ModuleComodule, n_max=2) -> CheckResult:
    """Carrier-relative SAYD test through the cotensor chains on C.

    (i) c⟨0⟩ ⊗ coaction(m◁c⟨1⟩) = c⟨0⟩ ⊗ S(c⟨1⟩⁽³⁾)m⟨−1⟩c⟨1⟩⁽¹⁾ ⊗ m⟨0⟩◁c⟨1⟩⁽²⁾;
    (ii) on every basis element of the cotensor space, acting by the diagonal
    right-coaction leg fixes the element."""
    H, Hs, Ms, Cs = C.hopf, C.hopf.space, M.space, C.space
    lhs = (
        Chain([Cs, Ms])
        .apply(C.coaction, 0, 1, [Cs, Hs])
        .permute([0, 2, 1])
        .apply(M.action, 1, 2, [Ms])
        .apply(M.coaction, 1, 1, [Hs, Ms])
        .to_map()
    )
    rhs = (
        Chain([Cs, Ms])
        .apply(C.coaction, 0, 1, [Cs, Hs])
        .apply(H.iterated_comult(2), 1, 1, [Hs, Hs, Hs])
        .apply(M.coaction, 4, 1, [Hs, Ms])
        .permute([0, 3, 4, 1, 5, 2])
        .apply(H.antipode, 1, 1, [Hs])
        .apply(H.mult, 1, 2, [Hs])
        .apply(H.mult, 1, 2, [Hs])
        .apply(M.action, 2, 2, [Ms])
        .to_map()
    )
    res = _cmp("carrier-ayd-coalgebra", lhs, rhs, tensor_space(Cs, Ms))
    if not res:
        return res
    dims_notes = []
    for n in range(n_max + 1):
        sub = cotensor_space(C, M, n)
        dims_notes.append("n=%d, dim=%d" % (n, sub.dim))
        k = n + 1
        legs = [Cs] * k + [Ms]
        rho = diag_right_coaction(C, k)
        T = (
            Chain(legs)
            .apply(rho, 0, k, [Cs] * k + [Hs])
            .permute(list(range(k)) + [k + 1, k])
            .apply(M.action, k, 2, [Ms])
            .to_map()
        )
        for j, w in enumerate(sub.basis):
            out = T.apply(w)
            if out != w:
                return results.failed(
                    "carrier-stability-coalgebra",
                    "n=%d, basis element %d = %s" % (n, j, w.describe()),
                    out,
                    w,
                )
    return results.passed("sayd-over-coalgebra", detail="; ".join(dims_notes))


def check_involution_over_algebra(A: ComoduleAlgebra, delta: Character,
                                  sigma: GroupLike, convention="first-leg") -> CheckResult:
    """σ⁻¹ S_δ²(a⟨−1⟩) σ ⊗ a⟨0⟩ = a⟨−1⟩ ⊗ a⟨0⟩ on every basis element of A."""
    H, Hs, As = A.hopf, A.hopf.space, A.space
    from .hopf import check_modular_pair

    mp = check_modular_pair(H, delta, sigma)
    if not mp:
        return mp
    s_d = twisted_antipode(H, delta, convention=convention)
    conj = _left_multiplication(H, sigma.sigma_inverse) @ _right_multiplication(H, sigma.sigma)
    twisted = conj @ s_d @ s_d
    coact = A.left_coaction()
    lhs = Chain([As]).apply(coact, 0, 1, [Hs, As]).apply(twisted, 0, 1, [Hs]).to_map()
    res = _cmp("involution-algebra", lhs, coact, As)
    if res:
        return results.passed("involution-algebra", detail="σ=%s, δ=%s" % (sigma.name, delta.name))
    return res


def check_involution_over_coalgebra(C: ComoduleCoalgebra, delta: Character,
                                    sigma: GroupLike, convention="first-leg") -> CheckResult:
    """c⟨0⟩ ⊗ S_δ²(c⟨1⟩) = c⟨0⟩ ⊗ σ c⟨1⟩ σ⁻¹ on every basis element of C."""
    H, Hs, Cs = C.hopf, C.hopf.space, C.space
    from .hopf import check_modular_pair

    mp = check_modular_pair(H, delta, sigma)
    if not mp:
        return mp
    s_d = twisted_antipode(H, delta, convention=convention)
    lhs = Chain([Cs]).apply(C.coaction, 0, 1, [Cs, Hs]).apply(s_d @ s_d, 1, 1, [Hs]).to_map()
    conj = _left_multiplication(H, sigma.sigma) @ _right_multiplication(H, sigma.sigma_inverse)
    rhs = Chain([Cs]).apply(C.coaction, 0, 1, [Cs, Hs]).apply(conj, 1, 1, [Hs]).to_map()
    res = _cmp("involution-coalgebra", lhs, rhs, Cs)
    if res:
        return results.passed("involution-coalgebra", detail="σ=%s, δ=%s" % (sigma.name, delta.name))
    return res


def stable_subalgebra(A: ComoduleAlgebra, delta: Character, sigma: GroupLike,
                      convention="first-leg") -> ComoduleAlgebra:
    """The subalgebra on which the twisted-square antipode condition holds:
    kernel of a ↦ σ⁻¹S_δ²(a⟨−1⟩)σ⊗a⟨0⟩ − a⟨−1⟩⊗a⟨0⟩, returned as a verified
    comodule subalgebra (closure under product, unit, and coaction checked)."""
    H, Hs, As = A.hopf, A.hopf.space, A.space
    from .hopf import check_modular_pair

    mp = check_modular_pair(H, delta, sigma)
    if not mp:
        raise StructureError(mp)
    s_d = twisted_antipode(H, delta, convention=convention)
    conj = _left_multiplication(H, sigma.sigma_inverse) @ _right_multiplication(H, sigma.sigma)
    twisted = conj @ s_d @ s_d
    coact = A.left_coaction()
    defect = (
        Chain([As]).apply(coact, 0, 1, [Hs, As]).apply(twisted, 0, 1, [Hs]).to_map()
        - coact
    )
    basis = kernel_basis(defect)
    labels = tuple(v.describe() for v in basis)
    B = Space(labels, As.field)
    solver = SubspaceSolver(basis)
    field = As.field
    # multiplication restricted to the kernel
    from .linalg import tensor_vectors

    mult_entries = {}
    k = len(basis)
    for i in range(k):
        for j in range(k):
            prod = A.mult.apply(tensor_vectors(basis[i], basis[j]))
            coords = solver.coords(prod)
            if coords is None:
                raise StructureError(results.failed(
                    "subalgebra-closure",
                    "%s · %s" % (labels[i], labels[j]),
                    prod,
                    "an element of the computed subspace",
                ))
            for r, v in coords.items():
                mult_entries[(r, i * k + j)] = v
    unit_coords = solver.coords(A.unit)
    if unit_coords is None:
        raise StructureError(results.failed(
            "subalgebra-unit", "1", A.unit, "an element of the computed subspace"))
    coact_entries = {}
    for j in range(k):
        img = coact.apply(basis[j])
        per_h = {}
        for flat, v in img.entries.items():
            h, a = divmod(flat, As.dim)
            per_h.setdefault(h, {})[a] = v
        for h, comp in sorted(per_h.items()):
            coords = solver.coords(Vector(As, comp))
            if coords is None:
                raise StructureError(results.failed(
                    "subalgebra-coaction",
                    labels[j],
                    Vector(As, comp),
                    "an element of the computed subspace",
                ))
            for r, v in coords.items():
                coact_entries[(h * k + r, j)] = v
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


def check_commutative_coaction_algebra(A: ComoduleAlgebra, n_max=0, strict=False) -> CheckResult:
    """Coaction legs commute with every element of H.  The elementwise (n=0)
    identity propagates leg-by-leg through the diagonal coaction, so higher
    tensor powers are only re-verified in strict mode."""
    H, Hs, As = A.hopf, A.hopf.space, A.space
    coact = A.left_coaction()
    lhs = (
        Chain([As, Hs])
        .apply(coact, 0, 1, [Hs, As])
        .permute([0, 2, 1])
        .apply(H.mult, 0, 2, [Hs])
        .to_map()
    )
    rhs = (
        Chain([As, Hs])
        .apply(coact, 0, 1, [Hs, As])
        .permute([2, 0, 1])
        .apply(H.mult, 0, 2, [Hs])
        .to_map()
    )
    res = _cmp("commutative-coaction-algebra", lhs, rhs, tensor_space(As, Hs))
    if not res:
        return res
    if strict:
        for n in range(1, n_max + 1):
            lam = diag_left_coaction(A, n + 1)
            legs = [As] * (n + 1) + [Hs]
            lhs_n = (
                Chain(legs)
                .apply(lam, 0, n + 1, [Hs] + [As] * (n + 1))
                .permute([0, n + 2] + list(range(1, n + 2)))
                .apply(H.mult, 0, 2, [Hs])
                .to_map()
            )
            rhs_n = (
                Chain(legs)
                .apply(lam, 0, n + 1, [Hs] + [As] * (n + 1))
                .permute([n + 2, 0] + list(range(1, n + 2)))
                .apply(H.mult, 0, 2, [Hs])
                .to_map()
            )
            res_n = _cmp(
                "commutative-coaction-algebra(n=%d)" % n, lhs_n, rhs_n,
                tensor_space(*legs),
            )
            if not res_n:
                return res_n
    return results.passed("commutative-coaction-algebra", detail=A.name)


def check_cocommutative_coaction_algebra(A: ComoduleAlgebra, n_max=2) -> CheckResult:
    """b̃⟨−1⟩a⟨−1⟩⁽¹⁾ ⊗ a⟨−1⟩⁽²⁾ ⊗ a⟨0⟩ ⊗ b̃⟨0⟩ =
    a⟨−1⟩⁽²⁾b̃⟨−1⟩ ⊗ a⟨−1⟩⁽¹⁾ ⊗ a⟨0⟩ ⊗ b̃⟨0⟩ for a ∈ A, b̃ ∈ A^{⊗n}, 1 ≤ n ≤ n_max."""
    H, Hs, As = A.hopf, A.hopf.space, A.space
    coact = A.left_coaction()
    for n in range(1, n_max + 1):
        lam_n = diag_left_coaction(A, n)
        legs = [As] * (n + 1)

        def base(chain):
            chain.apply(coact, 0, 1, [Hs, As])
            chain.apply(lam_n, 2, n, [Hs] + [As] * n)
            chain.apply(H.comult, 0, 1, [Hs, Hs])
            # legs now: ha1 ha2 a0 hb b1..bn
            return chain

        lhs = (
            base(Chain(legs))
            .permute([3, 0, 1, 2] + list(range(4, n + 4)))
            .apply(H.mult, 0, 2, [Hs])
            .to_map()
        )
        rhs = (
            base(Chain(legs))
            .permute([1, 3, 0, 2] + list(range(4, n + 4)))
            .apply(H.mult, 0, 2, [Hs])
            .to_map()
        )
        res = _cmp(
            "cocommutative-coaction-algebra(n=%d)" % n, lhs, rhs, tensor_space(*legs)
        )
        if not res:
            return res
    return results.passed("cocommutative-coaction-algebra", detail=A.name)


def check_commutative_coaction_coalgebra(C: ComoduleCoalgebra) -> CheckResult:
    """c⟨0⟩ ⊗ h·c⟨1⟩ = c⟨0⟩ ⊗ c⟨1⟩·h for all basis c ∈ C, h ∈ H."""
    H, Hs, Cs = C.hopf, C.hopf.space, C.space
    lhs = (
        Chain([Cs, Hs])
        .apply(C.coaction, 0, 1, [Cs, Hs])
        .permute([0, 2, 1])
        .apply(H.mult, 1, 2, [Hs])
        .to_map()
    )
    rhs = (
        Chain([Cs, Hs])
        .apply(C.coaction, 0, 1, [Cs, Hs])
        .apply(H.mult, 1, 2, [Hs])
        .to_map()
    )
    res = _cmp("commutative-coaction-coalgebra", lhs, rhs, tensor_space(Cs, Hs))
    if res:
        return results.passed("commutative-coaction-coalgebra", detail=C.name)
    return res


def check_cocommutative_coaction_coalgebra(C: ComoduleCoalgebra, n_max=2) -> CheckResult:
    """c̃⟨0⟩ ⊗ d⟨0⟩ ⊗ c̃⟨1⟩d⟨1⟩⁽¹⁾ ⊗ d⟨1⟩⁽²⁾ =
    c̃⟨0⟩ ⊗ d⟨0⟩ ⊗ d⟨1⟩⁽²⁾c̃⟨1⟩ ⊗ d⟨1⟩⁽¹⁾ for d ∈ C, c̃ ∈ C^{⊗n}, 0 ≤ n ≤ n_max."""
    H, Hs, Cs = C.hopf, C.hopf.space, C.space
    for n in range(n_max + 1):
        rho_n = diag_right_coaction(C, n)
        legs = [Cs] * n + [Cs]

        def base(chain):
            if n:
                chain.apply(rho_n, 0, n, [Cs] * n + [Hs])
            else:
                chain.apply(rho_n, 0, 0, [Hs])
            chain.apply(C.coaction, n + 1, 1, [Cs, Hs])
            chain.apply(H.comult, n + 2, 1, [Hs, Hs])
            # legs: c̃(n) hc d0 hd1 hd2
            return chain

        lhs = (
            base(Chain(legs))
            .permute(list(range(n)) + [n + 1, n, n + 2, n + 3])
            .apply(H.mult, n + 1, 2, [Hs])
            .to_map()
        )
        rhs = (
            base(Chain(legs))
            .permute(list(range(n)) + [n + 1, n + 3, n, n + 2])
            .apply(H.mult, n + 1, 2, [Hs])
            .to_map()
        )
        res = _cmp(
            "cocommutative-coaction-coalgebra(n=%d)" % n, lhs, rhs, tensor_space(*legs)
        )
        if not res:
            return res
    return results.passed("cocommutative-coaction-coalgebra", detail=C.name)


# ---------------------------------------------------------------------------
# bicrossed-product carriers
# ---------------------------------------------------------------------------


def bicrossed_function_comodule_algebra(B) -> ComoduleAlgebra:
    """The function-algebra factor of a bicrossed product as a right comodule
    algebra: e_f ↦ Σ_{ab=f} e_a ⊗ (e_b⋈1)."""
    fz = B.factorization
    group = fz.group
    field = B.field
    nf, nu = B.nf, B.nu
    labels = tuple("δ%s" % group.labels[f] for f in fz.left)
    A = Space(labels, field)
    one = field.one
    mult = LinMap(tensor_space(A, A), A, {(a, a * nf + a): one for a in range(nf)})
    unit = Vector(A, {a: one for a in range(nf)})
    upos_e = fz.right.index(group.identity)
    fpos = {f: i for i, f in enumerate(fz.left)}
    entries = {}
    for fi, f in enumerate(fz.left):
        for ai, a in enumerate(fz.left):
            for bi, b in enumerate(fz.left):
                if group.mul(a, b) != f:
                    continue
                h = B.flat(bi, upos_e)
                entries[(ai * (nf * nu) + h, fi)] = one
    coaction = LinMap(A, tensor_space(A, B.hopf.space), entries)
    return ComoduleAlgebra(B.hopf, A, mult, unit, coaction, side="right",
                           name="F-factor")


def bicrossed_group_comodule_coalgebra(B) -> ComoduleCoalgebra:
    """The group-algebra factor of a bicrossed product as a right comodule
    coalgebra: u ↦ Σ_f (u◁f) ⊗ (e_{f⁻¹}⋈1)."""
    fz = B.factorization
    group = fz.group
    field = B.field
    nf, nu = B.nf, B.nu
    labels = tuple(group.labels[u] for u in fz.right)
    C = Space(labels, field)
    one = field.one
    comult = LinMap(C, tensor_space(C, C), {(u * nu + u, u): one for u in range(nu)})
    counit = LinMap(C, unit_space(field), {(0, u): one for u in range(nu)})
    upos = {u: i for i, u in enumerate(fz.right)}
    fpos = {f: i for i, f in enumerate(fz.left)}
    upos_e = fz.right.index(group.identity)
    entries = {}
    for ui, u in enumerate(fz.right):
        for f in fz.left:
            uf = upos[fz.act_right(u, f)]
            finv = fpos[group.inv(f)]
            h = B.flat(finv, upos_e)
            key = (uf * (nf * nu) + h, ui)
            entries[key] = entries.get(key, field.zero) + one
    coaction = LinMap(C, tensor_space(C, B.hopf.space), entries)
    return ComoduleCoalgebra(B.hopf, C, comult, counit, coaction, name="U-factor")

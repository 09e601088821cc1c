"""Crossed products, the diagonal complex, the pairing map into the crossed
product's cyclic complex, and the cup product.

The pairing map Ψ sends a pair (functional on M⊗A-chains, colinear map on
B-chains) to a functional on (A⋊B)-chains by feeding the coefficient leg the
B-part and twisting each A-argument by inverse-antipode legs of the iterated
B-coactions in a triangular pattern.  Its leg assignment is validated
operationally: the test suite asserts Ψ intertwines every cocyclic operator
on the corpus instances, and the builders fail loudly if membership breaks.
"""

from __future__ import annotations

from .hopf import StructureError, trivial_hopf
from .linalg import (
    Chain,
    Contraction,
    LinMap,
    Space,
    Vector,
    identity,
    maps_first_difference,
    tensor_map,
    tensor_space,
    tensor_vectors,
    vector_to_functional,
)
from .symmetries import ComoduleAlgebra, ModuleAlgebra, ModuleComodule, scalar_coefficients
from .cocyclic import CocyclicModule, build_module_algebra_complex
from .cohomology import cyclic_eigenvalue_operator, hochschild_coboundary
from . import results
from .results import CheckResult


class CrossedProductAlgebra:
    """A⋊B for a left module algebra A and left comodule algebra B over one
    Hopf algebra: (a⋊b)(a′⋊b′) = a(b⟨−1⟩▷a′) ⋊ b⟨0⟩b′, unit 1⋊1.
    Associativity and unitality are verified exhaustively at construction."""

    def __init__(self, action_algebra: ModuleAlgebra, comodule_algebra: ComoduleAlgebra, name=None):
        if action_algebra.hopf is not comodule_algebra.hopf:
            if action_algebra.hopf.space.labels != comodule_algebra.hopf.space.labels:
                raise StructureError(results.failed(
                    "crossed-product-hopf-match",
                    "factors",
                    action_algebra.hopf.name,
                    comodule_algebra.hopf.name,
                ))
        if comodule_algebra.side != "left":
            raise ValueError("crossed product needs a left comodule algebra")
        self.action_algebra = action_algebra
        self.comodule_algebra = comodule_algebra
        self.hopf = action_algebra.hopf
        A, B, Hs = action_algebra.space, comodule_algebra.space, self.hopf.space
        self.space = Space(
            tuple("%s⋊%s" % (a, b) for a in A.labels for b in B.labels),
            A.field,
        )
        chain = (
            Chain([A, B, A, B])
            .apply(comodule_algebra.coaction, 1, 1, [Hs, B])
            .permute([0, 1, 3, 2, 4])
            .apply(action_algebra.action, 1, 2, [A])
            .apply(action_algebra.mult, 0, 2, [A])
            .apply(comodule_algebra.mult, 1, 2, [B])
            .to_map()
        )
        self.mult = chain.with_spaces(
            tensor_space(self.space, self.space), self.space
        )
        self.unit = Vector(self.space, tensor_vectors(
            action_algebra.unit, comodule_algebra.unit).entries)
        self.name = name or "%s⋊%s" % (action_algebra.name, comodule_algebra.name)
        check = self._verify()
        if not check:
            raise StructureError(check)

    @property
    def dim(self):
        return self.space.dim

    def unit_map(self):
        from .linalg import unit_space

        k = unit_space(self.space.field)
        return LinMap(k, self.space, {(i, 0): v for i, v in self.unit.entries.items()})

    def _verify(self):
        P = self.space
        lhs = Chain([P, P, P]).apply(self.mult, 0, 2, [P]).apply(self.mult, 0, 2, [P]).to_map()
        rhs = Chain([P, P, P]).apply(self.mult, 1, 2, [P]).apply(self.mult, 0, 2, [P]).to_map()
        col = maps_first_difference(lhs, rhs)
        if col is not None:
            dom = tensor_space(P, P, P)
            return results.failed("crossed-product-associativity",
                                  dom.labels[col], lhs.column(col), rhs.column(col))
        u_l = Chain([P]).apply(self.unit_map(), 0, 0, [P]).apply(self.mult, 0, 2, [P]).to_map()
        u_r = Chain([P]).apply(self.unit_map(), 1, 0, [P]).apply(self.mult, 0, 2, [P]).to_map()
        for name, got in (("left", u_l), ("right", u_r)):
            col = maps_first_difference(got, identity(P))
            if col is not None:
                return results.failed("crossed-product-%s-unit" % name,
                                      P.labels[col], got.column(col),
                                      identity(P).column(col))
        return results.passed("crossed-product")

    def as_module_algebra(self, over=None) -> ModuleAlgebra:
        """The underlying algebra as a module algebra over the trivial Hopf
        algebra; its complex is the classical cyclic cochain complex."""
        H = over if over is not None else trivial_hopf(self.space.field)
        if H.dim != 1:
            raise ValueError("classical complex wants the trivial Hopf algebra")
        act = LinMap(
            tensor_space(H.space, self.space), self.space,
            {(a, a): self.space.field.one for a in range(self.dim)},
        )
        return ModuleAlgebra(H, self.space, self.mult, self.unit, act, name=self.name)

    def __repr__(self):
        return "CrossedProductAlgebra(%s, dim=%d)" % (self.name, self.dim)


def crossed_product(action_algebra, comodule_algebra, name=None):
    return CrossedProductAlgebra(action_algebra, comodule_algebra, name=name)


def classical_complex(crossed: CrossedProductAlgebra, M=None, N=3) -> CocyclicModule:
    """The classical cyclic cochain complex of the crossed product algebra."""
    Hk = trivial_hopf(crossed.space.field)
    from .hopf import counit_character, unit_group_like

    Mk = M if M is not None else scalar_coefficients(
        Hk, counit_character(Hk), unit_group_like(Hk))
    return build_module_algebra_complex(crossed.as_module_algebra(Hk), Mk, N)


def diagonal_complex(X: CocyclicModule, Y: CocyclicModule, N=None) -> CocyclicModule:
    """Degreewise tensor product with operators δ⊗δ, σ⊗σ, τ⊗τ."""
    if N is None:
        N = min(X.max_degree, Y.max_degree)
    if N > min(X.max_degree, Y.max_degree):
        raise ValueError("diagonal complex degree exceeds the factors")
    spaces = []
    for n in range(N + 1):
        labels = tuple(
            "%s⊗%s" % (a, b) for a in X.spaces[n].labels for b in Y.spaces[n].labels
        )
        spaces.append(Space(labels, X.field))
    descriptions = [
        ["(%s)⊗(%s)" % (da, db)
         for da in X.ambient_descriptions[n]
         for db in Y.ambient_descriptions[n]]
        for n in range(N + 1)
    ]
    cofaces = {
        n: [tensor_map(X.coface(n, i), Y.coface(n, i)).with_spaces(
            spaces[n - 1], spaces[n]) for i in range(n + 1)]
        for n in range(1, N + 1)
    }
    codegens = {
        n: [tensor_map(X.codegeneracy(n, i), Y.codegeneracy(n, i)).with_spaces(
            spaces[n + 1], spaces[n]) for i in range(n + 1)]
        for n in range(N)
    }
    cyclic = {
        n: tensor_map(X.tau(n), Y.tau(n)).with_spaces(spaces[n], spaces[n])
        for n in range(N + 1)
    }
    return CocyclicModule("diagonal", X.field, N, spaces, cofaces, codegens,
                          cyclic, descriptions)


class CrossedPairing:
    """Holds the two cocyclic modules of a crossed-product instance and the
    pairing matrices Ψ_n into the classical complex of A⋊B."""

    def __init__(self, action_algebra: ModuleAlgebra, comodule_algebra: ComoduleAlgebra,
                 M: ModuleComodule, N=2, check_coefficients=True):
        from .symmetries import check_sayd_over_algebra
        from .cocyclic import build_comodule_algebra_complex, verify_cocyclic_identities

        self.action_algebra = action_algebra
        self.comodule_algebra = comodule_algebra
        self.M = M
        self.N = N
        self.hopf = action_algebra.hopf
        if check_coefficients:
            side = check_sayd_over_algebra(comodule_algebra, M, n_max=min(N, 2))
            if not side:
                raise StructureError(side)
        self.crossed = CrossedProductAlgebra(action_algebra, comodule_algebra)
        self.module_side = build_module_algebra_complex(action_algebra, M, N + 1)
        self.comodule_side = build_comodule_algebra_complex(comodule_algebra, M, N + 1)
        if check_coefficients:
            ident = verify_cocyclic_identities(self.module_side)
            if not ident:
                raise StructureError(ident)
        self.target = classical_complex(self.crossed, N=N + 1)
        self.diagonal = diagonal_complex(self.module_side, self.comodule_side, N + 1)
        self._psi_cache = {}

    def _twist_pipeline(self, n):
        """P_n: (A⊗B)^{⊗(n+1)} → B^{⊗(n+1)} ⊗ A^{⊗(n+1)}, which iterates the
        coaction on b_i to depth i+1 and acts on each a_j by S⁻¹ of the
        product of the legs that land on it; ψ is contracted into the
        B-legs, giving Ψ(φ⊗ψ) = φ ∘ (ψ ⊗ id) ∘ P_n."""
        Aact, B, M, H = (self.action_algebra, self.comodule_algebra, self.M, self.hopf)
        As, Bs, Hs, Ms = Aact.space, B.space, H.space, M.space
        s_inv = H.antipode_inverse()
        chain = Chain([As, Bs] * (n + 1))
        order = [2 * i + 1 for i in range(n + 1)] + [2 * i for i in range(n + 1)]
        chain.permute(order)
        # iterate the coaction on b_i to depth i+1, right to left
        for i in range(n, -1, -1):
            depth = i + 1
            it = _iterated_left_coaction(B.coaction, Hs, Bs, depth)
            chain.apply(it, i, 1, [Hs] * depth + [Bs])
        # current layout: blocks [H^{i+1}, b_i⟨0⟩] for i = 0..n, then A-legs
        starts = []
        pos = 0
        for i in range(n + 1):
            starts.append(pos)
            pos += i + 2
        W = pos
        order = [starts[i] + i + 1 for i in range(n + 1)]
        for j in range(n + 1):
            order += [starts[i] + i - j for i in range(j, n + 1)]
            order += [W + j]
        chain.permute(order)
        # fold each twist block: multiply depth legs, invert, act on a_j
        p = n + 1
        for j in range(n + 1):
            for _ in range(n - j):
                chain.apply(H.mult, p, 2, [Hs])
            chain.apply(s_inv, p, 1, [Hs])
            chain.apply(Aact.action, p, 2, [As])
            p += 1
        return Contraction(chain, 0, n + 1, Chain([Ms] + [As] * (n + 1)))

    def psi_matrix(self, n) -> LinMap:
        """Ψ_n as a matrix from the degree-n diagonal space to the degree-n
        space of the crossed product's classical complex (dual coordinates);
        column i·dim(Y_n)+j is Ψ(φ_i⊗ψ_j) on the kept subspace bases."""
        if n in self._psi_cache:
            return self._psi_cache[n]
        phis = self.module_side.subspaces[n].basis
        psis = self.comodule_side.subspaces[n].maps()
        twist = self._twist_pipeline(n)
        entries = {}
        dy = len(psis)
        for j, psi in enumerate(psis):
            twisted = twist.contract(psi)
            for i, phi_vec in enumerate(phis):
                func = vector_to_functional(phi_vec, twisted.codomain) @ twisted
                col = i * dy + j
                for (_, c), v in func.entries.items():
                    entries[(c, col)] = v
        out = LinMap(self.diagonal.spaces[n], self.target.spaces[n], entries)
        self._psi_cache[n] = out
        return out

    def check_cocyclic_map(self, max_degree=None) -> CheckResult:
        """Ψ intertwines every coface, codegeneracy, and the cyclic operator
        between the diagonal complex and the crossed product's complex."""
        N = self.N if max_degree is None else max_degree
        checks = []
        for n in range(N + 1):
            psis = {m: self.psi_matrix(m) for m in (n - 1, n, n + 1) if 0 <= m <= N + 1}
            if n >= 1:
                for i in range(n + 1):
                    lhs = psis[n] @ self.diagonal.coface(n, i)
                    rhs = self.target.coface(n, i) @ psis[n - 1]
                    checks.append(_pair_cmp(
                        "pairing∘δ_%d = δ_%d∘pairing (deg %d)" % (i, i, n),
                        lhs, rhs, self.diagonal, n - 1))
            if n + 1 <= N:
                for i in range(n + 1):
                    lhs = psis[n] @ self.diagonal.codegeneracy(n, i)
                    rhs = self.target.codegeneracy(n, i) @ psis[n + 1]
                    checks.append(_pair_cmp(
                        "pairing∘σ_%d = σ_%d∘pairing (deg %d)" % (i, i, n),
                        lhs, rhs, self.diagonal, n + 1))
            lhs = psis[n] @ self.diagonal.tau(n)
            rhs = self.target.tau(n) @ psis[n]
            checks.append(_pair_cmp("pairing∘τ_%d = τ_%d∘pairing" % (n, n),
                                    lhs, rhs, self.diagonal, n))
        return results.merge("pairing-cocyclic-map", checks)

    def alexander_whitney(self, phi_coords, p, psi_coords, q):
        """Front-face/back-face bishuffle: apply the last coface q times to the
        first factor and the zeroth coface p times to the second, landing both
        at degree p+q."""
        if p + q > self.N:
            raise ValueError("degree overflow: p+q exceeds the built ladder")
        X, Y = self.module_side, self.comodule_side
        phi = Vector(X.spaces[p], dict(phi_coords.entries))
        for d in range(p + 1, p + q + 1):
            phi = X.coface(d, d).apply(phi)
        psi = Vector(Y.spaces[q], dict(psi_coords.entries))
        for d in range(q + 1, p + q + 1):
            psi = Y.coface(d, 0).apply(psi)
        return phi, psi

    def is_cyclic_cocycle(self, complex_, vec, n):
        b = hochschild_coboundary(complex_, n)
        if not b.apply(vec).is_zero():
            return results.failed("cocycle-b-closed", "degree %d" % n,
                                  b.apply(vec), Vector(b.codomain, {}))
        lam = cyclic_eigenvalue_operator(complex_, n)
        if lam.apply(vec) != vec:
            return results.failed("cocycle-cyclic-eigenvector", "degree %d" % n,
                                  lam.apply(vec), vec)
        return results.passed("cyclic-cocycle")

    def cup(self, phi_coords, p, psi_coords, q):
        """Ψ∘AW on a pair of cyclic cocycles; returns (cochain vector over the
        crossed product dual coordinates, CheckResult for b-closedness)."""
        pre = self.is_cyclic_cocycle(self.module_side, phi_coords, p)
        if not pre:
            raise StructureError(pre)
        pre = self.is_cyclic_cocycle(self.comodule_side, psi_coords, q)
        if not pre:
            raise StructureError(pre)
        phi, psi = self.alexander_whitney(phi_coords, p, psi_coords, q)
        n = p + q
        dy = self.comodule_side.spaces[n].dim
        pair = Vector(self.diagonal.spaces[n], {
            i * dy + j: vi * vj
            for i, vi in phi.entries.items()
            for j, vj in psi.entries.items()
        })
        out = self.psi_matrix(n).apply(pair)
        b = hochschild_coboundary(self.target, n)
        closed = b.apply(out)
        if closed.is_zero():
            check = results.passed("cup-b-closed")
        else:
            check = results.failed("cup-b-closed", "degree %d" % n, closed,
                                   Vector(b.codomain, {}))
        lam = cyclic_eigenvalue_operator(self.target, n)
        eigen = lam.apply(out) == out
        check = CheckResult(check.passed, check.condition, check.witness,
                            detail="cyclic-eigenvector: %s" % eigen)
        return out, check


def _iterated_left_coaction(coaction, Hs, Bs, depth):
    """B → H^{⊗depth} ⊗ B, outermost leg first."""
    chain = Chain([Bs])
    for i in range(depth):
        chain.apply(coaction, i, 1, [Hs, Bs])
    return chain.to_map()


def _pair_cmp(name, lhs, rhs, module, degree):
    col = maps_first_difference(lhs, rhs)
    if col is None:
        return results.passed(name)
    desc = module.ambient_descriptions[degree]
    label = desc[col] if col < len(desc) else str(col)
    return results.failed(name, "degree %d, basis %s" % (degree, label),
                          lhs.column(col), rhs.column(col))

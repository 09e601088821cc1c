"""Crossed products, the pairing map into the crossed product's cyclic
complex, and the cup product.

The pairing map Ψ sends a pair (functional on M⊗A-chains, colinear map on
B-chains) to a functional on (A⋊B)-chains by feeding the coefficient leg the
B-part and acting on each argument a_j by S⁻¹ of the diagonal coaction leg
of b_j⊗…⊗b_n, as one matrix Ψ_n on X_n⊗Y_n (X the module side, Y the
comodule side).  Its leg assignment is validated operationally: the test suite
asserts Ψ intertwines every cocyclic operator on the corpus instances, and
the builders fail loudly if membership breaks.
"""

from __future__ import annotations

from .hopf import (StructureError, algebra_axioms, counit_character, trivial_hopf,
                   unit_group_like)
from .linalg import (
    Chain,
    LinMap,
    Space,
    Vector,
    tensor_power,
    tensor_space,
    tensor_vectors,
)
from .symmetries import (ComoduleAlgebra, ModuleAlgebra, ModuleComodule, _check_size_cap,
                         algebra_over_trivial_hopf, check_sayd_over_algebra,
                         diag_left_coaction, scalar_coefficients)
from .cocyclic import (CocyclicModule, build_comodule_algebra_complex,
                       build_module_algebra_complex, verify_cocyclic_identities)
from .cohomology import cyclic_eigenvalue_operator, hochschild_coboundary
from . import results
from .results import CheckResult, compare


class CrossedProductAlgebra:
    """A⋊B for a left module algebra A and left comodule algebra B over one
    Hopf algebra: (a⋊b)(a′⋊b′) = a(b⟨−1⟩▷a′) ⋊ b⟨0⟩b′, unit 1⋊1.
    Associativity and unitality are verified exhaustively at construction."""

    def __init__(self, action_algebra: ModuleAlgebra, comodule_algebra: ComoduleAlgebra, name=None):
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
        )
        self.mult = LinMap(tensor_space(self.space, self.space), self.space, chain.entries())
        self.unit = Vector(self.space, tensor_vectors(
            action_algebra.unit, comodule_algebra.unit).entries)
        self.name = name or "%s⋊%s" % (action_algebra.name, comodule_algebra.name)
        check = self._verify()
        if not check:
            raise StructureError(check)

    @property
    def dim(self):
        return self.space.dim

    def _verify(self):
        return results.merge("crossed-product", algebra_axioms(self.space, self.mult, self.unit, (
            "crossed-product-associativity", "crossed-product-left-unit",
            "crossed-product-right-unit")))

    def __repr__(self):
        return "CrossedProductAlgebra(%s, dim=%d)" % (self.name, self.dim)


def classical_complex(crossed: CrossedProductAlgebra, N=3) -> CocyclicModule:
    """The classical cyclic cochain complex of the crossed product algebra:
    its module-algebra complex over the trivial Hopf algebra."""
    Hk = trivial_hopf(crossed.space.field)
    A = algebra_over_trivial_hopf(crossed.space, crossed.mult, crossed.unit, Hk,
                                  name=crossed.name)
    Mk = scalar_coefficients(Hk, counit_character(Hk), unit_group_like(Hk))
    return build_module_algebra_complex(A, Mk, N)


class CrossedPairing:
    """Holds the two cocyclic modules of a crossed-product instance and the
    pairing matrices Ψ_n into the classical complex of A⋊B."""

    def __init__(self, action_algebra: ModuleAlgebra, comodule_algebra: ComoduleAlgebra,
                 M: ModuleComodule, N=2):
        self.action_algebra = action_algebra
        self.comodule_algebra = comodule_algebra
        self.M = M
        self.N = N
        self.hopf = action_algebra.hopf
        side = check_sayd_over_algebra(comodule_algebra, M, n_max=min(N, 2))
        if not side:
            raise StructureError(side)
        self.crossed = CrossedProductAlgebra(action_algebra, comodule_algebra)
        self.module_side = build_module_algebra_complex(action_algebra, M, N + 1)
        self.comodule_side = build_comodule_algebra_complex(comodule_algebra, M, N + 1)
        ident = verify_cocyclic_identities(self.module_side)
        if not ident:
            raise StructureError(ident)
        self.target = classical_complex(self.crossed, N=N + 1)
        self._psi_cache = {}

    def _twist_pipeline(self, n):
        """P_n: (A⊗B)^{⊗(n+1)} → B^{⊗(n+1)} ⊗ A^{⊗(n+1)}, on the legs b_0..b_n,
        a_0..a_n for j = n down to 0: the diagonal coaction of b_j⊗…⊗b_n, its
        H leg moved next to a_j, S⁻¹, the action on a_j.  Curried on its B
        legs: B^{⊗(n+1)} → A^{⊗(n+1)} ⊗ (A⊗B)^{⊗(n+1)}, with entry
        (r·dim D + col, x) = P_n[(x·dim R + r), col].  Size-capped on its
        (dim A · dim B)^{n+1} source columns before anything is built."""
        Aact, B, H = self.action_algebra, self.comodule_algebra, self.hopf
        As, Bs, Hs = Aact.space, B.space, H.space
        _check_size_cap((As.dim * Bs.dim) ** (n + 1), "pairing twist P_%d" % n)
        s_inv = H.antipode_inverse()
        legs = [As, Bs] * (n + 1)
        chain = Chain(legs).permute(list(range(1, 2 * n + 2, 2)) + list(range(0, 2 * n + 2, 2)))
        for j in range(n, -1, -1):
            k = n + 1 - j
            order = list(range(2 * n + 3))
            order.insert(n + 1 + j, order.pop(j))
            chain.apply(diag_left_coaction(B, k), j, k, [Hs] + [Bs] * k).permute(order)
            chain.apply(s_inv, n + 1 + j, 1, [Hs]).apply(Aact.action, n + 1 + j, 2, [As])
        rdim, ddim = As.dim ** (n + 1), (As.dim * Bs.dim) ** (n + 1)
        return LinMap(tensor_power(Bs, n + 1), tensor_space(*([As] * (n + 1)), *legs), {
            (row % rdim * ddim + col, row // rdim): v for (row, col), v in chain.entries().items()})

    def psi_matrix(self, n) -> LinMap:
        """Ψ_n as a matrix from X_n⊗Y_n to the degree-n space of the crossed
        product's classical complex (dual coordinates);
        column i·dim(Y_n)+j is Ψ(φ_i⊗ψ_j) = φ_i ∘ (ψ_j ⊗ id) ∘ P_n on the kept
        subspace bases: the ψ basis walked through the curried P_n, then
        through the φ basis as one map M⊗A^{⊗(n+1)} → X_n."""
        if n not in self._psi_cache:
            phis, psis = self.module_side.subspaces[n], self.comodule_side.subspaces[n]
            Xn, Yn, D = (C.spaces[n] for C in (self.module_side, self.comodule_side, self.target))
            phi_map = LinMap(phis.domain, Xn, {
                (i, r): v for i, phi in enumerate(phis.basis) for r, v in phi.entries.items()})
            curried = [tensor_power(self.action_algebra.space, n + 1), D]
            walk = Chain([self.M.space, psis.domain]).apply(self._twist_pipeline(n), 1, 1, curried)
            walk.apply(phi_map, 0, 2, [Xn])
            dy = psis.dim
            entries = {}
            for j, image in enumerate(walk.images([psi.entries for psi in psis.basis])):
                for idx, v in image.items():
                    i, c = divmod(idx, D.dim)
                    entries[(c, i * dy + j)] = v
            self._psi_cache[n] = LinMap(tensor_space(Xn, Yn), D, entries)
        return self._psi_cache[n]

    def check_cocyclic_map(self, max_degree=None) -> CheckResult:
        """Ψ_n∘(f⊗g) = T∘Ψ_m for every coface, codegeneracy and cyclic operator,
        f of X, g of Y and T of the crossed product's complex: the left side is
        one Chain on X_m⊗Y_m (f, g, then Ψ_n), so f⊗g is never formed."""
        N = self.N if max_degree is None else max_degree
        X, Y, D = self.module_side, self.comodule_side, self.target
        checks = []

        def check(condition, m, n, f, g, T):
            lhs = (Chain([X.spaces[m], Y.spaces[m]])
                   .apply(f, 0, 1, [X.spaces[n]]).apply(g, 1, 1, [Y.spaces[n]])
                   .apply(self.psi_matrix(n), 0, 2, [D.spaces[n]]).to_map())

            def locate(col):
                i, j = divmod(col, Y.spaces[m].dim)
                return "degree %d, basis (%s)⊗(%s)" % (
                    m, X.basis_label(m, i), Y.basis_label(m, j))

            checks.append(compare(condition, lhs, T @ self.psi_matrix(m), locate))

        for n in range(N + 1):
            if n >= 1:
                for i in range(n + 1):
                    check("pairing∘δ_%d = δ_%d∘pairing (deg %d)" % (i, i, n), n - 1, n,
                          X.coface(n, i), Y.coface(n, i), D.coface(n, i))
            if n + 1 <= N:
                for i in range(n + 1):
                    check("pairing∘σ_%d = σ_%d∘pairing (deg %d)" % (i, i, n), n + 1, n,
                          X.codegeneracy(n, i), Y.codegeneracy(n, i), D.codegeneracy(n, i))
            check("pairing∘τ_%d = τ_%d∘pairing" % (n, n), n, n, X.tau(n), Y.tau(n), D.tau(n))
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
        closed = hochschild_coboundary(complex_, n).apply(vec)
        if not closed.is_zero():
            return results.failed("cocycle-b-closed", "degree %d" % n,
                                  closed, Vector(closed.space, {}))
        turned = cyclic_eigenvalue_operator(complex_, n).apply(vec)
        if turned != vec:
            return results.failed("cocycle-cyclic-eigenvector", "degree %d" % n, turned, vec)
        return results.passed("cyclic-cocycle")

    def cup(self, phi_coords, p, psi_coords, q):
        """Ψ∘AW on a pair of cyclic cocycles; returns (cochain vector over the
        crossed product dual coordinates, CheckResult for b-closedness)."""
        for X, vec, d in ((self.module_side, phi_coords, p), (self.comodule_side, psi_coords, q)):
            pre = self.is_cyclic_cocycle(X, vec, d)
            if not pre:
                raise StructureError(pre)
        phi, psi = self.alexander_whitney(phi_coords, p, psi_coords, q)
        n = p + q
        out = self.psi_matrix(n).apply(tensor_vectors(phi, psi))
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

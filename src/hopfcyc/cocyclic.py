"""Cocyclic modules: the three complex builders and the identity verifier.

A CocyclicModule is a finite ladder of computed subspaces, each the
equalizer of two stated maps (``symmetries._equalizer``), with all operators
materialized as exact matrices over the per-degree bases.  The three
builders share one assembly loop, and all three complexes are of
comodule-algebra cochains: the module-algebra functionals are those of A
over the predual (H^op)* with values in M*, and the comodule-coalgebra
cotensor chains those of the dual algebra C* with the value leg last.  So
one equalizer and one set of pipelines serve them all.  Each operator is
one walk of a fixed pipeline from the whole basis of its source subspace,
in row layout (cochains pull back through the transposed pipeline), and
``Subspace.express_rows`` reads all its images off the walk's output rows
in one pass.  An image that escapes is a well-definedness failure
(reported through check_hcc as a verdict, or raised as
CocyclicConstructionError).  The identity verifier checks the τ
identities, τ_n^{n+1} = id (so τ is invertible) and the rest only at i = 0
(or j = 0 for σ_jδ_i), since their τ-conjugates give all the others; a
failure re-checks the full list and reports its first failure.  Each side
of an identity is a composite, a tuple of operators applied right to left,
so no product is formed where every factor holds at most one entry per
column (``linalg.composite_first_difference``).
"""

from __future__ import annotations

from .linalg import (
    Chain,
    LinMap,
    Space,
    Subspace,
    Vector,
    _row_state,
    dual_space,
    identity,
    tensor_space,
    unit_space,
)
from .symmetries import (
    ComoduleAlgebra,
    ComoduleCoalgebra,
    ModuleAlgebra,
    ModuleComodule,
    _acting,
    _check_size_cap,
    colinear_hom_space,
    dual_carrier,
    predual_carrier,
    predual_coefficient,
)
from . import results
from .results import CheckResult, compare


class CocyclicConstructionError(Exception):
    """An operator image left its subspace; carries the failing CheckResult."""

    def __init__(self, check):
        self.check = check
        super().__init__(check.describe())


class CocyclicModule:
    """Spaces for degrees 0..N with cofaces (degree-raising), codegeneracies
    (degree-lowering) and cyclic operators, all as matrices on the computed
    bases.  ``subspaces[n]`` (kept by the three builders) is the computed
    subspace whose basis those bases index, and ``ambient_descriptions[n]``
    holds one human-readable line per basis element for witnesses and
    serialization, given as a list or as a function that renders it on first
    read."""

    def __init__(self, kind, field, max_degree, spaces, cofaces, codegeneracies,
                 cyclic, ambient_descriptions, subspaces=None):
        self.kind = kind
        self.field = field
        self.max_degree = max_degree
        self.spaces = spaces
        self.cofaces = cofaces              # cofaces[n]: list δ_0..δ_n, C^{n-1}→C^n
        self.codegeneracies = codegeneracies  # codegeneracies[n]: σ_0..σ_n, C^{n+1}→C^n
        self.cyclic = cyclic                # cyclic[n]: τ_n on C^n
        self._descriptions = ambient_descriptions
        self.subspaces = subspaces
        self._memo = {}  # hochschild_coboundary / connes_boundary results

    @property
    def ambient_descriptions(self):
        if callable(self._descriptions):
            self._descriptions = self._descriptions()
        return self._descriptions

    def dims(self):
        return [s.dim for s in self.spaces]

    def coface(self, n, i):
        return self.cofaces[n][i]

    def codegeneracy(self, n, i):
        return self.codegeneracies[n][i]

    def tau(self, n):
        return self.cyclic[n]

    def basis_label(self, n, k):
        desc = self.ambient_descriptions[n]
        return desc[k] if k < len(desc) else str(k)

    def to_dict(self):
        def map_entries(m):
            return [
                [r, c, self.field.format(v)]
                for (r, c), v in sorted(m.entries.items())
            ]

        return {
            "kind": self.kind,
            "max_degree": self.max_degree,
            "degrees": [
                {"dim": s.dim, "basis": list(self.ambient_descriptions[n])}
                for n, s in enumerate(self.spaces)
            ],
            "cofaces": {
                str(n): [map_entries(m) for m in ops]
                for n, ops in self.cofaces.items()
            },
            "codegeneracies": {
                str(n): [map_entries(m) for m in ops]
                for n, ops in self.codegeneracies.items()
            },
            "cyclic": {str(n): map_entries(m) for n, m in self.cyclic.items()},
        }

    def __repr__(self):
        return "CocyclicModule(%s, dims=%s)" % (self.kind, self.dims())


def _abstract_space(field, n, dim, prefix="b"):
    return Space(tuple("%s%d@%d" % (prefix, k, n) for k in range(dim)), field)


def _top_first(N, subspace):
    """[subspace(0), …, subspace(N)], built from the top degree down, so a
    size cap trips before any lower degree is solved."""
    return [subspace(n) for n in range(N, -1, -1)][::-1]


def _assemble(kind, field, N, subs, prefix, coface, codegeneracy, cyclic):
    """The loop shared by the three builders.  ``coface(n, i)``,
    ``codegeneracy(n, i)`` and ``cyclic(n)`` each return the operator as a
    walk (``Chain.walk``) from the row state of its source basis to the row
    state of its images over ``subs[n].ambient``; the first image that
    escapes ``subs[n]`` raises the well-defined failure.  Each degree's basis
    row state is built once and each walk gets its own copy, since a walk
    owns its input.  The basis descriptions are rendered on first read."""
    spaces = [_abstract_space(field, n, s.dim, prefix) for n, s in enumerate(subs)]
    bases = [s.basis for s in subs]
    rows = [_row_state([v.entries for v in basis]) for basis in bases]

    def matrix(op, src, n, name):
        images = op({t: dict(row) for t, row in rows[src].items()})
        entries, escaped = subs[n].express_rows(images)
        if escaped is not None:
            raise CocyclicConstructionError(results.failed(
                "well-defined",
                "%s of basis element %d at degree %d" % (name, escaped, n),
                Vector(subs[n].ambient, {t: row[escaped] for t, row in images.items()
                                         if escaped in row}),
                "an element of the computed subspace",
                detail="operator image escapes the subspace",
            ))
        return LinMap._of(spaces[src], spaces[n], entries)

    cofaces, codegens, cyclics = {}, {}, {}
    for n in range(N + 1):
        if n >= 1:
            cofaces[n] = [matrix(coface(n, i), n - 1, n, "coface δ_%d" % i)
                          for i in range(n + 1)]
        if n + 1 <= N:
            codegens[n] = [matrix(codegeneracy(n, i), n + 1, n, "codegeneracy σ_%d" % i)
                           for i in range(n + 1)]
        cyclics[n] = matrix(cyclic(n), n, n, "cyclic τ_%d" % n)
    return CocyclicModule(kind, field, N, spaces, cofaces, codegens, cyclics,
                          lambda: [[v.describe() for v in basis] for basis in bases], subs)


def _rotation_step(A, M, value_last):
    """a⊗m′ ↦ a⟨0⟩ ⊗ act_t(m′⊗a⟨−1⟩) on A⊗M (M⊗A unless ``value_last``), with
    act_t the action transposed, m′⊗h ↦ Σ_m ⟨m′, m◁h⟩·m: built once per complex,
    it walks transposed as one step, where act_t alone would fan rows out."""
    Hs, Ms, As = A.hopf.space, M.space, A.space
    act_t = LinMap(tensor_space(Ms, Hs), Ms, {
        (mp, m * Hs.dim + h): v for (m, c), v in _acting(M).entries.items()
        for h, mp in (divmod(c, Ms.dim),)})
    chain = Chain([As, Ms]).permute([1, 0]) if value_last else Chain([Ms, As])
    chain.apply(A.left_coaction(), 1, 1, [Hs, As]).apply(act_t, 0, 2, [Ms])
    return (chain.permute([1, 0]) if value_last else chain).to_map()


def _cochains(A, M, n, value_last):
    """A Chain on M⊗A^{⊗(n+1)}, or A^{⊗(n+1)}⊗M with ``value_last``."""
    args = [A.space] * (n + 1)
    return Chain(args + [M.space] if value_last else [M.space] + args)


def _rotation(A, M, n, multiply_front, step, value_last):
    """The last coface (``multiply_front``) or τ_n, φ ↦ φ(a_n⟨0⟩ a_0 ⊗ …) ◁ a_n⟨−1⟩
    (or a_n⟨0⟩ its own first argument), walked transposed from φ: a_n and the
    value through ``step`` (``_rotation_step``), then a_n⟨0⟩ to the front."""
    As, Ms = A.space, M.space
    chain = _cochains(A, M, n, value_last)
    if value_last:
        chain.apply(step, n, 2, [As, Ms]).permute([n] + list(range(n)) + [n + 1])
    else:
        chain.permute([0, n + 1] + list(range(1, n + 1))).apply(step, 0, 2, [Ms, As])
    if multiply_front:
        chain.apply(A.mult, 0 if value_last else 1, 2, [As])
    return chain.transposed().walk


def _cochain_complex(kind, A, M, N, subspace, value_last=False):
    """The complex of colinear maps A^{⊗(n+1)} → M on ``subspace(n)``, in the
    coordinates of ``_cochains`` (named w with the value last, as cotensor
    chains): inner cofaces φ∘(μ at adjacent arguments) and codegeneracies
    φ∘(1 inserted), each walked transposed from φ, and ``_rotation``."""
    As = A.space
    subs = _top_first(N, subspace)
    step, a0 = _rotation_step(A, M, value_last), 0 if value_last else 1

    def coface(n, i):
        if i == n:
            return _rotation(A, M, n, True, step, value_last)
        return _cochains(A, M, n, value_last).apply(A.mult, a0 + i, 2, [As]).transposed().walk

    def codegeneracy(n, i):
        chain = _cochains(A, M, n, value_last).apply(A.unit_map(), a0 + 1 + i, 0, [As])
        return chain.transposed().walk

    return _assemble(kind, As.field, N, subs, "w" if value_last else "φ", coface,
                     codegeneracy, lambda n: _rotation(A, M, n, False, step, value_last))


def build_comodule_algebra_complex(A: ComoduleAlgebra, M: ModuleComodule, N) -> CocyclicModule:
    """Degree-n space: colinear maps A^{⊗(n+1)} → M, in hom coordinates over
    M⊗A^{⊗(n+1)}.  Inner cofaces multiply adjacent arguments; the last
    coface and the cyclic operator rotate the final argument to the front
    through its coaction and act on the value."""
    return _cochain_complex("comodule-algebra", A, M, N,
                            lambda n: colinear_hom_space(A, M, n))


def build_comodule_coalgebra_complex(C: ComoduleCoalgebra, M: ModuleComodule, N) -> CocyclicModule:
    """Degree-n space: C^{⊗(n+1)} □ M, the comodule-algebra complex of C*
    (``dual_carrier``) over C^{⊗(n+1)}⊗M.  Transposed, its operators insert Δ,
    apply ε, split the first leg and act on the coefficient (the last coface),
    and rotate the first leg to the back through its coaction (τ_n)."""
    A = dual_carrier(C)
    return _cochain_complex("comodule-coalgebra", A, M, N,
                            lambda n: colinear_hom_space(A, M, n, True), value_last=True)


def invariant_functionals(Aact: ModuleAlgebra, M: ModuleComodule, n) -> Subspace:
    """Basis of the H-invariant functionals on M⊗A^{⊗(n+1)}, where H acts
    diagonally with the antipode twist on the coefficient:
    h·(m⊗ã) = m◁S(h⁽¹⁾) ⊗ h⁽²⁾▷a₀ ⊗ … ⊗ h⁽ⁿ⁺²⁾▷aₙ.  Invariance is
    f(m◁h ⊗ ã) = f(m ⊗ h▷ã), so these are the colinear maps A^{⊗(n+1)} → M*
    over the predual, in the same coordinates, read in the dual ambient."""
    Ms, As = M.space, Aact.space
    _check_size_cap(Ms.dim * As.dim ** (n + 1), "invariant functionals at degree %d" % n)
    sub = colinear_hom_space(predual_carrier(Aact), predual_coefficient(M), n)
    X = tensor_space(Ms, *([As] * (n + 1)))
    dual = dual_space(X)
    return Subspace(dual, [Vector(dual, v.entries) for v in sub.basis], X, unit_space(As.field))


def build_module_algebra_complex(Aact: ModuleAlgebra, M: ModuleComodule, N) -> CocyclicModule:
    """Degree-n space: H-invariant functionals on M⊗A^{⊗(n+1)} (diagonal
    twisted action), built as the comodule-algebra complex of A over the
    predual with the coefficient M*.  The last coface multiplies
    S⁻¹(m⟨−1⟩)▷aₙ into the first argument; the cyclic operator rotates it to
    the front.  For a trivial Hopf algebra and trivial coefficient this is
    the classical cyclic cochain complex of the algebra."""
    return _cochain_complex("module-algebra", predual_carrier(Aact), predual_coefficient(M), N,
                            lambda n: invariant_functionals(Aact, M, n))


def _identities(X, full):
    """Each identity as a lazy ``compare`` of two composites (tuples of
    operators, applied right to left): all with ``full``, else the checked
    set."""
    N = X.max_degree
    one = [identity(s) for s in X.spaces]

    def check(name, lhs, rhs, degree):
        return compare(name, lhs, rhs, lambda col: "degree %d, basis element %d = %s"
                       % (degree, col, X.basis_label(degree, col)))

    def simplicial():
        for n in range(2, N + 1):
            for j in range(n + 1):
                for i in range(j if full else min(j, 1)):
                    yield check("δ_%d∘δ_%d = δ_%d∘δ_%d (deg %d)" % (j, i, i, j - 1, n - 2),
                                (X.coface(n, j), X.coface(n - 1, i)),
                                (X.coface(n, i), X.coface(n - 1, j - 1)),
                                n - 2)
        for n in range(0, N - 1):
            for j in range(n + 1):
                for i in range(j + 1 if full else 1):
                    yield check("σ_%d∘σ_%d = σ_%d∘σ_%d (deg %d)" % (j, i, i, j + 1, n + 2),
                                (X.codegeneracy(n, j), X.codegeneracy(n + 1, i)),
                                (X.codegeneracy(n, i), X.codegeneracy(n + 1, j + 1)),
                                n + 2)
        for m in range(0, N):
            # σ_j ∘ δ_i on degree m
            for j in range(m + 1):
                for i in range(m + 2 if full or j == 0 else 1):
                    lhs = X.codegeneracy(m, j), X.coface(m + 1, i)
                    if i < j:
                        rhs = X.coface(m, i), X.codegeneracy(m - 1, j - 1)
                        name = "σ_%d∘δ_%d = δ_%d∘σ_%d (deg %d)" % (j, i, i, j - 1, m)
                    elif i in (j, j + 1):
                        rhs = one[m]
                        name = "σ_%d∘δ_%d = id (deg %d)" % (j, i, m)
                    else:
                        rhs = X.coface(m, i - 1), X.codegeneracy(m - 1, j)
                        name = "σ_%d∘δ_%d = δ_%d∘σ_%d (deg %d)" % (j, i, i - 1, j, m)
                    yield check(name, lhs, rhs, m)

    def cyclic():
        for n in range(1, N + 1):
            yield check("τ_%d∘δ_0 = δ_%d (deg %d)" % (n, n, n - 1),
                        (X.tau(n), X.coface(n, 0)), X.coface(n, n), n - 1)
            for i in range(1, n + 1):
                yield check("τ_%d∘δ_%d = δ_%d∘τ_%d (deg %d)" % (n, i, i - 1, n - 1, n - 1),
                            (X.tau(n), X.coface(n, i)),
                            (X.coface(n, i - 1), X.tau(n - 1)),
                            n - 1)
        for n in range(0, N):
            yield check("τ_%d∘σ_0 = σ_%d∘τ_%d² (deg %d)" % (n, n, n + 1, n + 1),
                        (X.tau(n), X.codegeneracy(n, 0)),
                        (X.codegeneracy(n, n), X.tau(n + 1), X.tau(n + 1)),
                        n + 1)
            for i in range(1, n + 1):
                yield check("τ_%d∘σ_%d = σ_%d∘τ_%d (deg %d)" % (n, i, i - 1, n + 1, n + 1),
                            (X.tau(n), X.codegeneracy(n, i)),
                            (X.codegeneracy(n, i - 1), X.tau(n + 1)),
                            n + 1)
        for n in range(0, N + 1):
            yield check("τ_%d^%d = id (deg %d)" % (n, n + 1, n),
                        (X.tau(n),) * (n + 1), one[n], n)

    for part in (simplicial, cyclic) if full else (cyclic, simplicial):
        yield from part()


def verify_cocyclic_identities(X: CocyclicModule) -> CheckResult:
    """All cosimplicial, mixed, and cyclic identities up to the ladder top, as
    exact matrix identities: checked are the τ families, τ_n^{n+1} = id (so τ is
    invertible), δ_jδ_0, σ_jσ_0, σ_jδ_0 and σ_0δ_i, whose τ-conjugates are the
    rest.  A failure re-checks the full list and reports its first failure."""
    res = results.merge("cocyclic-identities", _identities(X, False))
    return res if res else results.merge("cocyclic-identities", _identities(X, True))


def check_hcc(flavor, carrier, M: ModuleComodule, N=3) -> CheckResult:
    """Hopf-cyclic-coefficient test: the operators stay inside the computed
    subspaces (membership) and satisfy every cocyclic identity."""
    try:
        if flavor == "comodule-algebra":
            X = build_comodule_algebra_complex(carrier, M, N)
        elif flavor == "comodule-coalgebra":
            X = build_comodule_coalgebra_complex(carrier, M, N)
        else:
            raise ValueError("unknown flavor %r" % flavor)
    except CocyclicConstructionError as err:
        return err.check
    ident = verify_cocyclic_identities(X)
    if not ident:
        return ident
    return results.passed("hcc(%s)" % flavor,
                          detail="dims=%s" % X.dims())

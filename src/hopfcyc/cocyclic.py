"""Cocyclic modules: the three complex builders and the identity verifier.

A CocyclicModule is a finite ladder of computed subspaces with all operators
materialized as exact matrices over the per-degree bases.  Builders test
membership of every operator image in the target subspace; an image that
escapes is a well-definedness failure (reported through check_hcc as a
verdict, or raised as CocyclicConstructionError from the builders).
"""

from __future__ import annotations

from .linalg import (
    Chain,
    Contraction,
    LinMap,
    Space,
    SubspaceSolver,
    Vector,
    dual_space,
    identity,
    maps_first_difference,
    tensor_space,
    vector_to_functional,
)
from .symmetries import (
    ComoduleAlgebra,
    ComoduleCoalgebra,
    ModuleAlgebra,
    ModuleComodule,
    colinear_hom_space,
    cotensor_space,
)
from . import results
from .results import CheckResult


class CocyclicConstructionError(Exception):
    """An operator image left its subspace; carries the failing CheckResult."""

    def __init__(self, check):
        self.check = check
        super().__init__(check.describe())


class CocyclicModule:
    """Spaces for degrees 0..N with cofaces (degree-raising), codegeneracies
    (degree-lowering) and cyclic operators, all as matrices on the computed
    bases.  ``ambient_descriptions[n]`` keeps one human-readable line per
    basis element for witnesses and serialization; ``subspaces[n]`` (from the
    builders) is the computed subspace whose basis those bases index."""

    def __init__(self, kind, field, max_degree, spaces, cofaces, codegeneracies,
                 cyclic, ambient_descriptions, subspaces=None):
        self.kind = kind
        self.field = field
        self.max_degree = max_degree
        self.spaces = spaces
        self.cofaces = cofaces              # cofaces[n]: list δ_0..δ_n, C^{n-1}→C^n
        self.codegeneracies = codegeneracies  # codegeneracies[n]: σ_0..σ_n, C^{n+1}→C^n
        self.cyclic = cyclic                # cyclic[n]: τ_n on C^n
        self.ambient_descriptions = ambient_descriptions
        self.subspaces = subspaces

    def dims(self):
        return [s.dim for s in self.spaces]

    def coface(self, n, i):
        return self.cofaces[n][i]

    def codegeneracy(self, n, i):
        return self.codegeneracies[n][i]

    def tau(self, n):
        return self.cyclic[n]

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


def _express(solver, image, op_name, basis_index, degree):
    coords = solver.coords(image)
    if coords is None:
        raise CocyclicConstructionError(results.failed(
            "well-defined",
            "%s of basis element %d at degree %d" % (op_name, basis_index, degree),
            image,
            "an element of the computed subspace",
            detail="operator image escapes the subspace",
        ))
    return coords


def _matrix_from_images(images_coords, dom_dim, cod_space, dom_space):
    entries = {}
    for col, coords in enumerate(images_coords):
        for r, v in coords.items():
            entries[(r, col)] = v
    return LinMap(dom_space, cod_space, entries)


def build_comodule_algebra_complex(A: ComoduleAlgebra, M: ModuleComodule, N) -> CocyclicModule:
    """Degree-n space: colinear maps A^{⊗(n+1)} → M.  Inner cofaces multiply
    adjacent arguments; the last coface and the cyclic operator rotate the
    final argument to the front through its coaction and act on the value."""
    H, Hs, Ms, As = A.hopf, A.hopf.space, M.space, A.space
    coact = A.left_coaction()
    subs = [colinear_hom_space(A, M, n) for n in range(N + 1)]
    solvers = [SubspaceSolver(s.basis) for s in subs]
    spaces = [_abstract_space(As.field, n, subs[n].dim, "φ") for n in range(N + 1)]
    descriptions = [[v.describe() for v in subs[n].basis] for n in range(N + 1)]

    def merge_map(n, i):
        # A^{⊗(n+1)} → A^{⊗n}, multiply slots i, i+1
        return Chain([As] * (n + 1)).apply(A.mult, i, 2, [As]).to_map()

    def insert_map(n, i):
        # A^{⊗(n+1)} → A^{⊗(n+2)}, insert the unit after slot i
        return Chain([As] * (n + 1)).apply(A.unit_map(), i + 1, 0, [As]).to_map()

    def wrap(n, multiply_front):
        # φ ↦ φ(a_n⟨0⟩ a_0 ⊗ …) ◁ a_n⟨−1⟩ (last coface), or with a_n⟨0⟩ as
        # its own first argument (cyclic operator)
        pre = Chain([As] * (n + 1)).rotate_last_to_front().apply(coact, 0, 1, [Hs, As])
        if multiply_front:
            pre.apply(A.mult, 1, 2, [As])
        post = Chain([Hs, Ms]).permute([1, 0]).apply(M.action, 0, 2, [Ms])
        return Contraction(pre, 1, n if multiply_front else n + 1, post)

    cofaces, codegens, cyclic = {}, {}, {}
    for n in range(N + 1):
        maps_n = subs[n].maps()
        if n >= 1:
            ops = []
            for i in range(n):
                merge = merge_map(n, i)
                images = [
                    _express(solvers[n],
                             _hom_image(phi @ merge, subs[n]),
                             "coface δ_%d" % i, k, n)
                    for k, phi in enumerate(subs[n - 1].maps())
                ]
                ops.append(_matrix_from_images(images, subs[n - 1].dim, spaces[n], spaces[n - 1]))
            last = wrap(n, True)
            images = [
                _express(solvers[n],
                         _hom_image(last.contract(phi), subs[n]),
                         "coface δ_%d" % n, k, n)
                for k, phi in enumerate(subs[n - 1].maps())
            ]
            ops.append(_matrix_from_images(images, subs[n - 1].dim, spaces[n], spaces[n - 1]))
            cofaces[n] = ops
        if n + 1 <= N:
            ops = []
            for i in range(n + 1):
                ins = insert_map(n, i)
                images = [
                    _express(solvers[n],
                             _hom_image(phi @ ins, subs[n]),
                             "codegeneracy σ_%d" % i, k, n)
                    for k, phi in enumerate(subs[n + 1].maps())
                ]
                ops.append(_matrix_from_images(images, subs[n + 1].dim, spaces[n], spaces[n + 1]))
            codegens[n] = ops
        rotate = wrap(n, False)
        images = [
            _express(solvers[n],
                     _hom_image(rotate.contract(phi), subs[n]),
                     "cyclic τ_%d" % n, k, n)
            for k, phi in enumerate(maps_n)
        ]
        cyclic[n] = _matrix_from_images(images, subs[n].dim, spaces[n], spaces[n])
    return CocyclicModule("comodule-algebra", As.field, N, spaces, cofaces,
                          codegens, cyclic, descriptions, subs)


def _hom_image(linmap, sub):
    from .linalg import linmap_to_vector

    return linmap_to_vector(linmap, sub.ambient)


def build_comodule_coalgebra_complex(C: ComoduleCoalgebra, M: ModuleComodule, N) -> CocyclicModule:
    """Degree-n space: C^{⊗(n+1)} □ M.  Inner cofaces insert the
    comultiplication; the last coface splits the first leg and acts on the
    coefficient; the cyclic operator rotates the first leg to the back."""
    H, Hs, Ms, Cs = C.hopf, C.hopf.space, M.space, C.space
    subs = [cotensor_space(C, M, n) for n in range(N + 1)]
    solvers = [SubspaceSolver(s.basis) for s in subs]
    spaces = [_abstract_space(Cs.field, n, subs[n].dim, "w") for n in range(N + 1)]
    descriptions = [[v.describe() for v in subs[n].basis] for n in range(N + 1)]

    def delta_inner(n, i):
        legs = [Cs] * n + [Ms]
        return Chain(legs).apply(C.comult, i, 1, [Cs, Cs]).to_map()

    def delta_last(n):
        # c₀⊗…⊗c_{n−1}⊗m ↦ c₀⁽²⁾⊗c₁⊗…⊗c_{n−1}⊗c₀⁽¹⁾⟨0⟩⊗m◁c₀⁽¹⁾⟨1⟩
        legs = [Cs] * n + [Ms]
        chain = Chain(legs).apply(C.comult, 0, 1, [Cs, Cs]).apply(C.coaction, 0, 1, [Cs, Hs])
        # legs: c01_0, c01_1, c02, c1..c_{n−1}, m
        order = [2] + list(range(3, n + 2)) + [0, n + 2, 1]
        chain.permute(order).apply(M.action, n + 1, 2, [Ms])
        return chain.to_map()

    def sigma(n, i):
        legs = [Cs] * (n + 2) + [Ms]
        return Chain(legs).apply(C.counit, i + 1, 1, []).to_map()

    def tau(n):
        legs = [Cs] * (n + 1) + [Ms]
        chain = Chain(legs).apply(C.coaction, 0, 1, [Cs, Hs])
        # legs: c0_0, c0_1, c1..cn, m
        order = list(range(2, n + 2)) + [0, n + 2, 1]
        chain.permute(order).apply(M.action, n + 1, 2, [Ms])
        return chain.to_map()

    cofaces, codegens, cyclic = {}, {}, {}
    for n in range(N + 1):
        if n >= 1:
            ops = []
            for i in range(n):
                op = delta_inner(n, i)
                images = [
                    _express(solvers[n], op.apply(w), "coface δ_%d" % i, k, n)
                    for k, w in enumerate(subs[n - 1].basis)
                ]
                ops.append(_matrix_from_images(images, subs[n - 1].dim, spaces[n], spaces[n - 1]))
            op = delta_last(n)
            images = [
                _express(solvers[n], op.apply(w), "coface δ_%d" % n, k, n)
                for k, w in enumerate(subs[n - 1].basis)
            ]
            ops.append(_matrix_from_images(images, subs[n - 1].dim, spaces[n], spaces[n - 1]))
            cofaces[n] = ops
        if n + 1 <= N:
            ops = []
            for i in range(n + 1):
                op = sigma(n, i)
                images = [
                    _express(solvers[n], op.apply(w), "codegeneracy σ_%d" % i, k, n)
                    for k, w in enumerate(subs[n + 1].basis)
                ]
                ops.append(_matrix_from_images(images, subs[n + 1].dim, spaces[n], spaces[n + 1]))
            codegens[n] = ops
        op = tau(n)
        images = [
            _express(solvers[n], op.apply(w), "cyclic τ_%d" % n, k, n)
            for k, w in enumerate(subs[n].basis)
        ]
        cyclic[n] = _matrix_from_images(images, subs[n].dim, spaces[n], spaces[n])
    return CocyclicModule("comodule-coalgebra", Cs.field, N, spaces, cofaces,
                          codegens, cyclic, descriptions, subs)


def invariant_functionals(Aact: ModuleAlgebra, M: ModuleComodule, n):
    """Basis of the H-linear functionals on M⊗A^{⊗(n+1)}, where H acts
    diagonally with the antipode twist on the coefficient:
    h·(m⊗ã) = m◁S(h⁽¹⁾) ⊗ h⁽²⁾▷a₀ ⊗ … ⊗ h⁽ⁿ⁺²⁾▷aₙ."""
    H, Hs, Ms, As = Aact.hopf, Aact.hopf.space, M.space, Aact.space
    legs = [Ms] + [As] * (n + 1)
    chain = Chain([Hs] + legs)
    chain.apply(H.iterated_comult(n + 1), 0, 1, [Hs] * (n + 2))
    chain.apply(H.antipode, 0, 1, [Hs])
    order = [n + 2, 0]
    for i in range(n + 1):
        order += [1 + i, n + 3 + i]
    chain.permute(order)
    chain.apply(M.action, 0, 2, [Ms])
    for i in range(n + 1):
        chain.apply(Aact.action, 1 + i, 2, [As])
    alpha = chain.to_map()

    X = tensor_space(*legs)
    field = As.field
    rows_by_hx = {}
    for (y, col), v in alpha.entries.items():
        h, x = divmod(col, X.dim)
        rows_by_hx.setdefault((h, x), {})[y] = v
    eps = {c: v for (_, c), v in H.counit.entries.items()}
    rows = []
    zero = field.zero
    keys = set(rows_by_hx)
    for h in range(Hs.dim):
        e = eps.get(h, zero)
        if not e:
            continue
        for x in range(X.dim):
            keys.add((h, x))
    for (h, x) in sorted(keys):
        row = dict(rows_by_hx.get((h, x), {}))
        e = eps.get(h, zero)
        if e:
            w = row.get(x, zero) - e
            if w:
                row[x] = w
            else:
                row.pop(x, None)
        if row:
            rows.append(row)
    from .linalg import _rref

    echelon = _rref(rows, field)
    pivot_set = {c for c, _ in echelon}
    dual = dual_space(X)
    basis = []
    for j in range(dual.dim):
        if j in pivot_set:
            continue
        entries = {j: field.one}
        for c, row in echelon:
            v = row.get(j)
            if v:
                entries[c] = -v
        basis.append(Vector(dual, entries))

    class _Sub:
        pass

    sub = _Sub()
    sub.ambient = dual
    sub.domain = X
    sub.basis = basis
    sub.dim = len(basis)
    return sub


def build_module_algebra_complex(Aact: ModuleAlgebra, M: ModuleComodule, N) -> CocyclicModule:
    """Degree-n space: H-linear functionals on M⊗A^{⊗(n+1)} (diagonal twisted
    action).  The last coface multiplies the antipode-twisted last argument
    into the first; the cyclic operator rotates it to the front.  For a
    trivial Hopf algebra and trivial coefficient this is the classical cyclic
    cochain complex of the algebra."""
    H, Hs, Ms, As = Aact.hopf, Aact.hopf.space, M.space, Aact.space
    s_inv = H.antipode_inverse()
    subs = [invariant_functionals(Aact, M, n) for n in range(N + 1)]
    solvers = [SubspaceSolver(s.basis) for s in subs]
    spaces = [_abstract_space(As.field, n, subs[n].dim, "φ") for n in range(N + 1)]
    descriptions = [[v.describe() for v in subs[n].basis] for n in range(N + 1)]

    def pre_merge(n, i):
        legs = [Ms] + [As] * (n + 1)
        return Chain(legs).apply(Aact.mult, 1 + i, 2, [As]).to_map()

    def pre_insert(n, i):
        legs = [Ms] + [As] * (n + 1)
        return Chain(legs).apply(Aact.unit_map(), 2 + i, 0, [As]).to_map()

    def pre_wrap(n, multiply_front):
        legs = [Ms] + [As] * (n + 1)
        chain = Chain(legs).apply(M.coaction, 0, 1, [Hs, Ms]).apply(s_inv, 0, 1, [Hs])
        # legs: S⁻¹(m⟨−1⟩), m⟨0⟩, a0..an
        order = [1, 0, n + 2] + list(range(2, n + 2))
        chain.permute(order).apply(Aact.action, 1, 2, [As])
        if multiply_front:
            chain.apply(Aact.mult, 1, 2, [As])
        return chain.to_map()

    def functional(vec, n):
        return vector_to_functional(vec, subs[n].domain)

    def image_of(phi_vec, W, n_src, n_dst):
        composed = functional(phi_vec, n_src) @ W
        from .linalg import functional_to_vector

        return functional_to_vector(composed, subs[n_dst].ambient)

    cofaces, codegens, cyclic = {}, {}, {}
    for n in range(N + 1):
        if n >= 1:
            ops = []
            for i in range(n):
                W = pre_merge(n, i)
                images = [
                    _express(solvers[n], image_of(v, W, n - 1, n), "coface δ_%d" % i, k, n)
                    for k, v in enumerate(subs[n - 1].basis)
                ]
                ops.append(_matrix_from_images(images, subs[n - 1].dim, spaces[n], spaces[n - 1]))
            W = pre_wrap(n, True)
            images = [
                _express(solvers[n], image_of(v, W, n - 1, n), "coface δ_%d" % n, k, n)
                for k, v in enumerate(subs[n - 1].basis)
            ]
            ops.append(_matrix_from_images(images, subs[n - 1].dim, spaces[n], spaces[n - 1]))
            cofaces[n] = ops
        if n + 1 <= N:
            ops = []
            for i in range(n + 1):
                W = pre_insert(n, i)
                images = [
                    _express(solvers[n], image_of(v, W, n + 1, n), "codegeneracy σ_%d" % i, k, n)
                    for k, v in enumerate(subs[n + 1].basis)
                ]
                ops.append(_matrix_from_images(images, subs[n + 1].dim, spaces[n], spaces[n + 1]))
            codegens[n] = ops
        W = pre_wrap(n, False)
        images = [
            _express(solvers[n], image_of(v, W, n, n), "cyclic τ_%d" % n, k, n)
            for k, v in enumerate(subs[n].basis)
        ]
        cyclic[n] = _matrix_from_images(images, subs[n].dim, spaces[n], spaces[n])
    return CocyclicModule("module-algebra", As.field, N, spaces, cofaces,
                          codegens, cyclic, descriptions, subs)


def _identity_failure(name, lhs, rhs, module, degree):
    col = maps_first_difference(lhs, rhs)
    if col is None:
        return None
    desc = module.ambient_descriptions[degree]
    label = desc[col] if col < len(desc) else str(col)
    return results.failed(
        name,
        "degree %d, basis element %d = %s" % (degree, col, label),
        lhs.column(col),
        rhs.column(col),
    )


def verify_cocyclic_identities(X: CocyclicModule) -> CheckResult:
    """All cosimplicial, mixed, and cyclic identities up to the ladder top,
    as exact matrix identities, including τ_n^{n+1} = id."""
    N = X.max_degree
    checks = []

    def add(name, lhs, rhs, src_degree):
        fail = _identity_failure(name, lhs, rhs, X, src_degree)
        checks.append(fail if fail is not None else results.passed(name))
        return fail is None

    for n in range(2, N + 1):
        for j in range(n + 1):
            for i in range(j):
                add("δ_%d∘δ_%d = δ_%d∘δ_%d (deg %d)" % (j, i, i, j - 1, n - 2),
                    X.coface(n, j) @ X.coface(n - 1, i),
                    X.coface(n, i) @ X.coface(n - 1, j - 1),
                    n - 2)
    for n in range(0, N - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                add("σ_%d∘σ_%d = σ_%d∘σ_%d (deg %d)" % (j, i, i, j + 1, n + 2),
                    X.codegeneracy(n, j) @ X.codegeneracy(n + 1, i),
                    X.codegeneracy(n, i) @ X.codegeneracy(n + 1, j + 1),
                    n + 2)
    for m in range(0, N):
        # σ_j ∘ δ_i on degree m
        for j in range(m + 1):
            for i in range(m + 2):
                lhs = X.codegeneracy(m, j) @ X.coface(m + 1, i)
                if i < j:
                    rhs = X.coface(m, i) @ X.codegeneracy(m - 1, j - 1)
                    name = "σ_%d∘δ_%d = δ_%d∘σ_%d (deg %d)" % (j, i, i, j - 1, m)
                elif i in (j, j + 1):
                    rhs = identity(X.spaces[m])
                    name = "σ_%d∘δ_%d = id (deg %d)" % (j, i, m)
                else:
                    rhs = X.coface(m, i - 1) @ X.codegeneracy(m - 1, j)
                    name = "σ_%d∘δ_%d = δ_%d∘σ_%d (deg %d)" % (j, i, i - 1, j, m)
                add(name, lhs, rhs, m)
    for n in range(1, N + 1):
        add("τ_%d∘δ_0 = δ_%d (deg %d)" % (n, n, n - 1),
            X.tau(n) @ X.coface(n, 0), X.coface(n, n), n - 1)
        for i in range(1, n + 1):
            add("τ_%d∘δ_%d = δ_%d∘τ_%d (deg %d)" % (n, i, i - 1, n - 1, n - 1),
                X.tau(n) @ X.coface(n, i),
                X.coface(n, i - 1) @ X.tau(n - 1),
                n - 1)
    for n in range(0, N):
        add("τ_%d∘σ_0 = σ_%d∘τ_%d² (deg %d)" % (n, n, n + 1, n + 1),
            X.tau(n) @ X.codegeneracy(n, 0),
            X.codegeneracy(n, n) @ X.tau(n + 1) @ X.tau(n + 1),
            n + 1)
        for i in range(1, n + 1):
            add("τ_%d∘σ_%d = σ_%d∘τ_%d (deg %d)" % (n, i, i - 1, n + 1, n + 1),
                X.tau(n) @ X.codegeneracy(n, i),
                X.codegeneracy(n, i - 1) @ X.tau(n + 1),
                n + 1)
    for n in range(0, N + 1):
        add("τ_%d^%d = id (deg %d)" % (n, n + 1, n),
            X.tau(n).power(n + 1), identity(X.spaces[n]), n)
    return results.merge("cocyclic-identities", checks)


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

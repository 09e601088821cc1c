"""Reference oracle: the per-column ``Chain`` walk that ``Chain.entries()``
replaces, the per-cochain ``Chain`` walks that the library's pipeline
contractions replace, the whole-``Chain`` diagonal coactions, cotensor
spaces and coalgebra stability maps that the library reads from entries,
and the pairing twist P_n as the iterated-coaction walk that the library's
walk of the kept diagonal coactions replaced.
Each function rebuilds the whole computation the slow way, exactly as it
is written down, so a differential test can demand identical matrices from
the fast path.

The ``*_by_rows`` builders are the three hand-indexed constraint-row
builders that the library's one equalizer replaced, kept as they were
(without the size cap) over this module's diagonal coactions.

The next section keeps the per-cochain operator paths that the batched
walks replaced: the per-image coordinate loop, the precomposition over the
materialized fixed map, the per-map contraction of a ``(pre, at, nin,
post)`` pipeline (with the carrier-SAYD check written on it, over both AYD
sides and pipelines built afresh for every check) and the per-pair Ψ.

The next section keeps the module-algebra complex as it was built before it
became the comodule-algebra complex over the predual: the invariant
functionals as the equalizer of an iterated coproduct of H walked over every
input, and the last coface and τ_n written with the module action.

The next section keeps the comodule-coalgebra complex as it was built before
it became the comodule-algebra complex of the dual algebra C*: the cotensor
chains C^{⊗(n+1)} □_H M as the equalizer of ρ_diag⊗id and id⊗λ_M, and every
operator as a forward walk on C^{⊗(n+1)}⊗M.

The next section keeps the appenders that the library's coefficient maps
kept on M replaced: the action and the two AYD sides appended to the last
two legs (H, M) of a Chain that the caller passes in, and every kept map
built from them afresh.

The last section keeps the pairing check as it was before it walked each
identity as one Chain on X⊗Y: the diagonal complex, every operator the
Kronecker product of the two sides' matrices, and the check written on it.

The helpers just below are conversions that only the tests read."""

import itertools

import gf_oracle
from rref_oracle import SubspaceSolver
from hopfcyc.cocyclic import CocyclicModule, _assemble
from hopfcyc.linalg import (
    Chain,
    DimensionMismatch,
    LinMap,
    Space,
    Subspace,
    Vector,
    _free_columns,
    _null_vectors,
    _reduced,
    dual_space,
    hom_space,
    kernel_basis,
    tensor_power,
    tensor_space,
    unit_space,
    vector_to_linmap,
)
from hopfcyc.results import compare, merge, passed
from hopfcyc.symmetries import _equalizer, colinear_hom_space


def linmap_to_vector(f, hom_space):
    """A map as a vector of ``hom_space``, in hom coordinates."""
    return Vector(hom_space, hom_coords(f))


def vector_to_functional(vec, domain):
    """A vector in dual coordinates as the functional domain → ground field."""
    return LinMap(domain, unit_space(domain.field), {(0, c): v for c, v in vec.entries.items()})


def subspace_maps(sub):
    """The basis of a Subspace of a hom or dual space, as maps."""
    return [sub.map(v) for v in sub.basis]


def rotate_last_to_front(chain):
    """Append to ``chain`` the permutation that moves its last leg first."""
    n = len(chain.legs)
    return chain.permute([n - 1] + list(range(n - 1)))


def _flatten(dims, tup):
    flat = 0
    for d, i in zip(dims, tup):
        flat = flat * d + i
    return flat


def _unflatten(dims, flat):
    out = [0] * len(dims)
    for i in range(len(dims) - 1, -1, -1):
        out[i] = flat % dims[i]
        flat //= dims[i]
    return tuple(out)


def walk_entries(chain):
    """``chain.entries()`` computed by walking each domain basis column alone
    through every step, on index tuples; over GF(p) in ``GFElement``s."""
    library, field = chain.field, gf_oracle.oracle_field(chain.field)
    src_dims = [s.dim for s in chain.source_legs]
    out_dims = [s.dim for s in chain.legs]
    entries = {}
    for tup in itertools.product(*[range(d) for d in src_dims]):
        state = {tup: field.one}
        for step in chain.steps:
            if step[0] == "perm":
                state = {tuple(t[j] for j in step[1]): v for t, v in state.items()}
                continue
            _, f, at, in_dims, step_out = step
            nin = len(in_dims)
            new_state = {}
            for t, coeff in state.items():
                for r, v in f.by_col().get(_flatten(in_dims, t[at:at + nin]), ()):
                    nt = t[:at] + _unflatten(step_out, r) + t[at + nin:]
                    w = new_state.get(nt, field.zero) + coeff * gf_oracle.lift(library, v)
                    if w:
                        new_state[nt] = w
                    else:
                        del new_state[nt]
            state = new_state
        col = _flatten(src_dims, tup)
        for t, v in state.items():
            entries[(_flatten(out_dims, t), col)] = gf_oracle.lower(v)
    return entries


def _iterated_left_coaction(coaction, Hs, Bs, depth):
    """B → H^{⊗depth} ⊗ B, outermost leg first."""
    chain = Chain([Bs])
    for i in range(depth):
        chain.apply(coaction, i, 1, [Hs, Bs])
    return chain.to_map()


def twist_chain(pairing, n):
    """P_n: (A⊗B)^{⊗(n+1)} → B^{⊗(n+1)} ⊗ A^{⊗(n+1)} as the library built it
    before it walked the kept diagonal coactions: the coaction on b_i
    iterated to depth i+1 and each a_j acted on by S⁻¹ of the product of the
    legs that land on it."""
    Aact, B, H = pairing.action_algebra, pairing.comodule_algebra, pairing.hopf
    As, Bs, Hs = Aact.space, B.space, H.space
    s_inv = H.antipode_inverse()
    chain = Chain([As, Bs] * (n + 1))
    chain.permute([2 * i + 1 for i in range(n + 1)] + [2 * i for i in range(n + 1)])
    for i in range(n, -1, -1):
        it = _iterated_left_coaction(B.coaction, Hs, Bs, i + 1)
        chain.apply(it, i, 1, [Hs] * (i + 1) + [Bs])
    starts, pos = [], 0
    for i in range(n + 1):
        starts.append(pos)
        pos += i + 2
    order = [starts[i] + i + 1 for i in range(n + 1)]
    for j in range(n + 1):
        order += [starts[i] + i - j for i in range(j, n + 1)]
        order += [pos + j]
    chain.permute(order)
    p = n + 1
    for j in range(n + 1):
        for _ in range(n - j):
            chain.apply(H.mult, p, 2, [Hs])
        chain.apply(s_inv, p, 1, [Hs])
        chain.apply(Aact.action, p, 2, [As])
        p += 1
    return chain


def psi_on_pair(pairing, phi_vec, psi_vec, n):
    """Ψ(φ⊗ψ) as a functional on (A⋊B)^{⊗(n+1)}; φ and ψ are ambient
    vectors (dual coordinates and hom coordinates respectively)."""
    As, Bs, Ms = pairing.action_algebra.space, pairing.comodule_algebra.space, pairing.M.space
    phi = vector_to_functional(phi_vec, tensor_space(Ms, *([As] * (n + 1))))
    psi = vector_to_linmap(psi_vec, tensor_space(*([Bs] * (n + 1))), Ms)
    chain = twist_chain(pairing, n)
    chain.apply(psi, 0, n + 1, [Ms])
    chain.apply(phi, 0, n + 2, [])
    return chain.to_map()


def psi_matrix(pairing, n):
    """Ψ_n built pair by pair, on subspace bases solved afresh."""
    phis = invariant_functionals_by_coproduct(pairing.action_algebra, pairing.M, n).basis
    psis = colinear_hom_space(pairing.comodule_algebra, pairing.M, n).basis
    entries = {}
    for i, phi_vec in enumerate(phis):
        for j, psi_vec in enumerate(psis):
            func = psi_on_pair(pairing, phi_vec, psi_vec, n)
            for (_, c), v in func.entries.items():
                entries[(c, i * len(psis) + j)] = v
    return LinMap(tensor_space(pairing.module_side.spaces[n], pairing.comodule_side.spaces[n]),
                  pairing.target.spaces[n], entries)


def wrap_chain(A, M, phi, n, multiply_front):
    """The last coface (multiply_front) or the cyclic operator of the
    comodule-algebra complex applied to one colinear map φ."""
    Hs, Ms, As = A.hopf.space, M.space, A.space
    chain = rotate_last_to_front(Chain([As] * (n + 1))).apply(
        A.left_coaction(), 0, 1, [Hs, As])
    if multiply_front:
        chain.apply(A.mult, 1, 2, [As])
    slots = n if multiply_front else n + 1
    chain.apply(phi, 1, slots, [Ms]).permute([1, 0]).apply(M.action, 0, 2, [Ms])
    return chain.to_map()


def wrap_matrices(A, M, N):
    """{n: (δ_n entries or None at n = 0, τ_n entries)} of the
    comodule-algebra complex, image by image on subspaces solved afresh."""
    subs = [colinear_hom_space(A, M, n) for n in range(N + 1)]
    out = {}
    for n in range(N + 1):
        solver = SubspaceSolver(subs[n].basis)
        mats = []
        for src, front in ((n - 1, True), (n, False)):
            if src < 0:
                mats.append(None)
                continue
            entries = {}
            for k, phi in enumerate(subspace_maps(subs[src])):
                image = linmap_to_vector(wrap_chain(A, M, phi, n, front), subs[n].ambient)
                coords = solver.coords(image)
                assert coords is not None, "image of φ_%d escapes at degree %d" % (k, n)
                for r, v in coords.items():
                    entries[(r, k)] = v
            mats.append(entries)
        out[n] = tuple(mats)
    return out


def carrier_ayd_sides(A, M, phi, n):
    """Both sides of the carrier-relative AYD identity for one colinear map."""
    H, Hs, Ms, As = A.hopf, A.hopf.space, M.space, A.space
    legs = [As] * (n + 1)
    coact = A.left_coaction()
    lhs = (
        Chain(legs)
        .apply(coact, 0, 1, [Hs, As])
        .apply(phi, 1, n + 1, [Ms])
        .permute([1, 0])
        .apply(M.action, 0, 2, [Ms])
        .apply(M.coaction, 0, 1, [Hs, Ms])
        .to_map()
    )
    rhs = (
        Chain(legs)
        .apply(coact, 0, 1, [Hs, As])
        .apply(H.iterated_comult(2), 0, 1, [Hs, Hs, Hs])
        .apply(phi, 3, n + 1, [Ms])
        .apply(M.coaction, 3, 1, [Hs, Ms])
        .permute([2, 3, 0, 4, 1])
        .apply(H.antipode, 0, 1, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .apply(H.mult, 0, 2, [Hs])
        .apply(M.action, 1, 2, [Ms])
        .to_map()
    )
    return lhs, rhs


def stability_map(A, M, phi, n):
    """ã ↦ φ(ã⟨0⟩)◁ã⟨−1⟩ for one colinear map φ."""
    Hs, Ms, As = A.hopf.space, M.space, A.space
    legs = [As] * (n + 1)
    return (
        Chain(legs)
        .apply(diag_left_coaction(A, n + 1), 0, n + 1, [Hs] + legs)
        .apply(phi, 1, n + 1, [Ms])
        .permute([1, 0])
        .apply(M.action, 0, 2, [Ms])
        .to_map()
    )


def diag_left_coaction(A, k):
    """A^{⊗k} → H ⊗ A^{⊗k} through A^{⊗k} coacted leg by leg: all k coaction
    legs moved to the front, then multiplied."""
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


def diag_right_coaction(C, k):
    """C^{⊗k} → C^{⊗k} ⊗ H through C^{⊗k} ⊗ H^{⊗k}, then the H legs
    multiplied."""
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


def cotensor_space(C, M, n, rho):
    """C^{⊗(n+1)} □_H M as the kernel of the materialized ρ⊗id − id⊗λ_M,
    for ρ = diag_right_coaction(C, n + 1)."""
    Cs, Hs, Ms = C.space, C.hopf.space, M.space
    k = n + 1
    legs = [Cs] * k + [Ms]
    left = Chain(legs).apply(rho, 0, k, [Cs] * k + [Hs]).to_map()
    right = Chain(legs).apply(M.coaction, k, 1, [Hs, Ms]).to_map()
    diff = left - right
    return Subspace(diff.domain, kernel_basis(diff))


def coalgebra_stability_map(C, M, k, rho):
    """The map c̃ ⊗ m ↦ c̃⟨0⟩ ⊗ m◁c̃⟨1⟩ on C^{⊗k} ⊗ M, materialized, for
    ρ = diag_right_coaction(C, k)."""
    Cs, Hs, Ms = C.space, C.hopf.space, M.space
    return (
        Chain([Cs] * k + [Ms])
        .apply(rho, 0, k, [Cs] * k + [Hs])
        .permute(list(range(k)) + [k + 1, k])
        .apply(M.action, k, 2, [Ms])
        .to_map()
    )


def colinear_hom_space_by_rows(A, M, n):
    """The left-colinear maps A^{⊗(n+1)} → M, one constraint row per input
    a, H leg h and coefficient index m, written out from the two
    coactions."""
    if A.side != "left":
        raise ValueError("colinear hom spaces need a left comodule algebra")
    field = A.space.field
    dom = tensor_power(A.space, n + 1)
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
    ambient = hom_space(dom, M.space)
    return Subspace(ambient, _null_vectors(rows, ambient), dom, M.space)


def cotensor_space_by_rows(C, M, n):
    """C^{⊗(n+1)} □_H M, one constraint row per index of C^{⊗(n+1)}⊗H⊗M,
    written out from the two coactions."""
    Cs, Hs, Ms = C.space, C.hopf.space, M.space
    k = n + 1
    Hdim, Mdim, Cdim = Hs.dim, Ms.dim, Cs.dim ** k
    zero = Cs.field.zero
    # row (c'·dim H + h)·dim M + m' of the column c·dim M + m
    rows = {}
    for (r, c), v in diag_right_coaction(C, k).entries.items():
        for m in range(Mdim):
            rows.setdefault(r * Mdim + m, {})[c * Mdim + m] = v
    for (r, m), v in M.coaction.entries.items():
        h, mp = divmod(r, Mdim)
        for c in range(Cdim):
            row = rows.setdefault((c * Hdim + h) * Mdim + mp, {})
            key = c * Mdim + m
            w = row.get(key, zero) - v
            if w:
                row[key] = w
            else:
                del row[key]
    ambient = tensor_space(*([Cs] * k + [Ms]))
    return Subspace(ambient, _null_vectors([rows[r] for r in sorted(rows) if rows[r]], ambient))


def invariant_functionals_by_rows(Aact, M, n):
    """The H-linear functionals on M⊗A^{⊗(n+1)}, one constraint row per
    (h, x), written out from the materialized action and the counit."""
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
    dual = dual_space(X)
    return Subspace(dual, _null_vectors(rows, dual), X, unit_space(field))


# ---------------------------------------------------------------------------
# the per-cochain operator paths that the batched walks replaced, kept as
# they were: the per-image coordinate loop, the precomposition over the
# materialized fixed map, the per-map contraction and the per-pair Ψ
# ---------------------------------------------------------------------------


def subspace_coords(sub, vec):
    """``Subspace.coords`` as it was: coefficient k is vec's entry at j_k,
    and vec is in the span iff it equals the combination they give."""
    if vec.space.dim != sub.ambient.dim:
        raise DimensionMismatch("membership test across different spaces")
    free = _free_columns(sub.basis)
    coords = {free[j]: c for j, c in vec.entries.items() if j in free}
    rest = dict(vec.entries)
    for k, c in coords.items():
        for i, v in sub.basis[k].entries.items():
            w = rest.get(i, 0) - c * v
            if w:
                rest[i] = w
            else:
                del rest[i]
    p = sub.ambient.field.modulus
    return None if (rest if p is None else _reduced(rest, p)) else coords


def coords_by_image(sub, images):
    """The per-image loop of the complex assembly: ``(entries, None)`` with
    entry (k, i) the coefficient k of image i, or ``(None, i)`` for the
    first image (a Vector) that escapes."""
    entries = {}
    for k, image in enumerate(images):
        coords = subspace_coords(sub, image)
        if coords is None:
            return None, k
        for r, v in coords.items():
            entries[(r, k)] = v
    return entries, None


def precompose(subs, n, src, chain):
    """φ ↦ φ ∘ chain, from the degree-src subspace to the degree-n one, on
    hom coordinates: the fixed map is indexed by row once, so each φ visits
    only the rows at its own columns."""
    fixed = chain.to_map()
    rows = {}
    for (k, c), v in fixed.entries.items():
        rows.setdefault(k, []).append((c, v))
    zero = fixed.field.zero
    src_dim, dim = subs[src].domain.dim, fixed.domain.dim

    def op(vec):
        out = {}
        for flat, w in vec.entries.items():
            r, k = divmod(flat, src_dim)
            for c, v in rows.get(k, ()):
                key = r * dim + c
                out[key] = out.get(key, zero) + w * v
        return Vector(subs[n].ambient, out)

    return op


def contract(pipeline, f):
    """post ∘ (id ⊗ f ⊗ id) ∘ pre for a pipeline ``(pre, at, nin, post)``: f
    on legs ``at .. at+nin-1`` of the Chain ``pre``, whose legs with f's
    codomain in their place are the source of ``post`` (a Chain or a
    LinMap), as a map from pre's source legs, through one LinMap per map."""
    pre, at, nin, post = pipeline
    middle = Chain(pre.legs).apply(f, at, nin, [f.codomain]).to_map()
    if isinstance(post, Chain):
        post = post.to_map()
    return post @ middle @ pre.to_map()


def hom_coords(f):
    """A map's raw hom coordinates, index row·dim(domain) + col."""
    ddim = f.domain.dim
    return {r * ddim + c: v for (r, c), v in f.entries.items()}


def carrier_sayd_pipelines(A, M, n):
    """The two AYD sides and the stability map at degree n, as the library
    built them before it walked the cochains' hom coordinates: three
    ``(pre, at, nin, post)`` pipelines of fresh Chains over this module's
    diagonal coaction, none read from a cache on A or M."""
    Hs, Ms, As = A.hopf.space, M.space, A.space
    legs = [As] * (n + 1)
    coact = Chain(legs).apply(A.left_coaction(), 0, 1, [Hs, As])
    diag = Chain(legs).apply(diag_left_coaction(A, n + 1), 0, n + 1, [Hs] + legs)
    return ((coact, 1, n + 1, append_ayd_lhs(Chain([Hs, Ms]), M)),
            (coact, 1, n + 1, append_ayd_rhs(Chain([Hs, Ms]), M)),
            (diag, 1, n + 1, append_act(Chain([Hs, Ms]), M)))


def check_sayd_over_algebra_by_map(A, M, n_max=2):
    """``check_sayd_over_algebra`` as it was: both sides and the stability
    map contracted with each colinear map φ in turn and compared as maps."""
    verdicts = []
    for n in range(n_max + 1):
        sub = colinear_hom_space(A, M, n)
        dims_note = "n=%d, dim=%d" % (n, sub.dim)
        if sub.dim:
            lhs_p, rhs_p, stab_p = carrier_sayd_pipelines(A, M, n)
        for k, phi in enumerate(subspace_maps(sub)):
            def at(col):
                return "n=%d, φ_%d, input %s" % (n, k, phi.domain.label(col))

            res = compare("carrier-ayd-algebra", contract(lhs_p, phi), contract(rhs_p, phi),
                          at, detail=dims_note)
            if res:
                res = compare("carrier-stability-algebra", contract(stab_p, phi), phi,
                              at, detail=dims_note)
            if not res:
                return res
        verdicts.append(dims_note)
    return passed("sayd-over-algebra", detail="; ".join(verdicts))


def psi_matrix_by_pair(pairing, n):
    """``CrossedPairing.psi_matrix`` as it was: each ψ contracted into the
    twist pipeline as a map, then one functional product per (φ, ψ)."""
    phis = pairing.module_side.subspaces[n].basis
    psis = subspace_maps(pairing.comodule_side.subspaces[n])
    Ms, As = pairing.M.space, pairing.action_algebra.space
    twist = (twist_chain(pairing, n), 0, n + 1, Chain([Ms] + [As] * (n + 1)))
    entries = {}
    dy = len(psis)
    for j, psi in enumerate(psis):
        twisted = contract(twist, psi)
        for i, phi_vec in enumerate(phis):
            func = vector_to_functional(phi_vec, twisted.codomain) @ twisted
            col = i * dy + j
            for (_, c), v in func.entries.items():
                entries[(c, col)] = v
    return LinMap(tensor_space(pairing.module_side.spaces[n], pairing.comodule_side.spaces[n]),
                  pairing.target.spaces[n], entries)


# ---------------------------------------------------------------------------
# the module-algebra complex as it was: the iterated-coproduct equalizer and
# the last coface and τ_n written with the module action
# ---------------------------------------------------------------------------


def invariant_functionals_by_coproduct(Aact, M, n):
    """The H-invariant functionals on M⊗A^{⊗(n+1)} as the equalizer of
    f ↦ f∘(h·) and f ↦ ε(h)f, with h·(m⊗ã) = m◁S(h⁽¹⁾) ⊗ h⁽²⁾▷a₀ ⊗ … walked
    through an iterated coproduct of H over every input (no size cap)."""
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
    # α = f ↦ f∘(h·) and β = f ↦ ε(h)f, both at row h·dim X + x
    X = tensor_space(*legs)
    alpha = {}
    for (y, col), v in chain.entries().items():
        alpha.setdefault(col, {})[y] = v
    beta = ((h * X.dim + x, x, e) for (_, h), e in H.counit.entries.items() for x in range(X.dim))
    dual = dual_space(X)
    return Subspace(dual, _equalizer(dual, alpha, beta), X, unit_space(As.field))


def module_rotation(Aact, M, n, multiply_front):
    """The last coface (multiply_front) or τ_n of the module-algebra complex,
    φ ↦ φ∘(m⊗ã ↦ m⟨0⟩ ⊗ (S⁻¹(m⟨−1⟩)▷aₙ)a₀ ⊗ a₁ ⊗ …), or with
    S⁻¹(m⟨−1⟩)▷aₙ as its own first argument, as a transposed walk from φ's
    coordinates."""
    Hs, Ms, As = Aact.hopf.space, M.space, Aact.space
    chain = Chain([Ms] + [As] * (n + 1)).apply(M.coaction, 0, 1, [Hs, Ms])
    chain.apply(Aact.hopf.antipode_inverse(), 0, 1, [Hs])
    # legs: S⁻¹(m⟨−1⟩), m⟨0⟩, a0..an
    order = [1, 0, n + 2] + list(range(2, n + 2))
    chain.permute(order).apply(Aact.action, 1, 2, [As])
    if multiply_front:
        chain.apply(Aact.mult, 1, 2, [As])
    return chain.transposed().walk


def module_algebra_complex_by_coproduct(Aact, M, N):
    """The module-algebra complex on ``invariant_functionals_by_coproduct``,
    with ``module_rotation`` as its last coface and τ_n and the inner cofaces
    and codegeneracies as precompositions, through the library's assembly."""
    Ms, As = M.space, Aact.space
    subs = [invariant_functionals_by_coproduct(Aact, M, n) for n in range(N + 1)]

    def coface(n, i):
        if i == n:
            return module_rotation(Aact, M, n, True)
        return Chain([Ms] + [As] * (n + 1)).apply(Aact.mult, 1 + i, 2, [As]).transposed().walk

    def codegeneracy(n, i):
        return Chain([Ms] + [As] * (n + 1)).apply(
            Aact.unit_map(), 2 + i, 0, [As]).transposed().walk

    return _assemble("module-algebra", As.field, N, subs, "φ", coface, codegeneracy,
                     lambda n: module_rotation(Aact, M, n, False))


# ---------------------------------------------------------------------------
# the comodule-coalgebra complex as it was: cotensor chains and forward
# pipelines on C^{⊗(n+1)}⊗M
# ---------------------------------------------------------------------------


def comodule_coalgebra_complex_by_cotensor(C, M, N):
    """The comodule-coalgebra complex on ``cotensor_space_by_rows``, each
    operator walked forward from the cotensor basis, through the library's
    assembly: inner cofaces insert Δ, the last coface splits the first leg
    and acts on the coefficient, codegeneracies apply ε, and τ_n rotates the
    first leg to the back through its coaction."""
    Hs, Ms, Cs = C.hopf.space, M.space, C.space
    subs = [cotensor_space_by_rows(C, M, n) for n in range(N + 1)]

    def coface(n, i):
        chain = Chain([Cs] * n + [Ms])
        if i < n:
            return chain.apply(C.comult, i, 1, [Cs, Cs]).walk
        # c₀⊗…⊗c_{n−1}⊗m ↦ c₀⁽²⁾⊗c₁⊗…⊗c_{n−1}⊗c₀⁽¹⁾⟨0⟩⊗m◁c₀⁽¹⁾⟨1⟩
        chain.apply(C.comult, 0, 1, [Cs, Cs]).apply(C.coaction, 0, 1, [Cs, Hs])
        # legs: c01_0, c01_1, c02, c1..c_{n−1}, m
        order = [2] + list(range(3, n + 2)) + [0, n + 2, 1]
        return chain.permute(order).apply(M.action, n + 1, 2, [Ms]).walk

    def codegeneracy(n, i):
        return Chain([Cs] * (n + 2) + [Ms]).apply(C.counit, i + 1, 1, []).walk

    def cyclic(n):
        chain = Chain([Cs] * (n + 1) + [Ms]).apply(C.coaction, 0, 1, [Cs, Hs])
        # legs: c0_0, c0_1, c1..cn, m
        order = list(range(2, n + 2)) + [0, n + 2, 1]
        return chain.permute(order).apply(M.action, n + 1, 2, [Ms]).walk

    return _assemble("comodule-coalgebra", Cs.field, N, subs, "w", coface, codegeneracy, cyclic)


def append_act(chain, M):
    """Append h⊗m ↦ m◁h on the last two legs (H, M) of ``chain``."""
    p = len(chain.legs) - 2
    return chain.permute(list(range(p)) + [p + 1, p]).apply(M.action, p, 2, [M.space])


def append_ayd_lhs(chain, M):
    """Append h⊗m ↦ λ_M(m◁h), the left side of the AYD identity, on the last
    two legs (H, M) of ``chain``."""
    p = len(chain.legs) - 2
    return append_act(chain, M).apply(M.coaction, p, 1, [M.hopf.space, M.space])


def append_ayd_rhs(chain, M):
    """Append h⊗m ↦ S(h⁽³⁾)m⟨−1⟩h⁽¹⁾ ⊗ m⟨0⟩◁h⁽²⁾, the right side of the AYD
    identity, on the last two legs (H, M) of ``chain``."""
    H, Hs, Ms = M.hopf, M.hopf.space, M.space
    p = len(chain.legs) - 2
    return (
        chain.apply(H.iterated_comult(2), p, 1, [Hs] * 3)
        .apply(M.coaction, p + 3, 1, [Hs, Ms])
        .permute(list(range(p)) + [p + 2, p + 3, p, p + 4, p + 1])
        .apply(H.antipode, p, 1, [Hs])
        .apply(H.mult, p, 2, [Hs])
        .apply(H.mult, p, 2, [Hs])
        .apply(M.action, p + 1, 2, [Ms])
    )


def coefficient_maps(M):
    """The maps the library keeps on M, each built by the appenders on fresh
    Chains: the action and the AYD sides L and R on H⊗M, L − R, and the
    stability map m ↦ m⟨0⟩◁m⟨−1⟩ on M."""
    Hs, Ms = M.hopf.space, M.space
    act = append_act(Chain([Hs, Ms]), M).to_map()
    lhs = append_ayd_lhs(Chain([Hs, Ms]), M).to_map()
    rhs = append_ayd_rhs(Chain([Hs, Ms]), M).to_map()
    stab = append_act(Chain([Ms]).apply(M.coaction, 0, 1, [Hs, Ms]), M).to_map()
    return {"act": act, "lhs": lhs, "rhs": rhs, "difference": lhs - rhs, "stab": stab}


# ---------------------------------------------------------------------------
# the pairing check as it was: the diagonal complex X⊗Y with Kronecker-product
# operators δ_i⊗δ_i, σ_i⊗σ_i and τ⊗τ, and Ψ compared on it
# ---------------------------------------------------------------------------


def tensor_map(f, g):
    """f ⊗ g with the row-major index convention on both sides."""
    dom = tensor_space(f.domain, g.domain)
    cod = tensor_space(f.codomain, g.codomain)
    entries = {}
    gdr, gdc = g.codomain.dim, g.domain.dim
    for (rf, cf), vf in f.entries.items():
        for (rg, cg), vg in g.entries.items():
            entries[(rf * gdr + rg, cf * gdc + cg)] = vf * vg
    return LinMap(dom, cod, entries)


def diagonal_complex(X, Y, N):
    """Degreewise tensor product of two cocyclic modules up to degree N, with
    operators δ⊗δ, σ⊗σ, τ⊗τ and basis descriptions (da)⊗(db)."""
    if N > min(X.max_degree, Y.max_degree):
        raise ValueError("diagonal complex degree exceeds the factors")
    spaces = [Space(tuple("%s⊗%s" % (a, b) for a in X.spaces[n].labels
                          for b in Y.spaces[n].labels), X.field) for n in range(N + 1)]

    def relabeled(f, domain, codomain):
        return LinMap(domain, codomain, f.entries)

    def descriptions():
        return [["(%s)⊗(%s)" % (da, db) for da in X.ambient_descriptions[n]
                 for db in Y.ambient_descriptions[n]] for n in range(N + 1)]

    cofaces = {n: [relabeled(tensor_map(X.coface(n, i), Y.coface(n, i)), spaces[n - 1], spaces[n])
                   for i in range(n + 1)] for n in range(1, N + 1)}
    codegens = {n: [relabeled(tensor_map(X.codegeneracy(n, i), Y.codegeneracy(n, i)),
                              spaces[n + 1], spaces[n]) for i in range(n + 1)]
                for n in range(N)}
    cyclic = {n: relabeled(tensor_map(X.tau(n), Y.tau(n)), spaces[n], spaces[n])
              for n in range(N + 1)}
    return CocyclicModule("diagonal", X.field, N, spaces, cofaces, codegens, cyclic,
                          descriptions)


def check_cocyclic_map_on_diagonal(pairing, N):
    """``CrossedPairing.check_cocyclic_map(N)`` as it was: Ψ_n ∘ (f⊗g) with
    f⊗g the diagonal complex's Kronecker product, compared with T ∘ Ψ_m and
    located by the diagonal's basis labels."""
    diagonal, target = diagonal_complex(pairing.module_side, pairing.comodule_side, N), pairing.target
    psi, checks = pairing.psi_matrix, []

    def locate(degree):
        return lambda col: "degree %d, basis %s" % (degree, diagonal.basis_label(degree, col))

    for n in range(N + 1):
        if n >= 1:
            for i in range(n + 1):
                checks.append(compare("pairing∘δ_%d = δ_%d∘pairing (deg %d)" % (i, i, n),
                                      psi(n) @ diagonal.coface(n, i),
                                      target.coface(n, i) @ psi(n - 1), locate(n - 1)))
        if n + 1 <= N:
            for i in range(n + 1):
                checks.append(compare("pairing∘σ_%d = σ_%d∘pairing (deg %d)" % (i, i, n),
                                      psi(n) @ diagonal.codegeneracy(n, i),
                                      target.codegeneracy(n, i) @ psi(n + 1), locate(n + 1)))
        checks.append(compare("pairing∘τ_%d = τ_%d∘pairing" % (n, n), psi(n) @ diagonal.tau(n),
                              target.tau(n) @ psi(n), locate(n)))
    return merge("pairing-cocyclic-map", checks)

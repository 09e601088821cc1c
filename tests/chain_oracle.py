"""Reference oracle: the per-cochain ``Chain`` walks that the library's
pipeline contractions replace.  Each function rebuilds the whole pipeline for
one cochain, exactly as the operators are written down, so a differential
test can demand identical matrices from the fast path."""

from hopfcyc.cocyclic import invariant_functionals
from hopfcyc.cup import _iterated_left_coaction
from hopfcyc.linalg import (
    Chain,
    LinMap,
    SubspaceSolver,
    linmap_to_vector,
    tensor_space,
    vector_to_functional,
    vector_to_linmap,
)
from hopfcyc.symmetries import colinear_hom_space, diag_left_coaction


def psi_on_pair(pairing, phi_vec, psi_vec, n):
    """Ψ(φ⊗ψ) as a functional on (A⋊B)^{⊗(n+1)}; φ and ψ are ambient
    vectors (dual coordinates and hom coordinates respectively)."""
    Aact, B, M, H = (pairing.action_algebra, pairing.comodule_algebra,
                     pairing.M, pairing.hopf)
    As, Bs, Hs, Ms = Aact.space, B.space, H.space, M.space
    s_inv = H.antipode_inverse()
    phi = vector_to_functional(phi_vec, tensor_space(Ms, *([As] * (n + 1))))
    psi = vector_to_linmap(psi_vec, tensor_space(*([Bs] * (n + 1))), Ms)

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
    chain.apply(psi, 0, n + 1, [Ms])
    chain.apply(phi, 0, n + 2, [])
    return chain.to_map()


def psi_matrix(pairing, n):
    """Ψ_n built pair by pair, on subspace bases solved afresh."""
    phis = invariant_functionals(pairing.action_algebra, pairing.M, n).basis
    psis = colinear_hom_space(pairing.comodule_algebra, pairing.M, n).basis
    entries = {}
    for i, phi_vec in enumerate(phis):
        for j, psi_vec in enumerate(psis):
            func = psi_on_pair(pairing, phi_vec, psi_vec, n)
            for (_, c), v in func.entries.items():
                entries[(c, i * len(psis) + j)] = v
    return LinMap(pairing.diagonal.spaces[n], pairing.target.spaces[n], entries)


def wrap_chain(A, M, phi, n, multiply_front):
    """The last coface (multiply_front) or the cyclic operator of the
    comodule-algebra complex applied to one colinear map φ."""
    Hs, Ms, As = A.hopf.space, M.space, A.space
    chain = Chain([As] * (n + 1)).rotate_last_to_front().apply(
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
            for k, phi in enumerate(subs[src].maps()):
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

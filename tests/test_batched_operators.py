"""The batched operator paths against the per-cochain paths they replaced,
kept in ``chain_oracle``: ``Subspace.express`` and its row kernel
``express_rows`` against the per-image coordinate loop, the transposed walk
against φ ∘ chain, the carrier-SAYD walks against the per-map contraction,
the carrier-SAYD check, the complex matrices and Ψ against their per-map and
per-pair forms; over ℚ, GF(7) and GF(2)."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from hopfcyc.cocyclic import (
    CocyclicConstructionError,
    build_comodule_algebra_complex,
    build_module_algebra_complex,
    invariant_functionals,
)
from hopfcyc.corpus import (
    classical_sayd_coefficients,
    comodule_algebras_for,
    crossed_product_instances,
    get_hopf,
)
from hopfcyc.cup import CrossedPairing
from hopfcyc.fields import GF, QQ
from hopfcyc.groups import symmetric_group
from hopfcyc.hopf import (
    counit_character,
    enumerate_characters,
    enumerate_group_likes,
    unit_group_like,
)
from hopfcyc.linalg import (
    Chain,
    LinMap,
    Space,
    Subspace,
    Vector,
    _null_vectors,
    tensor_space,
)
from hopfcyc.symmetries import (
    ModuleComodule,
    _ayd_difference,
    _ayd_sides,
    _carrier_ayd,
    _carrier_stability,
    _stability,
    adjoint_module_algebra,
    check_sayd_over_algebra,
    colinear_hom_space,
    regular_action_trivial_coaction,
    regular_coaction_trivial_action,
    regular_comodule_algebra,
    scalar_coefficients,
    translation_module_algebra,
    trivial_comodule_algebra,
    trivial_module_algebra,
)

import chain_oracle
from test_linalg import random_chains, space

FIELDS = [QQ, GF(7), GF(2)]
FIELD_IDS = ["Q", "GF7", "GF2"]
# every corpus Hopf algebra with comodule-algebra carriers
HOPF_NAMES = ["kZ2", "kZ3", "kS3", "dualZ3", "sweedler-h4",
              "bicrossed-s3-f3", "bicrossed-s3-f2"]


@st.composite
def subspaces_and_images(draw):
    """A canonical subspace of a space of dim 1-6 (the kernel of up to four
    random rows) and up to five images: combinations of its basis, some of
    them moved off it by a random vector."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 6))
    values = st.sampled_from([0, 0, 1, -1, 2, 3])
    rows = [{c: field.from_int(x) for c, x in enumerate(draw(
                st.lists(values, min_size=dim, max_size=dim))) if x}
            for _ in range(draw(st.integers(0, 4)))]
    ambient = space(dim, "e", field)
    sub = Subspace(ambient, _null_vectors(rows, ambient))
    images = []
    for _ in range(draw(st.integers(0, 5))):
        image = Vector(ambient, {})
        for b in sub.basis:
            image = image + b.scaled(field.from_int(draw(values)))
        if draw(st.booleans()):
            image = image + Vector(ambient, {i: field.from_int(x) for i, x in enumerate(
                draw(st.lists(values, min_size=dim, max_size=dim)))})
        images.append(image)
    return sub, images


@settings(max_examples=300, deadline=None)
@given(subspaces_and_images())
def test_express_matches_per_image_coords(case):
    sub, images = case
    _express_every_way(sub, images)
    for image in images:
        assert sub.coords(image) == chain_oracle.subspace_coords(sub, image)


def _rows(images):
    """The row state {ambient index: {image i: scalar}} of a list of Vectors."""
    rows = {}
    for i, image in enumerate(images):
        for t, c in image.entries.items():
            rows.setdefault(t, {})[i] = c
    return rows


def _express_every_way(sub, images):
    """``express`` and ``express_rows`` of ``images``, checked equal to the
    per-image loop, which is returned."""
    oracle = chain_oracle.coords_by_image(sub, images)
    assert sub.express([v.entries for v in images]) == oracle
    assert sub.express_rows(_rows(images)) == oracle
    return oracle


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
class TestRowKernel:
    """``Subspace.express_rows`` on hand-made row states."""

    def test_full_ambient_has_no_pivot_columns(self, field):
        sp = space(4, "e", field)
        sub = Subspace(sp, [sp.basis_vector(j) for j in range(4)])
        n = field.from_int
        images = [Vector(sp, {0: n(2), 3: n(-1)}), Vector(sp, {}), Vector(sp, {1: n(5), 2: n(3)})]
        entries, escaped = _express_every_way(sub, images)
        assert escaped is None
        assert entries == {(0, 0): n(2), (3, 0): n(-1), (1, 2): n(5), (2, 2): n(3)}

    def test_untouched_pivot_column_must_be_empty(self, field):
        # b0 = 3e0 + e1 and b1 = e3: no basis vector touches column 2
        sp, n = space(4, "e", field), field.from_int
        b0, b1 = Vector(sp, {0: n(3), 1: n(1)}), Vector(sp, {3: n(1)})
        sub = Subspace(sp, [b0, b1])
        inside = b0.scaled(n(5)) + b1.scaled(n(-2))  # 15 ≡ 1 over GF(7)
        assert _express_every_way(sub, [inside]) == (
            {(0, 0): n(5), (1, 0): n(-2)}, None)
        assert _express_every_way(sub, [inside, inside + sp.basis_vector(2)]) == (None, 1)
        assert _express_every_way(sub, [sp.basis_vector(2)]) == (None, 0)

    @pytest.mark.parametrize("first", ["untouched", "pivot"])
    def test_smallest_escaping_image_is_reported(self, field, first):
        # images 2 and 4 escape, one at the untouched column 2 and one at the
        # pivot column 0 of b0, in either order
        sp, n = space(4, "e", field), field.from_int
        b0, b1 = Vector(sp, {0: n(3), 1: n(1)}), Vector(sp, {3: n(1)})
        sub = Subspace(sp, [b0, b1])
        at_untouched = b1 + sp.basis_vector(2)
        at_pivot = b0 + sp.basis_vector(0)
        escapes = [at_untouched, at_pivot] if first == "untouched" else [at_pivot, at_untouched]
        images = [b0, b1.scaled(n(2)), escapes[0], b0 + b1, escapes[1]]
        assert _express_every_way(sub, images) == (None, 2)


@settings(max_examples=300, deadline=None)
@given(random_chains(fields=tuple(FIELDS)), st.data())
def test_transposed_walk_is_precomposition(chain, data):
    # φ ↦ φ ∘ chain on the coordinates of functionals φ on the chain's legs
    field = chain.field
    dom = tensor_space(*chain.legs) if chain.legs else space(1, "u", field)
    phis = []
    for _ in range(data.draw(st.integers(1, 3))):
        values = data.draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]),
                                    min_size=dom.dim, max_size=dom.dim))
        phis.append({c: v for c, x in enumerate(values) if (v := field.from_int(x))})
    transposed = chain.transposed()
    assert chain._entries is None  # the chain itself is never walked
    images = transposed.images(phis)
    assert transposed.legs == chain.source_legs
    fixed = chain.to_map()
    one = space(1, "k", field)
    assert images == [{c: v for (_, c), v in (LinMap(dom, one, {(0, c): v for c, v in phi.items()})
                                              @ fixed).entries.items()} for phi in phis]


def _scalars(H):
    """k with m◁h = δ(h)m and 1 ↦ σ⊗1 for every character δ and group-like
    σ, modular pair or not: with δ(σ) ≠ 1 the carrier AYD identity can hold
    while stability fails."""
    M = Space(("m",), H.field)
    return [ModuleComodule(
        H, M, LinMap(tensor_space(M, H.space), M,
                     {(0, c): v for (_, c), v in delta.delta.entries.items()}),
        LinMap(M, tensor_space(H.space, M), {(i, 0): v for i, v in sigma.sigma.entries.items()}),
        name="k(%s,%s)" % (delta.name, sigma.name))
        for delta in enumerate_characters(H) for sigma in enumerate_group_likes(H)]


def _carrier_pairs(name, field):
    """(carrier, coefficient) pairs over one corpus Hopf algebra: over ℚ the
    classical SAYD coefficients, over GF(p) the regular coaction, the
    regular action and the ε-unit scalar, and over every field every scalar
    (δ, σ), SAYD or not."""
    H = get_hopf(name, field)
    carriers = [("regular", regular_comodule_algebra(H)),
                ("trivial", trivial_comodule_algebra(H))]
    if field is QQ:
        pairs = [(aname, A, mname, M) for aname, A in comodule_algebras_for(name)
                 for mname, M in classical_sayd_coefficients(name)]
    else:
        pairs = [(aname, A, M.name, M) for aname, A in carriers for M in (
            regular_coaction_trivial_action(H), regular_action_trivial_coaction(H),
            scalar_coefficients(H, counit_character(H), unit_group_like(H)))]
    return pairs + [(aname, A, M.name, M) for aname, A in carriers for M in _scalars(H)]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", HOPF_NAMES)
def test_contraction_images_match_contract(name, field):
    # the carrier-SAYD walks at n ≤ 2 (the two AYD sides L and R, their
    # difference, and s_M on the value for the stability map), each walked
    # from the whole colinear basis in one call, against the oracle's
    # contraction of its pipelines with one map at a time
    for aname, A, mname, M in _carrier_pairs(name, field):
        lhs_s, rhs_s = _ayd_sides(M)
        for n in range(3):
            sub = colinear_hom_space(A, M, n)
            if not sub.dim:
                continue
            lhs_p, rhs_p, stab_p = chain_oracle.carrier_sayd_pipelines(A, M, n)
            cols = [v.entries for v in sub.basis]
            walks = [(_carrier_ayd(A, M, n, lhs_s), (lhs_p,)),
                     (_carrier_ayd(A, M, n, rhs_s), (rhs_p,)),
                     (_carrier_ayd(A, M, n, _ayd_difference(M)), (lhs_p, rhs_p)),
                     (_carrier_stability(A, M, n), (stab_p,))]
            for walk, pipelines in walks:
                images = walk.images(cols)
                assert len(images) == sub.dim
                for image, phi in zip(images, chain_oracle.subspace_maps(sub)):
                    slow = chain_oracle.contract(pipelines[0], phi)
                    if len(pipelines) == 2:
                        slow = slow - chain_oracle.contract(pipelines[1], phi)
                    assert image == chain_oracle.hom_coords(slow), (aname, mname, n)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("name", HOPF_NAMES)
def test_stability_is_s_M_on_colinear_cochains(name, field):
    # λ_M∘φ = (id_H⊗φ)∘λ_diag for a colinear φ, so act∘(id_H⊗φ)∘λ_diag,
    # written out by the oracle, is s_M∘φ, entry for entry
    for aname, A, mname, M in _carrier_pairs(name, field):
        for n in range(3):
            for phi in chain_oracle.subspace_maps(colinear_hom_space(A, M, n)):
                want = chain_oracle.stability_map(A, M, phi, n)
                assert (_stability(M) @ phi).entries == want.entries, (aname, mname, n)


def test_stability_shortcut_needs_colinearity():
    # on the first basis cochain of the whole hom space outside the colinear
    # span the two sides differ, so the test above can fail
    H = get_hopf("kZ2")
    A, M = regular_comodule_algebra(H), regular_action_trivial_coaction(H)
    sub = colinear_hom_space(A, M, 0)
    outside = next(i for i in range(sub.ambient.dim)
                   if sub.coords(sub.ambient.basis_vector(i)) is None)
    phi = sub.map(sub.ambient.basis_vector(outside))
    assert (_stability(M) @ phi).entries != chain_oracle.stability_map(A, M, phi, 0).entries


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("name", HOPF_NAMES)
def test_carrier_sayd_check_matches_the_check_by_map(name, field):
    # verdict, witness and both witness vectors, failing pairs included
    for aname, A, mname, M in _carrier_pairs(name, field):
        fast = check_sayd_over_algebra(A, M, n_max=2)
        slow = chain_oracle.check_sayd_over_algebra_by_map(A, M, n_max=2)
        assert fast.to_dict() == slow.to_dict(), (aname, mname)
        assert fast.lhs_vector == slow.lhs_vector and fast.rhs_vector == slow.rhs_vector


def _fresh(X, memo):
    """A copy of the carrier or coefficient X with its kept prefixes or
    suffixes (the dict attribute ``memo``) emptied."""
    Y = copy.copy(X)
    setattr(Y, memo, {})
    return Y


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_carrier_sayd_check_does_not_depend_on_cache_order(field):
    # one set of carriers and coefficients shared by every check, run in
    # order and again (on a second set) in reverse with each carrier's
    # failing pairs first: every verdict, witness and witness vector is that
    # of a run on fresh copies and that of the check by map
    want, mixed = {}, 0
    for name in HOPF_NAMES:
        want[name] = []
        for aname, A, mname, M in _carrier_pairs(name, field):
            fresh = check_sayd_over_algebra(_fresh(A, "_diag"), _fresh(M, "_memo"), n_max=2)
            slow = chain_oracle.check_sayd_over_algebra_by_map(A, M, n_max=2)
            assert fresh.to_dict() == slow.to_dict(), (name, aname, mname)
            assert fresh.lhs_vector == slow.lhs_vector and fresh.rhs_vector == slow.rhs_vector
            want[name].append(fresh)
    for reverse in (False, True):
        for name in HOPF_NAMES:
            pairs = _carrier_pairs(name, field)
            order = list(range(len(pairs)))
            if reverse:
                # reversed, then each carrier's failing pairs before its passing ones
                order = sorted(order[::-1], key=lambda i: (pairs[i][0], want[name][i].passed))
                mixed += sum(len({want[name][i].passed for i in order if pairs[i][0] == aname}) == 2
                             for aname in {pair[0] for pair in pairs})
            for i in order:
                aname, A, mname, M = pairs[i]
                res, fresh = check_sayd_over_algebra(A, M, n_max=2), want[name][i]
                assert res.to_dict() == fresh.to_dict(), (reverse, name, aname, mname)
                assert res.lhs_vector == fresh.lhs_vector and res.rhs_vector == fresh.rhs_vector
    assert mixed >= 5  # carriers whose failing checks run before their passing ones


def test_both_carrier_sayd_conditions_fail_somewhere():
    # the pairs compared above fail in each of the two ways, over ℚ and GF(7)
    for field in (QQ, GF(7)):
        failed = set()
        for name in HOPF_NAMES:
            for aname, A, mname, M in _carrier_pairs(name, field):
                failed.add(check_sayd_over_algebra(A, M, n_max=2).condition)
        assert {"carrier-ayd-algebra", "carrier-stability-algebra"} <= failed, field.name


@pytest.mark.parametrize("instance", range(2))
def test_psi_matrix_matches_the_matrix_by_pair(instance):
    _, A, B, M = crossed_product_instances()[instance]
    pairing = CrossedPairing(A, B, M, N=2)
    for n in range(4):
        fast, slow = pairing.psi_matrix(n), chain_oracle.psi_matrix_by_pair(pairing, n)
        assert fast.entries == slow.entries, "Ψ_%d differs" % n
        assert fast.domain.dim == slow.domain.dim and fast.codomain.dim == slow.codomain.dim


def _operators(N):
    """(kind, n, i, src, name) in the order the assembly builds them."""
    for n in range(N + 1):
        if n >= 1:
            for i in range(n + 1):
                yield "coface", n, i, n - 1, "coface δ_%d" % i
        if n + 1 <= N:
            for i in range(n + 1):
                yield "codegeneracy", n, i, n + 1, "codegeneracy σ_%d" % i
        yield "cyclic", n, n, n, "cyclic τ_%d" % n


def _assemble_by_image(subs, N, images):
    """The matrices {(kind, n, i): entries} of a complex, each operator's
    images expanded one by one; or (witness location, image) for the first
    image that leaves its subspace."""
    out = {}
    for kind, n, i, src, name in _operators(N):
        vectors = images(kind, n, i, src)
        entries, escaped = chain_oracle.coords_by_image(subs[n], vectors)
        if escaped is not None:
            return ("%s of basis element %d at degree %d" % (name, escaped, n),
                    vectors[escaped])
        out[(kind, n, i)] = entries
    return out


def _library_matrices(X, N):
    return {(kind, n, i): (X.coface(n, i) if kind == "coface" else X.codegeneracy(n, i)
                           if kind == "codegeneracy" else X.tau(n)).entries
            for kind, n, i, _, _ in _operators(N)}


def _compare_complex(build, subs, N, images):
    oracle = _assemble_by_image(subs, N, images)
    if isinstance(oracle, dict):
        assert _library_matrices(build(), N) == oracle
        return True
    with pytest.raises(CocyclicConstructionError) as err:
        build()
    location, image = oracle
    assert err.value.check.witness.location == location
    assert err.value.check.lhs_vector == image
    return False


def _module_algebra_images(Aact, M, subs):
    H, Hs, Ms, As = Aact.hopf, Aact.hopf.space, M.space, Aact.space

    def images(kind, n, i, src):
        legs = [Ms] + [As] * (n + 1)
        if kind == "codegeneracy":
            chain = Chain(legs).apply(Aact.unit_map(), 2 + i, 0, [As])
        elif kind == "coface" and i < n:
            chain = Chain(legs).apply(Aact.mult, 1 + i, 2, [As])
        else:
            chain = Chain(legs).apply(M.coaction, 0, 1, [Hs, Ms])
            chain.apply(H.antipode_inverse(), 0, 1, [Hs])
            chain.permute([1, 0, n + 2] + list(range(2, n + 2)))
            chain.apply(Aact.action, 1, 2, [As])
            if kind == "coface":
                chain.apply(Aact.mult, 1, 2, [As])
        return [chain_oracle.precompose(subs, n, src, chain)(v) for v in subs[src].basis]

    return images


def _comodule_algebra_images(A, M, subs):
    As = A.space

    def images(kind, n, i, src):
        if kind == "codegeneracy" or (kind == "coface" and i < n):
            chain = (Chain([As] * (n + 1)).apply(A.unit_map(), i + 1, 0, [As])
                     if kind == "codegeneracy" else
                     Chain([As] * (n + 1)).apply(A.mult, i, 2, [As]))
            return [chain_oracle.precompose(subs, n, src, chain)(v) for v in subs[src].basis]
        return [chain_oracle.linmap_to_vector(
            chain_oracle.wrap_chain(A, M, phi, n, kind == "coface"), subs[n].ambient)
            for phi in chain_oracle.subspace_maps(subs[src])]

    return images


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_module_algebra_complexes_match_the_assembly_by_image(field):
    H = get_hopf("sweedler-h4", field)
    G, translation = translation_module_algebra(symmetric_group(3), field)
    cases = [(trivial_module_algebra(H), M) for M in (
                 regular_coaction_trivial_action(H),
                 scalar_coefficients(H, counit_character(H), unit_group_like(H)))]
    cases += [(adjoint_module_algebra(H),
               scalar_coefficients(H, counit_character(H), unit_group_like(H))),
              (translation, scalar_coefficients(G, counit_character(G), unit_group_like(G)))]
    built = []
    for Aact, M in cases:
        subs = [invariant_functionals(Aact, M, n) for n in range(3)]
        built.append(_compare_complex(lambda: build_module_algebra_complex(Aact, M, 2), subs, 2,
                                      _module_algebra_images(Aact, M, subs)))
    # the adjoint action with the ε-unit coefficient escapes at degree 2,
    # except over GF(2)
    assert built == [True, True, field.modulus == 2, True]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_comodule_algebra_complexes_match_the_assembly_by_image(field):
    H = get_hopf("sweedler-h4", field)
    built = []
    for A in (regular_comodule_algebra(H), trivial_comodule_algebra(H)):
        for M in (regular_coaction_trivial_action(H), regular_action_trivial_coaction(H),
                  scalar_coefficients(H, counit_character(H), unit_group_like(H))):
            subs = [colinear_hom_space(A, M, n) for n in range(3)]
            built.append(_compare_complex(lambda: build_comodule_algebra_complex(A, M, 2),
                                          subs, 2, _comodule_algebra_images(A, M, subs)))
    # the regular carrier escapes with every coefficient but over GF(2) the
    # regular action; the trivial carrier builds with all three
    assert built == [field.modulus == 2, False, field.modulus == 2, True, True, True]

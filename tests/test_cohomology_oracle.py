"""The narrow-side differential identities and cyclic dimensions against the
full-product oracle (``tests/cohomology_oracle.py``): every verdict, every
table and every escape witness must be the oracle's, B at the top degree is
never built on a passing complex, and no eigenbasis above the reported top
is solved."""

import pytest

import cohomology_oracle as oracle
from hopfcyc import (
    adjoint_comodule_coalgebra,
    build_comodule_algebra_complex,
    build_comodule_coalgebra_complex,
    build_module_algebra_complex,
    counit_character,
    cyclic_group,
    regular_comodule_algebra,
    scalar_coefficients,
    symmetric_group,
    translation_module_algebra,
    trivial_comodule_algebra,
    trivial_hopf,
    unit_group_like,
)
from hopfcyc import cohomology, corpus
from hopfcyc.cocyclic import CocyclicConstructionError, CocyclicModule
from hopfcyc.corpus import (
    classical_sayd_coefficients,
    comodule_coalgebras_for,
    get_bicrossed,
    get_hopf,
)
from hopfcyc.fields import GF, QQ, FieldError
from hopfcyc.linalg import identity
from hopfcyc.symmetries import bicrossed_group_comodule_coalgebra
from test_acceptance import _corpus_complexes

GF7 = GF(7)
GF32003 = GF(32003)

# the comodule-coalgebra complexes and the module-algebra complex of the
# coalgebra-ladder benchmark workload: (Hopf algebra, carrier, coefficient, top)
LADDER = [
    ("kZ3", "adjoint", "scalar(ε,e)", 4),
    ("sweedler-h4", "adjoint", "scalar(δ[x↦0,gx↦0],g)", 4),
    ("kS3", "adjoint", "scalar(ε,e)", 3),
    ("bicrossed-s3-f2", "u-factor",
     "scalar(δ[δ(12)⋈e↦0,δ(12)⋈(123)↦0,δ(12)⋈(132)↦0],δe⋈e + δ(12)⋈e)", 4),
]


def _eps_unit(H):
    return scalar_coefficients(H, counit_character(H), unit_group_like(H))


def _ladder():
    out = []
    for name, cname, mname, N in LADDER:
        C = dict(comodule_coalgebras_for(name))[cname]
        M = dict(classical_sayd_coefficients(name))[mname]
        out.append(("%s/%s/%s/N=%d" % (name, cname, mname, N),
                    build_comodule_coalgebra_complex(C, M, N)))
    H, A = translation_module_algebra(cyclic_group(2))
    out.append(("kZ2-translation/N=5", build_module_algebra_complex(A, _eps_unit(H), 5)))
    return out


def _over(field):
    """Complexes over ``field``: the trivial ladder, the regular and trivial
    comodule algebras and the adjoint comodule coalgebra of the small corpus
    Hopf algebras, the bicrossed U-factor and the kZ2 and kS3 translation
    algebras, all with the ε-unit coefficient; pairs
    that escape their subspaces are left out."""
    Hk = trivial_hopf(field)
    builds = [("trivial/N=4", lambda: build_comodule_algebra_complex(
        trivial_comodule_algebra(Hk), _eps_unit(Hk), 4))]
    for name in ("kZ2", "kZ3", "sweedler-h4", "dualZ3", "kS3"):
        H = get_hopf(name, field)
        M = _eps_unit(H)
        for cname, A in (("regular", regular_comodule_algebra(H)),
                         ("trivial", trivial_comodule_algebra(H))):
            builds.append(("%s/%s/N=3" % (name, cname),
                           lambda A=A, M=M: build_comodule_algebra_complex(A, M, 3)))
        builds.append(("%s/adjoint/N=3" % name, lambda H=H, M=M:
                       build_comodule_coalgebra_complex(adjoint_comodule_coalgebra(H), M, 3)))
    B2 = get_bicrossed("bicrossed-s3-f2", field)
    builds.append(("bicrossed-s3-f2/u-factor/N=3", lambda: build_comodule_coalgebra_complex(
        bicrossed_group_comodule_coalgebra(B2), _eps_unit(B2.hopf), 3)))
    for group, N in ((cyclic_group(2), 5), (symmetric_group(3), 2)):
        H, A = translation_module_algebra(group, field)
        builds.append(("%s-translation/N=%d" % (group.name, N),
                       lambda A=A, H=H, N=N: build_module_algebra_complex(A, _eps_unit(H), N)))
    out = []
    for name, build in builds:
        try:
            out.append((name, build()))
        except CocyclicConstructionError:
            continue
    return out


def _corpus_scenario_complexes():
    """Every complex that the corpus scenarios build, recorded as it is made."""
    made = []
    init = CocyclicModule.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    CocyclicModule.__init__ = record
    try:
        for name in corpus.SCENARIOS:
            corpus.run_scenario(name)
    finally:
        CocyclicModule.__init__ = init
    return [("scenario complex %d" % k, X) for k, X in enumerate(made)]


_CACHE = {}


def _complexes(which):
    if which not in _CACHE:
        _CACHE[which] = {
            "acceptance": _corpus_complexes,
            "ladder": _ladder,
            "scenarios": _corpus_scenario_complexes,
            "Q": lambda: _over(QQ),
            "GF7": lambda: _over(GF7),
            "GF32003": lambda: _over(GF32003),
        }[which]()
    return _CACHE[which]


def _cyclic_outcome(dims, X, top=None):
    """The table's ``to_dict``, or the refusal: the witness of an escape, the
    message of a field error."""
    try:
        return dims(X, top).to_dict()
    except CocyclicConstructionError as err:
        return ("escape", err.check.to_dict())
    except FieldError as err:
        return ("field", str(err))


@pytest.mark.parametrize("which", ["acceptance", "ladder", "scenarios", "Q", "GF7"])
def test_differential_identities_match_the_full_products(which):
    complexes = _complexes(which)
    assert complexes
    for name, X in complexes:
        got = cohomology.differential_identities(X)
        if all(ok for _, ok in got):
            assert ("B", X.max_degree) not in X._memo, name
        assert got == oracle.differential_identities(X), name
        # B_{n+1} ∘ b_n multiplied from the right is the whole product
        for n in range(X.max_degree):
            b = cohomology.hochschild_coboundary(X, n)
            assert cohomology._connes_after(X, n + 1, b) == \
                oracle.connes_boundary(X, n + 1) @ b, (name, n)
        for n in range(1, X.max_degree):
            assert cohomology.connes_boundary(X, n) == oracle.connes_boundary(X, n), (name, n)


@pytest.mark.parametrize("which", ["acceptance", "ladder", "scenarios", "Q", "GF7"])
def test_cyclic_dims_match_the_eigenbasis_route(which, monkeypatch):
    solved = []
    basis = cohomology.cyclic_subcomplex_basis

    def counted(X, n):
        solved.append(n)
        return basis(X, n)

    monkeypatch.setattr(cohomology, "cyclic_subcomplex_basis", counted)
    for name, X in _complexes(which):
        for top in range(X.max_degree):
            solved.clear()
            got = _cyclic_outcome(cohomology.cyclic_dims, X, top)
            assert got == _cyclic_outcome(oracle.cyclic_dims, X, top), (name, top)
            assert max(solved, default=-1) <= top, (name, top)
        if X.field.characteristic == 0:
            assert _cyclic_outcome(cohomology.cyclic_dims, X) == \
                _cyclic_outcome(oracle.cyclic_dims, X), name


def _with_tau(X, scale):
    """X with τ_n replaced by c·τ_n for each (n, c) of ``scale``."""
    cyclic = {**X.cyclic, **{n: X.tau(n).scaled(X.field.from_int(c))
                             for n, c in scale.items()}}
    return CocyclicModule(X.kind, X.field, X.max_degree, X.spaces, X.cofaces,
                          X.codegeneracies, cyclic, X.ambient_descriptions)


def _trivial_ladder(field):
    Hk = trivial_hopf(field)
    return build_comodule_algebra_complex(trivial_comodule_algebra(Hk), _eps_unit(Hk), 4)


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
def test_broken_cyclic_operators_take_the_fallback(field):
    # On the trivial ladder (every space k, every coface and codegeneracy
    # the identity) τ_2 = 2 gives Z = 1 − λ_2³ = −7 at degree 3, which is
    # not zero over ℚ, while B_2 = (1 + λ_1)(…) = 0 keeps B_2 ∘ B_3 = 0; so
    # only the full product gives the verdict.  With τ_1 = 2 as well, both
    # B_2 and B_3 are nonzero over ℚ.  Over GF(7), 2³ = 1 and Z = 0.
    X = _trivial_ladder(field)
    cases = [{2: 2}, {1: 2, 2: 2}, {1: -1}, {3: 3}, {2: 2, 3: 5}]
    verdicts = []
    for scale in cases:
        broken = _with_tau(X, scale)
        got = cohomology.differential_identities(broken)
        assert got == oracle.differential_identities(broken), scale
        verdicts.append(dict(got)["B²=0 (deg 3)"])
    lam2 = cohomology.cyclic_eigenvalue_operator(_with_tau(X, {2: 2}), 2)
    Z = identity(X.spaces[2]) - oracle.power(lam2, 3)
    assert Z.is_zero() == (field is GF7)
    assert verdicts[:2] == [True, field is GF7]
    if field is QQ:
        # τ_3 = 3 gives Z = (1 + 3)(1 − 3 + 9 − 27) ≠ 0 at the top degree 4,
        # the one case in which B_4 is built
        broken = _with_tau(X, {1: 2, 2: 2})
        got = dict(cohomology.differential_identities(broken))
        assert not got["B²=0 (deg 2)"] and not got["B²=0 (deg 3)"]
        assert ("B", 4) not in broken._memo
        broken = _with_tau(X, {3: 3})
        cohomology.differential_identities(broken)
        assert ("B", 4) in broken._memo


def test_escape_witness_matches_the_oracle_at_every_degree():
    # τ = −id at degrees n and n + 1 makes degree n cyclic and degree n + 1
    # not for odd n, while b_n = id maps the one into the other; the library
    # and the oracle name the same image
    X = _trivial_ladder(QQ)
    escapes = 0
    for n in range(1, X.max_degree):
        broken = _with_tau(X, {n: -1, n + 1: -1})
        for top in range(n - 1, X.max_degree):
            got = _cyclic_outcome(cohomology.cyclic_dims, broken, top)
            assert got == _cyclic_outcome(oracle.cyclic_dims, broken, top), (n, top)
            escapes += isinstance(got, tuple)
    assert escapes

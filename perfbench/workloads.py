"""The four benchmark workloads: set-up (build and audit the inputs) and the
task list that the timed section runs.

Every task is a ``Task(id, expect, run)``; ``run()`` calls the public
hopfcyc functions on objects made during set-up and returns a JSON-able
summary of everything the program decided (verdicts, witnesses, complex
dimensions, cohomology tables, cup coordinates).  ``expect`` is "pass" or
"fail"; negative controls expect a failing verdict with a witness.

Module attributes are looked up at call time (``sym.check_sayd(...)``), so
the traced run sees calls wrapped after set-up.
"""

from __future__ import annotations

from collections import namedtuple

from hopfcyc import cocyclic, cohomology, corpus, cup, fields, groups, hopf, linalg
from hopfcyc import symmetries as sym

Task = namedtuple("Task", "id expect run")

GFP = fields.GF(32003)


class SetupError(RuntimeError):
    """An input failed its audit during set-up; no task can run."""


def _complex_summary(X, cyclic=True):
    """Verify a built complex and summarize its cohomology."""
    ident = cocyclic.verify_cocyclic_identities(X)
    out = {
        "dims": X.dims(),
        "identities": ident.to_dict(),
        "hochschild": cohomology.hochschild_dims(X).to_dict(),
    }
    passed = ident.passed
    if cyclic:
        out["cyclic"] = cohomology.cyclic_dims(X).to_dict()
        diff = cohomology.differential_identities(X)
        out["differential"] = [[name, ok] for name, ok in diff]
        passed = passed and all(ok for _, ok in diff)
    out["passed"] = passed
    return out


def _expect_construction_error(build):
    """Negative control: construction must refuse with a witnessed failure."""
    try:
        X = build()
    except cocyclic.CocyclicConstructionError as err:
        out = err.check.to_dict()
        out["raised"] = "CocyclicConstructionError"
        return out
    return {"passed": True, "built": X.dims()}


def _first_sayd_scalar(H):
    """The first scalar coefficient over H, in search order, whose modular
    pair passes ``check_sayd``."""
    sigmas = hopf.enumerate_group_likes(H)
    for delta in hopf.enumerate_characters(H):
        for sigma in sigmas:
            if hopf.check_modular_pair(H, delta, sigma):
                M = sym.scalar_coefficients(H, delta, sigma)
                if sym.check_sayd(M):
                    return "scalar(%s,%s)" % (delta.name, sigma.name), M
    raise SetupError("no SAYD scalar coefficient over %s" % H.name)


def _eps_unit(H):
    """The ε-unit scalar coefficient; over Sweedler's H4 it is not SAYD."""
    M = sym.scalar_coefficients(H, hopf.counit_character(H), hopf.unit_group_like(H))
    if sym.check_sayd(M):
        raise SetupError("ε-unit coefficient over %s is unexpectedly SAYD" % H.name)
    return M


# ---------------------------------------------------------------------------
# algebra-sayd: per-cochain Chain pipelines (_carrier_ayd_sides, wrap_chain)
# ---------------------------------------------------------------------------

ALGEBRA_SIDE = ["kZ2", "kZ3", "kS3", "dualZ3", "sweedler-h4", "bicrossed-s3-f2"]
HCC_CARRIERS = ["kZ2", "kZ3", "sweedler-h4"]


def setup_algebra_sayd():
    tasks = []
    for name in ALGEBRA_SIDE:
        coeffs = corpus.classical_sayd_coefficients(name)
        if name.startswith("bicrossed"):
            coeffs = [(label, M) for label, M in coeffs if M.dim == 1]
        for aname, A in corpus.comodule_algebras_for(name):
            for mname, M in coeffs:
                tasks.append(Task(
                    "sayd-alg/%s/%s/%s" % (name, aname, mname), "pass",
                    lambda A=A, M=M: sym.check_sayd_over_algebra(A, M, n_max=2).to_dict()))
                if name in HCC_CARRIERS and aname == "regular":
                    tasks.append(Task(
                        "hcc-alg/%s/%s/%s" % (name, aname, mname), "pass",
                        lambda A=A, M=M: cocyclic.check_hcc(
                            "comodule-algebra", A, M, N=2).to_dict()))
    H4 = corpus.get_hopf("sweedler-h4")
    A4 = sym.regular_comodule_algebra(H4)
    M4 = _eps_unit(H4)
    tasks += [
        Task("neg/sayd/sweedler-h4/eps-unit", "fail",
             lambda: sym.check_sayd(M4).to_dict()),
        Task("neg/sayd-alg/sweedler-h4/regular/eps-unit", "fail",
             lambda: sym.check_sayd_over_algebra(A4, M4, n_max=2).to_dict()),
        Task("neg/hcc-alg/sweedler-h4/regular/eps-unit", "fail",
             lambda: cocyclic.check_hcc("comodule-algebra", A4, M4, N=2).to_dict()),
    ]
    return tasks


# ---------------------------------------------------------------------------
# coalgebra-ladder: one Chain per operator; cotensor solves, matmul, ranks
# ---------------------------------------------------------------------------

COALGEBRA_SIDE = ["kZ2", "kZ3", "kS3", "dualZ3", "sweedler-h4",
                  "bicrossed-s3-f3", "bicrossed-s3-f2"]
# (Hopf algebra, carrier, coefficient label, top degree)
COALGEBRA_COMPLEXES = [
    ("kZ3", "adjoint", "scalar(ε,e)", 4),
    ("sweedler-h4", "adjoint", "scalar(δ[x↦0,gx↦0],g)", 4),
    ("kS3", "adjoint", "scalar(ε,e)", 3),
    ("bicrossed-s3-f2", "u-factor",
     "scalar(δ[δ(12)⋈e↦0,δ(12)⋈(123)↦0,δ(12)⋈(132)↦0],δe⋈e + δ(12)⋈e)", 4),
]
TRANSLATION_DEGREE = 5


def setup_coalgebra_ladder():
    tasks = []
    for name in COALGEBRA_SIDE:
        coeffs = corpus.classical_sayd_coefficients(name)
        carriers = corpus.comodule_coalgebras_for(name)
        for cname, C in carriers:
            for mname, M in coeffs:
                tasks.append(Task(
                    "sayd-coalg/%s/%s/%s" % (name, cname, mname), "pass",
                    lambda C=C, M=M: sym.check_sayd_over_coalgebra(C, M, n_max=2).to_dict()))
        for hname, cname, mname, N in COALGEBRA_COMPLEXES:
            if hname != name:
                continue
            C, M = dict(carriers)[cname], dict(coeffs)[mname]
            tasks.append(Task(
                "complex-coalg/%s/%s/%s/N=%d" % (name, cname, mname, N), "pass",
                lambda C=C, M=M, N=N: _complex_summary(
                    cocyclic.build_comodule_coalgebra_complex(C, M, N))))
    H, Aact = sym.translation_module_algebra(groups.cyclic_group(2))
    M = sym.scalar_coefficients(H, hopf.counit_character(H), hopf.unit_group_like(H))
    if not sym.check_sayd(M):
        raise SetupError("translation coefficient is not SAYD")
    tasks.append(Task(
        "complex-modalg/kZ2-translation/eps-unit/N=%d" % TRANSLATION_DEGREE, "pass",
        lambda: _complex_summary(
            cocyclic.build_module_algebra_complex(Aact, M, TRANSLATION_DEGREE))))
    H4 = corpus.get_hopf("sweedler-h4")
    C4 = sym.adjoint_comodule_coalgebra(H4)
    M4 = _eps_unit(H4)
    tasks.append(Task(
        "neg/sayd-coalg/sweedler-h4/adjoint/eps-unit", "fail",
        lambda: sym.check_sayd_over_coalgebra(C4, M4, n_max=2).to_dict()))
    return tasks


# ---------------------------------------------------------------------------
# crossed-pairing: Ψ_n on every (φ, ψ) pair, then cups of cyclic cocycles
# ---------------------------------------------------------------------------

PAIRING_N = 2
CUP_DEGREES = [(0, 0), (2, 0), (0, 2)]


def cyclic_cocycles(X, n):
    """Canonical basis of the cyclic cocycles at degree n: the common kernel
    of b and λ − 1, stacked into one map."""
    b = cohomology.hochschild_coboundary(X, n)
    lam = cohomology.cyclic_eigenvalue_operator(X, n) - linalg.identity(X.spaces[n])
    entries = dict(b.entries)
    rows = b.codomain.dim
    for (r, c), v in lam.entries.items():
        entries[(rows + r, c)] = v
    cod = linalg.Space(tuple("r%d" % r for r in range(rows + lam.codomain.dim)), X.field)
    return linalg.kernel_basis(linalg.LinMap(X.spaces[n], cod, entries))


def _pairing_task(A, B, M):
    pairing = cup.CrossedPairing(A, B, M, N=PAIRING_N)
    X, Y = pairing.module_side, pairing.comodule_side
    mapcheck = pairing.check_cocyclic_map(PAIRING_N)
    passed = mapcheck.passed
    cups = []
    for p, q in CUP_DEGREES:
        for i, phi in enumerate(cyclic_cocycles(X, p)):
            for j, psi in enumerate(cyclic_cocycles(Y, q)):
                vec, check = pairing.cup(phi, p, psi, q)
                passed = passed and check.passed
                cups.append({
                    "p": p, "q": q, "phi": i, "psi": j,
                    "coords": [[k, X.field.format(v)] for k, v in sorted(vec.entries.items())],
                    "check": check.to_dict(),
                })
    return {"passed": passed, "module_dims": X.dims(), "comodule_dims": Y.dims(),
            "cocyclic_map": mapcheck.to_dict(), "cups": cups}


def setup_crossed_pairing():
    tasks = []
    for name, A, B, M in corpus.crossed_product_instances():
        if not sym.check_sayd(M):
            raise SetupError("%s coefficient is not SAYD" % name)
        tasks.append(Task("pairing/%s/N=%d" % (name, PAIRING_N), "pass",
                          lambda A=A, B=B, M=M: _pairing_task(A, B, M)))
    return tasks


# ---------------------------------------------------------------------------
# gfp-ladder: the same layers with GF(p) scalars instead of Fraction
# ---------------------------------------------------------------------------

GFP_NAMES = ["kS3", "sweedler-h4", "dualZ3"]
GFP_DEGREE = 3


def setup_gfp_ladder():
    tasks = []
    for name in GFP_NAMES:
        H = corpus.get_hopf(name, GFP)
        mname, M = _first_sayd_scalar(H)
        A = sym.regular_comodule_algebra(H)
        C = sym.adjoint_comodule_coalgebra(H)
        tag = "%s/%s" % (name, mname)
        tasks += [
            Task("sayd-alg/%s" % tag, "pass",
                 lambda A=A, M=M: sym.check_sayd_over_algebra(A, M, n_max=2).to_dict()),
            Task("complex-alg/%s/N=%d" % (tag, GFP_DEGREE), "pass",
                 lambda A=A, M=M: _complex_summary(
                     cocyclic.build_comodule_algebra_complex(A, M, GFP_DEGREE), cyclic=False)),
            Task("complex-coalg/%s/N=%d" % (tag, GFP_DEGREE), "pass",
                 lambda C=C, M=M: _complex_summary(
                     cocyclic.build_comodule_coalgebra_complex(C, M, GFP_DEGREE), cyclic=False)),
        ]
    H4 = corpus.get_hopf("sweedler-h4", GFP)
    A4 = sym.regular_comodule_algebra(H4)
    M4 = _eps_unit(H4)
    tasks.append(Task(
        "neg/complex-alg/sweedler-h4/eps-unit/N=%d" % GFP_DEGREE, "fail",
        lambda: _expect_construction_error(
            lambda: cocyclic.build_comodule_algebra_complex(A4, M4, GFP_DEGREE))))
    return tasks


WORKLOADS = {
    "algebra-sayd": setup_algebra_sayd,
    "coalgebra-ladder": setup_coalgebra_ladder,
    "crossed-pairing": setup_crossed_pairing,
    "gfp-ladder": setup_gfp_ladder,
}

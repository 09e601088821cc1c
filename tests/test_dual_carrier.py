"""The comodule-coalgebra complex as the comodule-algebra complex of the dual
algebra C*.  ``dual_carrier(C)`` must be a comodule algebra exactly when C
is a comodule coalgebra, and the complex and the carrier-SAYD check built
over it must agree with the cotensor route they replaced (``chain_oracle``
and ``structure_oracle``), byte for byte, on every corpus coalgebra carrier
with the scalar, regular-coaction and regular-action coefficients over ℚ
and GF(7).  The coefficients of dimension > 1 pin the layout: the cotensor
coordinates order c̃⊗m with the value leg last, and hom coordinates with
the value first give other bases."""

import pytest

import chain_oracle
import structure_oracle
from hopfcyc.cocyclic import CocyclicConstructionError, build_comodule_coalgebra_complex
from hopfcyc.corpus import bicrossed_names, get_bicrossed, get_hopf
from hopfcyc.fields import GF, QQ
from hopfcyc.hopf import check_modular_pair, enumerate_characters, enumerate_group_likes
from hopfcyc.symmetries import (
    adjoint_comodule_coalgebra,
    bicrossed_group_comodule_coalgebra,
    check_sayd_over_coalgebra,
    comult_comodule_coalgebra,
    dual_carrier,
    regular_action_trivial_coaction,
    regular_coaction_trivial_action,
    scalar_coefficients,
    trivial_comodule_coalgebra,
)
from test_structure_oracle import _broken

FIELDS = (QQ, GF(7))
CARRIER_HOPF = ["kZ2", "kZ3", "kS3", "dualZ3", "sweedler-h4",
                "bicrossed-s3-f3", "bicrossed-s3-f2"]


def _coalgebras(name, field):
    H = get_hopf(name, field)
    out = [adjoint_comodule_coalgebra(H), trivial_comodule_coalgebra(H)]
    if name in bicrossed_names():
        out.append(bicrossed_group_comodule_coalgebra(get_bicrossed(name, field)))
    return H, out


def _coefficients(H):
    scalars = [scalar_coefficients(H, d, s) for d in enumerate_characters(H)
               for s in enumerate_group_likes(H) if check_modular_pair(H, d, s)]
    return scalars + [regular_coaction_trivial_action(H), regular_action_trivial_coaction(H)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_dual_of_every_corpus_carrier_is_a_comodule_algebra(field):
    checked = 0
    for name in CARRIER_HOPF:
        for C in _coalgebras(name, field)[1]:
            D = dual_carrier(C)
            assert D.verify(), (name, C.name, D.verify().describe())
            assert dual_carrier(C) is D and D.space is C.space and D.hopf is C.hopf
            checked += 1
    assert checked == 16


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_broken_carrier_breaks_its_dual(field):
    """Deleting the first entry of Δ, ε or ρ breaks C, and so C*."""
    checked = 0
    for name in CARRIER_HOPF:
        for C in _coalgebras(name, field)[1]:
            for attr in ("comult", "counit", "coaction"):
                Y = _broken(C, attr, min(getattr(C, attr).entries))
                Y._memo = {}
                assert not Y.verify(), (name, C.name, attr)
                assert not dual_carrier(Y).verify(), (name, C.name, attr)
                checked += 1
    assert checked == 48


def _outcome(build, *args):
    try:
        return build(*args).to_dict()
    except CocyclicConstructionError as err:
        return err.check.to_dict()


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_comodule_coalgebra_complex_matches_the_cotensor_route(field):
    """Every complex (or its escape) and every carrier-SAYD verdict with its
    witness, at degree 3 (2 when dim C > 4), on the corpus carriers and on
    the comultiplication carrier, which is not a comodule coalgebra."""
    escapes, ayd_failures, wide = 0, 0, 0
    for name in CARRIER_HOPF:
        H, coalgebras = _coalgebras(name, field)
        for C in coalgebras + [comult_comodule_coalgebra(H)]:
            N = 3 if C.dim <= 4 else 2
            for M in _coefficients(H):
                where = (name, C.name, M.name)
                new = _outcome(build_comodule_coalgebra_complex, C, M, N)
                assert new == _outcome(chain_oracle.comodule_coalgebra_complex_by_cotensor,
                                       C, M, N), where
                res = check_sayd_over_coalgebra(C, M)
                assert res.to_dict() == structure_oracle.check_sayd_over_coalgebra(
                    C, M).to_dict(), where
                escapes += "passed" in new
                wide += M.dim > 1 and "passed" not in new
                if C in coalgebras and not res.passed:
                    assert res.condition == "carrier-ayd-coalgebra", where
                    ayd_failures += 1
    assert (escapes, ayd_failures, wide) == (46, 5, 29)

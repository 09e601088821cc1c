"""The regular carrier's colinear cochains, counted by a classical theorem.

For A = H with Δ as coaction, H^{⊗(n+1)} with the diagonal coaction is a
Hopf module, hence free: a ⊗ b ↦ a b⁽¹⁾ ⊗ b⁽²⁾ carries the diagonal
coaction on H ⊗ H to the coaction on the first leg alone (Larson and
Sweedler, Amer. J. Math. 91, 1969; Montgomery, CBMS 82, 1.9.4).  Iterated,
dim Hom^H(H^{⊗(n+1)}, M) = dim M · (dim H)^n for every coefficient M, in
any characteristic.  The expected number is read off the dimensions alone,
so it shares nothing with the equalizer that ``colinear_hom_space`` solves.
Over GF(7) the scalar coefficients include the characters and group-likes
that take cube roots of unity."""

import pytest

from hopfcyc.corpus import get_hopf, hopf_names
from hopfcyc.fields import GF, QQ
from hopfcyc.hopf import check_modular_pair, enumerate_characters, enumerate_group_likes
from hopfcyc.symmetries import (
    colinear_hom_space,
    regular_action_trivial_coaction,
    regular_coaction_trivial_action,
    regular_comodule_algebra,
    scalar_coefficients,
)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)], ids=str)
@pytest.mark.parametrize("name", hopf_names())
def test_regular_carrier_cochains_have_dim_m_times_dim_h_to_the_n(name, field):
    H = get_hopf(name, field)
    A = regular_comodule_algebra(H)
    sigmas = enumerate_group_likes(H)
    coefficients = [regular_coaction_trivial_action(H), regular_action_trivial_coaction(H)] + [
        scalar_coefficients(H, delta, sigma) for delta in enumerate_characters(H)
        for sigma in sigmas if check_modular_pair(H, delta, sigma)]
    for M in coefficients:
        for n in range(3):
            assert colinear_hom_space(A, M, n).dim == M.dim * H.dim ** n, (M.name, n)

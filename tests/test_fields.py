"""The field boundary: GF(p) scalars are plain int residues, one field
instance per prime, and the linear-algebra operators refuse to mix fields
where they are called, not deep inside a computation."""

import time

import pytest

from hopfcyc.fields import _MR_BOUND, GF, QQ, FieldError, PrimeField, _is_prime, field_from_name
from hopfcyc.linalg import Chain, LinMap, Space, Vector, tensor_space


def space(field, n=2, prefix="e"):
    return Space(tuple("%s%d" % (prefix, i) for i in range(n)), field)


def swap(field):
    s = space(field)
    return LinMap(s, s, {(0, 1): field.one, (1, 0): field.one})


class TestResidues:
    def test_scalars_are_reduced_ints(self):
        F = GF(5)
        assert F.zero == 0 and F.one == 1
        assert type(F.from_int(-1)) is int and F.from_int(-1) == 4
        half = F.parse("1/2")
        assert type(half) is int and half == 3
        assert type(F.parse(" -7 ")) is int and F.parse(" -7 ") == 3
        assert [F.sign(n) for n in range(3)] == [1, 4, 1]
        assert F.inv(3) == 2 and F.inv(-2) == 2
        assert F.format(F.parse("4/3")) == "3"

    def test_division_by_zero_keeps_its_text(self):
        F = GF(5)
        with pytest.raises(FieldError, match=r"^division by zero in GF\(5\)$"):
            F.inv(0)
        with pytest.raises(FieldError, match=r"^division by zero in GF\(5\)$"):
            F.inv(10)
        with pytest.raises(FieldError, match=r"^denominator of '1/5' not invertible in GF\(5\)$"):
            F.parse("1/5")
        with pytest.raises(FieldError, match=r"^division by zero in scalar literal '1/0'$"):
            F.parse("1/0")

    def test_one_instance_per_prime(self):
        assert GF(7) is GF(7)
        assert field_from_name("GF(7)") is GF(7)
        assert field_from_name("Q") is QQ
        assert GF(7) is not GF(11) and GF(7) != GF(11)
        assert GF(7).modulus == 7 and QQ.modulus is None


class TestPrimality:
    def test_large_prime_is_accepted_quickly(self):
        start = time.process_time()
        F = PrimeField(100000000000031)
        assert time.process_time() - start < 0.05
        assert F.name == "GF(100000000000031)" and F.inv(2) * 2 % F.p == 1

    @pytest.mark.parametrize("n", [561, 41041, 3215031751, 999999999989 * 3])
    def test_carmichael_and_semiprime_moduli_are_refused(self, n):
        with pytest.raises(FieldError, match=r"modulus is not prime"):
            PrimeField(n)

    def test_small_moduli_agree_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        assert [n for n in range(-3, 2000) if _is_prime(n)] == \
            [n for n in range(-3, 2000) if trial(n)]

    def test_moduli_at_the_bound_are_refused_with_a_message(self):
        assert not _is_prime(_MR_BOUND - 2)  # divisible by 17, and still decided
        for n in (_MR_BOUND, _MR_BOUND + 2, 10 ** 30 + 57):
            with pytest.raises(FieldError, match=r"primality is decided only below"):
                field_from_name("GF(%d)" % n)


FIELD_PAIRS = [(GF(7), GF(11)), (QQ, GF(7)), (GF(7), QQ)]
PAIR_IDS = ["GF7-GF11", "Q-GF7", "GF7-Q"]


@pytest.mark.parametrize("a, b", FIELD_PAIRS, ids=PAIR_IDS)
class TestMixedFields:
    def test_compose(self, a, b):
        with pytest.raises(FieldError, match="mixed fields"):
            swap(a) @ swap(b)

    def test_apply(self, a, b):
        with pytest.raises(FieldError, match="mixed fields"):
            swap(a).apply(Vector(space(b), {0: b.one}))

    def test_add(self, a, b):
        with pytest.raises(FieldError, match="mixed fields"):
            swap(a) + swap(b)
        with pytest.raises(FieldError, match="mixed fields"):
            Vector(space(a), {0: a.one}) + Vector(space(b), {1: b.one})

    def test_chain_apply(self, a, b):
        with pytest.raises(FieldError, match="mixed fields"):
            Chain([space(a)]).apply(swap(b), 0, 1, [space(a)])

    def test_tensor_space(self, a, b):
        with pytest.raises(FieldError, match="mixed fields"):
            tensor_space(space(a), space(b, prefix="f"))

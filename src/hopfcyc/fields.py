"""Exact ground-field scalars: arbitrary-precision rationals and prime fields.

A scalar of ``QQ`` is a plain ``int`` while it is integral and a
``fractions.Fraction`` once a division makes it one; a scalar of ``GF(p)`` is
a plain ``int`` residue in [0, p).  Python's own ``+``, ``-`` and ``*`` serve
both, so all higher modules are field-agnostic; over GF(p) a sum or product
may leave [0, p), and the linear-algebra kernels reduce it by
``field.modulus`` (None over ``QQ``) before they test it for zero, compare
it or store it.  Every division goes through ``field.inv``, so an int/int
quotient never becomes a float.  One computation never mixes fields: the
linear-algebra constructors and operators refuse to.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction


class FieldError(ValueError):
    """Malformed scalar literal, division by zero, or field mismatch."""


class RationalField:
    """The rationals as ``int`` or ``fractions.Fraction``.  Singleton ``QQ``."""

    name = "Q"
    characteristic = 0
    modulus = None

    zero = 0
    one = 1

    def from_int(self, n):
        return operator.index(n)

    def sign(self, n):
        # (-1)**n as a field element
        return -1 if n % 2 else 1

    def inv(self, x):
        """1/x; an int when the numerator of x is ±1, else a Fraction."""
        if not x:
            raise FieldError("division by zero in Q")
        num, den = x.numerator, x.denominator
        return num * den if num in (1, -1) else Fraction(den, num)

    def parse(self, text):
        try:
            q = Fraction(str(text))
        except ZeroDivisionError:
            raise FieldError("division by zero in scalar literal %r" % text)
        except (ValueError, TypeError):
            raise FieldError("malformed rational literal %r" % text)
        return q.numerator if q.denominator == 1 else q

    def format(self, value):
        return str(value)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


# Miller–Rabin on the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller–Rabin: write p − 1 = d·2^s with d odd; p is
    prime iff, for every base b, b^d ≡ 1 or b^(d·2^r) ≡ −1 for some r < s."""
    if p >= _MR_BOUND:
        raise FieldError("GF(%d): primality is decided only below %d" % (p, _MR_BOUND))
    if p < 2:
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
        x = pow(b, d, p)
        if x != 1 and p - 1 not in {pow(x, 1 << r, p) for r in range(s)}:
            return False
    return True


class PrimeField:
    """GF(p) for prime p, opted into by the caller; default field is QQ.
    Its scalars are ints in [0, p).  Build it with ``GF(p)``."""

    zero = 0
    one = 1

    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError("GF(%r): modulus is not prime" % (p,))
        self.p = self.modulus = self.characteristic = p
        self.name = "GF(%d)" % p

    def from_int(self, n):
        return operator.index(n) % self.p

    def sign(self, n):
        return self.p - 1 if n % 2 else 1

    def inv(self, x):
        if not x % self.p:
            raise FieldError("division by zero in GF(%d)" % self.p)
        return pow(x, -1, self.p)

    def parse(self, text):
        text = str(text).strip()
        if "/" in text:
            num_s, _, den_s = text.partition("/")
            try:
                num, den = int(num_s), int(den_s)
            except ValueError:
                raise FieldError("malformed scalar literal %r" % text)
            if den == 0:
                raise FieldError("division by zero in scalar literal %r" % text)
            if den % self.p == 0:
                raise FieldError("denominator of %r not invertible in %s" % (text, self.name))
            return num * pow(den, -1, self.p) % self.p
        try:
            return int(text) % self.p
        except ValueError:
            raise FieldError("malformed scalar literal %r" % text)

    def format(self, value):
        return str(value)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


@functools.cache
def GF(p):
    """GF(p), one instance per prime, so fields compare by identity."""
    return PrimeField(p)


def field_from_name(name):
    """Parse a field tag from a structure file: "Q" or "GF(p)"."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("GF(") and name.endswith(")"):
        try:
            p = int(name[3:-1])
        except ValueError:
            pass
        else:
            return GF(p)
    raise FieldError("unknown field tag %r" % name)

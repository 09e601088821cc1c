"""Exact ground-field scalars: arbitrary-precision rationals and prime fields.

A scalar of ``QQ`` is a plain ``int`` while it is integral and a
``fractions.Fraction`` once a division makes it one; a scalar of ``GF(p)`` is
a ``GFElement``.  Both support the arithmetic operators that the elimination
routines use, so all higher modules are field-agnostic.  Every division goes
through ``field.inv``, so an int/int quotient never becomes a float.  One
computation never mixes fields.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class FieldError(ValueError):
    """Malformed scalar literal, division by zero, or field mismatch."""


class RationalField:
    """The rationals as ``int`` or ``fractions.Fraction``.  Singleton ``QQ``."""

    name = "Q"
    characteristic = 0

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


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class GFElement:
    """Element of GF(p).  Arithmetic with ints is allowed (for 0, +-1, signs)."""

    __slots__ = ("residue", "p")

    def __init__(self, residue, p):
        self.residue = residue % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise FieldError("mixed prime fields GF(%d) and GF(%d)" % (self.p, other.p))
            return other
        if isinstance(other, int):
            return GFElement(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else GFElement(self.residue + o.residue, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else GFElement(self.residue - o.residue, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else GFElement(o.residue - self.residue, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else GFElement(self.residue * o.residue, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.residue == 0:
            raise FieldError("division by zero in GF(%d)" % self.p)
        return GFElement(self.residue * pow(o.residue, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o.__truediv__(self)

    def __neg__(self):
        return GFElement(-self.residue, self.p)

    def __bool__(self):
        return self.residue != 0

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.residue == other.residue
        if isinstance(other, int):
            return self.residue == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.residue, self.p))

    def __repr__(self):
        return "GF(%d)(%d)" % (self.p, self.residue)


class PrimeField:
    """GF(p) for prime p, opted into by the caller; default field is QQ."""

    characteristic: int

    def __init__(self, p):
        if not _is_prime(p):
            raise FieldError("GF(%r): modulus is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self.name = "GF(%d)" % p

    @property
    def zero(self):
        return GFElement(0, self.p)

    @property
    def one(self):
        return GFElement(1, self.p)

    def from_int(self, n):
        return GFElement(n, self.p)

    def sign(self, n):
        return GFElement(-1 if n % 2 else 1, self.p)

    def inv(self, x):
        return self.one / x

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
            return GFElement(num, self.p) / GFElement(den, self.p)
        try:
            return GFElement(int(text), self.p)
        except ValueError:
            raise FieldError("malformed scalar literal %r" % text)

    def format(self, value):
        return str(value.residue)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


def GF(p):
    return PrimeField(p)


def field_from_name(name):
    """Parse a field tag from a structure file: "Q" or "GF(p)"."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("GF(") and name.endswith(")"):
        try:
            return PrimeField(int(name[3:-1]))
        except ValueError:
            pass
    raise FieldError("unknown field tag %r" % name)

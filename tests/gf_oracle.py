"""Reference oracle: GF(p) scalars as objects, as the library had them before
its scalars became plain ``int`` residues.

Every ``+``, ``-`` and ``*`` of a ``GFElement`` reduces at once, so a
computation written with them never holds an unreduced value.  A
differential test runs the same computation on library residues and on
these elements and compares the results by ``.residue``: any place where
the library forgets to reduce before a zero test, a comparison, a pivot
choice or a store shows up as a difference.

``ElementField(p)`` is GF(p) with ``GFElement`` scalars and the field
interface of ``hopfcyc.fields``.  Its ``modulus`` is None, so a library
kernel run over it takes its generic path, the one ℚ takes, and does all
its arithmetic in ``GFElement``."""

from hopfcyc.fields import FieldError
from hopfcyc.linalg import LinMap, Space, Vector


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



class ElementField:
    """GF(p) whose scalars are ``GFElement``s."""

    modulus = None

    def __init__(self, p):
        self.p = p
        self.name = "GF(%d) elements" % p

    @property
    def zero(self):
        return GFElement(0, self.p)

    @property
    def one(self):
        return GFElement(1, self.p)

    def inv(self, x):
        return self.one / x

    def __eq__(self, other):
        return isinstance(other, ElementField) and other.p == self.p

    def __hash__(self):
        return hash(("GF elements", self.p))


def oracle_field(field):
    """The oracle's field for a library field: ℚ is its own oracle."""
    return field if field.modulus is None else ElementField(field.modulus)


def lift(field, value):
    """A library scalar (a residue, reduced or not) as an oracle scalar."""
    return value if field.modulus is None else GFElement(value, field.modulus)


def lower(value):
    """An oracle scalar as a library scalar."""
    return value.residue if isinstance(value, GFElement) else value


def lift_row(field, row):
    """A sparse row ``{col: scalar}`` as oracle scalars, zeros dropped."""
    out = {}
    for c, v in row.items():
        e = lift(field, v)
        if e:
            out[c] = e
    return out


def lower_row(row):
    return {c: lower(v) for c, v in row.items()}


def lift_space(space, field):
    return Space(space.labels, field)


def lift_map(f, field):
    """A library map as the same map over ``field``, an ``ElementField``."""
    return LinMap(lift_space(f.domain, field), lift_space(f.codomain, field),
                  lift_row(f.field, f.entries))


def lift_vector(vec, field):
    return Vector(lift_space(vec.space, field), lift_row(vec.space.field, vec.entries))

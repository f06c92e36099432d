"""Rational functions in the transcendental marker tau over Q(zeta_M).

A Scalar is num/den with num, den polynomials in tau whose coefficients
are cyclotomic numbers.  tau stands for log q and carries no algebraic
relation to zeta_M, so identities proved here hold for the complex values.
Canonical form: den is monic, gcd(num, den) = 1, zero is (0)/(1).

A product first asks whether either operand is the session's unit
object `one` (read through the operands' Cyc back-reference to their
session), and if so returns the other operand, before any length test
or Cyc product.  Most products in the library are such products: unit
vectors, and the entries of Verma-type bases, carry that very object.
A Scalar equal to 1 but built elsewhere takes the general path below,
which gives an equal result.

Most scalars have den (1): the constants, and the tau-polynomials that
K and the module entries are made of.  A den of length 1 is monic, so it
is (1), and the field operations take any two such operands first,
straight on the tuples: a sum, difference or product is the trimmed
(a op b)/(1), which is already canonical, zero included, so neither
_make nor the den * den product runs.  For two constants, when the Cyc
result is one of the operands (the other was 1, or 0 in a sum), that
operand's Scalar is returned; _pmul returns the other polynomial when
one side is the constant 1.  Scalars, like Cycs, are never changed after
their constructor, so sharing the operand object is safe.

_make runs the polynomial gcd only when both num and den have positive
degree.  A nonzero constant is a unit of the polynomial ring, so its gcd
with any polynomial is 1; when either side is a constant the pair is
already coprime and the monic normalisation alone makes it canonical.
"""

from __future__ import annotations


def _ptrim(c):
    n = len(c)
    while n > 1 and not any(c[n - 1].n):
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _ptrim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def _psub(a, b):
    n = len(b)
    out = [x - y for x, y in zip(a, b)]
    out += a[n:] if len(a) > n else [-y for y in b[len(a):]]
    return _ptrim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if _pis_zero(a) or _pis_zero(b):
        return (a[0].s.cyc_zero,)
    if len(a) == 1:
        return b if a[0].is_one() else _ptrim([a[0] * x for x in b])
    if len(b) == 1:
        return a if b[0].is_one() else _ptrim([x * b[0] for x in a])
    z = a[0].s.cyc_zero
    out = [z] * (len(a) + len(b) - 1)
    bnz = [(j, bj) for j, bj in enumerate(b) if any(bj.n)]
    for i, ai in enumerate(a):
        if any(ai.n):
            for j, bj in bnz:
                out[i + j] = out[i + j] + ai * bj
    return _ptrim(out)


def _pis_zero(a):
    return len(a) == 1 and not any(a[0].n)


def _pdivmod(a, b):
    """Polynomial division over the cyclotomic field."""
    z = b[0].s.cyc_zero
    a = list(a)
    db = len(b) - 1
    lb_inv = b[-1].inv()
    q = [z] * max(len(a) - db, 1)
    for i in range(len(a) - db - 1, -1, -1):
        f = a[i + db] * lb_inv
        if any(f.n):
            q[i] = f
            for j, bj in enumerate(b):
                a[i + j] = a[i + j] - f * bj
    return _ptrim(q), _ptrim(a)


def _pgcd(a, b):
    while not _pis_zero(b):
        _, r = _pdivmod(a, b)
        a, b = b, r
    return a


class Scalar:
    """Element of Q(zeta_M)(tau) in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num  # tuple[Cyc], trimmed
        self.den = den  # tuple[Cyc], monic, coprime to num

    @staticmethod
    def _make(num, den):
        num = _ptrim(num)
        den = _ptrim(den)
        if _pis_zero(den):
            raise ZeroDivisionError("zero denominator")
        if _pis_zero(num):
            return num[0].s.zero
        # a constant on either side is a unit, so the gcd is 1
        if len(num) > 1 and len(den) > 1:
            g = _pgcd(num, den)
            if len(g) > 1:
                num, _ = _pdivmod(num, g)
                den, _ = _pdivmod(den, g)
        lead = den[-1]
        if not lead.is_one():
            li = lead.inv()
            num = tuple(x * li for x in num)
            den = tuple(x * li for x in den)
        return Scalar(num, den)

    @property
    def session(self):
        return self.num[0].s

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        num = self.num
        return len(num) == 1 and not any(num[0].n)

    def __bool__(self):
        return not self.is_zero()

    def is_constant(self):
        return len(self.num) == 1 and len(self.den) == 1

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    # -- field operations ---------------------------------------------
    # Over a common den of length 1, that den is (1), so (a op b)/(1)
    # below is canonical.

    def __add__(self, other):
        a, b = self.num, other.num
        if len(self.den) == 1 and len(other.den) == 1:
            if len(a) == 1 and len(b) == 1:
                c = a[0] + b[0]
                if c is a[0]:
                    return self
                return other if c is b[0] else Scalar((c,), self.den)
            return Scalar(_padd(a, b), self.den)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return Scalar._make(_padd(a, b), self.den)
        num = _padd(_pmul(a, other.den), _pmul(b, self.den))
        return Scalar._make(num, _pmul(self.den, other.den))

    def __sub__(self, other):
        a, b = self.num, other.num
        if len(self.den) == 1 and len(other.den) == 1:
            if len(a) == 1 and len(b) == 1:
                c = a[0] - b[0]
                return self if c is a[0] else Scalar((c,), self.den)
            return Scalar(_psub(a, b), self.den)
        if other.is_zero():
            return self
        if self.is_zero():
            return -other
        if self.den == other.den:
            return Scalar._make(_psub(a, b), self.den)
        num = _psub(_pmul(a, other.den), _pmul(b, self.den))
        return Scalar._make(num, _pmul(self.den, other.den))

    def __neg__(self):
        num = self.num
        if len(num) == 1:
            c = num[0]
            return self if not any(c.n) else Scalar((-c,), self.den)
        return Scalar(_pneg(num), self.den)

    def __mul__(self, other):
        a, b = self.num, other.num
        one = a[0].s.one
        if other is one:
            return self
        if self is one:
            return other
        if len(self.den) == 1 and len(other.den) == 1:
            if len(a) == 1 and len(b) == 1:
                c = a[0] * b[0]
                if c is a[0]:
                    return self
                return other if c is b[0] else Scalar((c,), self.den)
            return Scalar(_pmul(a, b), self.den)
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        return Scalar._make(_pmul(a, b), _pmul(self.den, other.den))

    def inv(self):
        num = self.num
        if len(num) == 1 and len(self.den) == 1:
            c = num[0]
            if not any(c.n):
                raise ZeroDivisionError("inverse of zero scalar")
            return self if c.is_one() else Scalar((c.inv(),), self.den)
        return Scalar._make(self.den, num)

    def __truediv__(self, other):
        return self * other.inv()

    def __repr__(self):
        return "Scalar(%s)" % (self.session.format_scalar(self),)

"""Rational functions in the transcendental marker tau over Q(zeta_M).

A Scalar is num/den with num, den polynomials in tau whose coefficients
are cyclotomic numbers.  tau stands for log q and carries no algebraic
relation to zeta_M, so identities proved here hold for the complex values.
Canonical form: den is monic, gcd(num, den) = 1, zero is (0)/(1).
"""

from __future__ import annotations

from .cyclotomic import Cyc
from .errors import PoleError


def _ptrim(c):
    n = len(c)
    while n > 1 and c[n - 1].is_zero():
        n -= 1
    return tuple(c[:n])


def _padd(a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        if i < len(a) and i < len(b):
            out.append(a[i] + b[i])
        elif i < len(a):
            out.append(a[i])
        else:
            out.append(b[i])
    return _ptrim(out)


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if (len(a) == 1 and a[0].is_zero()) or (len(b) == 1 and b[0].is_zero()):
        return (a[0].s.cyc_zero,)
    if len(a) == 1:
        return _ptrim([a[0] * x for x in b])
    if len(b) == 1:
        return _ptrim([x * b[0] for x in a])
    z = a[0].s.cyc_zero
    out = [z] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai.is_zero():
            for j, bj in enumerate(b):
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
    return _ptrim(out)


def _pis_zero(a):
    return len(a) == 1 and a[0].is_zero()


def _pdivmod(a, b):
    """Polynomial division over the cyclotomic field."""
    z = b[0].s.cyc_zero
    a = list(a)
    db = len(b) - 1
    lb_inv = b[-1].inv()
    q = [z] * max(len(a) - db, 1)
    for i in range(len(a) - db - 1, -1, -1):
        f = a[i + db] * lb_inv
        if not f.is_zero():
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
        num = _ptrim(list(num))
        den = _ptrim(list(den))
        if _pis_zero(den):
            raise ZeroDivisionError("zero denominator")
        if _pis_zero(num):
            s = num[0].s
            return s.zero
        if len(den) > 1 or len(num) > 1:
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
        return _pis_zero(self.num)

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

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.is_constant() and other.is_constant():
            return self.session.from_cyc(self.num[0] + other.num[0])
        if self.den == other.den:
            return Scalar._make(_padd(self.num, other.num), self.den)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return Scalar._make(num, _pmul(self.den, other.den))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if self.is_zero():
            return self
        return Scalar(_pneg(self.num), self.den)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return self.session.zero if not self.is_zero() else self
        if self.is_constant() and other.is_constant():
            return self.session.from_cyc(self.num[0] * other.num[0])
        return Scalar._make(
            _pmul(self.num, other.num), _pmul(self.den, other.den)
        )

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar._make(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inv()

    def specialize(self, t0):
        """Exact evaluation at tau = t0 (a Fraction); PoleError on poles."""
        s = self.session
        t = Cyc.from_rational(s, t0)
        num = _horner(self.num, t)
        den = _horner(self.den, t)
        if den.is_zero():
            raise PoleError("denominator vanishes at tau = %s" % (t0,))
        return num / den

    def __repr__(self):
        return "Scalar(%s)" % (self.session.format_scalar(self),)


def _horner(poly, t):
    acc = poly[-1]
    for c in reversed(poly[:-1]):
        acc = acc * t + c
    return acc

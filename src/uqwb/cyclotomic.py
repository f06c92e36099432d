"""Exact arithmetic in the cyclotomic field Q(zeta_M).

An element is n/d: a tuple n of phi(M) integers, the coefficients of a
polynomial in zeta_M reduced modulo the M-th cyclotomic polynomial, over
one positive integer denominator d.  The canonical form has
gcd(d, *n) == 1, so zero is (0, ..., 0)/1 and equality is a plain tuple
comparison.  The cyclotomic polynomial is monic with integer
coefficients, so products convolve and reduce on integers and divide by
one gcd at the end; inverses come from a fraction-free (Bareiss) solve.
An operand that cannot change the value is not computed with: a product
with the rational 1 (numerator (1, 0, ..., 0) over 1) returns the other
operand, and a sum or difference with zero returns the other operand
(0 - b returns -b).  That operand is canonical, so the result is; and
handing back the operand object itself is safe because no Cyc is
changed after its constructor (tests/test_source.py holds the library
to that).
The powers zeta^0 .. zeta^(M-1), the reduction rows (the powers phi ..
2 phi - 2 of that walk) and a bounded table of solved inverses live on
the owning session object.  `_times_zeta` is the one step of the walk,
and `_solve_unit` takes its columns n * zeta^j with it too.  Fractions
appear only at the boundary (from_rational, scale, coefficients); there
are no floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# bound on the inverses of non-monomial elements kept per session
INV_CACHE_SIZE = 4096


def _reduced(session, n, d):
    """The canonical Cyc n/d, for a list or tuple n of ints and d > 0."""
    if d != 1:
        g = gcd(d, *n)
        if g != 1:
            return Cyc(session, tuple(x // g for x in n), d // g)
    return Cyc(session, tuple(n), d)


class Cyc:
    """An element of Q(zeta_M), in canonical reduced form.

    ``n`` is a tuple of phi(M) ints and ``d`` a positive int with
    gcd(d, *n) == 1; the value is sum(n[k] * zeta_M^k) / d.  ``s`` is the
    owning session, which carries the reduction rows.  The constructor
    trusts its arguments to be canonical; other values are built with
    from_rational, zeta_power, scale and the field operations.
    """

    __slots__ = ("s", "n", "d")

    def __init__(self, session, n, d=1):
        self.s = session
        self.n = n  # tuple[int], len == session.phi
        self.d = d  # int > 0, coprime to the entries of n

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(session, r):
        r = Fraction(r)
        return Cyc(session, (r.numerator,) + (0,) * (session.phi - 1),
                   r.denominator)

    @staticmethod
    def zeta_power(session, e):
        """zeta_M^e in reduced form (e any integer)."""
        return session._zeta_table[e % session.M]

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not any(self.n)

    def is_one(self):
        n = self.n
        return n[0] == 1 and self.d == 1 and not any(n[1:])

    def coefficients(self):
        """The power-basis coefficients as a tuple of Fractions."""
        d = self.d
        return tuple(Fraction(x, d) for x in self.n)

    def __bool__(self):
        return any(self.n)

    def __eq__(self, other):
        return (isinstance(other, Cyc) and self.d == other.d
                and self.n == other.n)

    def __hash__(self):
        return hash((self.n, self.d))

    # -- field operations ---------------------------------------------

    def __add__(self, other):
        if not any(other.n):
            return self
        if not any(self.n):
            return other
        da, db = self.d, other.d
        if da == db:
            return _reduced(self.s, [a + b for a, b in
                                     zip(self.n, other.n)], da)
        return _reduced(self.s, [a * db + b * da for a, b in
                                 zip(self.n, other.n)], da * db)

    def __sub__(self, other):
        if not any(other.n):
            return self
        if not any(self.n):
            return -other
        da, db = self.d, other.d
        if da == db:
            return _reduced(self.s, [a - b for a, b in
                                     zip(self.n, other.n)], da)
        return _reduced(self.s, [a * db - b * da for a, b in
                                 zip(self.n, other.n)], da * db)

    def __neg__(self):
        return Cyc(self.s, tuple(-a for a in self.n), self.d)

    def __mul__(self, other):
        a, b = self.n, other.n
        d = self.d * other.d
        if not any(a[1:]):
            f = a[0]
            if not f:
                return self.s.cyc_zero
            if f == 1 and self.d == 1:
                return other
            return _reduced(self.s, [f * x for x in b], d)
        if not any(b[1:]):
            f = b[0]
            if not f:
                return self.s.cyc_zero
            if f == 1 and other.d == 1:
                return self
            return _reduced(self.s, [f * x for x in a], d)
        phi = self.s.phi
        conv = [0] * (2 * phi - 1)
        bnz = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if ai:
                for j, bj in bnz:
                    conv[i + j] += ai * bj
        out = conv[:phi]
        red = self.s._red_rows  # sparse rows for zeta^k, k >= phi
        for k in range(phi, 2 * phi - 1):
            ck = conv[k]
            if ck:
                for j, rj in red[k - phi]:
                    out[j] += ck * rj
        return _reduced(self.s, out, d)

    def scale(self, f):
        """Multiply by a rational."""
        f = Fraction(f)
        if not f:
            return self.s.cyc_zero
        p = f.numerator
        return _reduced(self.s, [p * x for x in self.n],
                        self.d * f.denominator)

    def inv(self):
        n, s = self.n, self.s
        nz = [k for k, x in enumerate(n) if x]
        if not nz:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if len(nz) == 1:
            # (c zeta^k / d)^-1 = (d / c) zeta^-k, and zeta^-k has
            # integer coefficients
            k = nz[0]
            c = n[k]
            z = Cyc.zeta_power(s, -k).n
            if c < 0:
                return _reduced(s, [-self.d * x for x in z], -c)
            return _reduced(s, [self.d * x for x in z], c)
        # the same few units are inverted over and over (pivots, leading
        # coefficients), so solved inverses are kept on the session
        cache = s._inv_cache
        key = (n, self.d)
        out = cache.get(key)
        if out is None:
            x, det = _solve_unit(s, n)
            # n * x = det, so (n/d)^-1 = d * x / det
            if det < 0:
                det, x = -det, [-v for v in x]
            out = _reduced(s, [self.d * v for v in x], det)
            if len(cache) >= INV_CACHE_SIZE:
                cache.clear()
            cache[key] = out
        return out

    def __truediv__(self, other):
        return self * other.inv()

    def __repr__(self):
        return "Cyc(%s)" % (self.s.format_cyc(self),)


def _times_zeta(v, base):
    """zeta * v on a list of phi ints, the power-basis coefficients of v,
    with base the sparse row of zeta^phi: each coefficient moves up one
    power, and the top one is carried back through base."""
    out = [0, *v[:-1]]
    top = v[-1]
    if top:
        for j, c in base:
            out[j] += top * c
    return out


def _solve_unit(session, n):
    """Integers x and det != 0 with n * x == det in Z[zeta_M].

    Bareiss fraction-free elimination on the multiplication-by-n matrix,
    augmented with the coordinates of 1; every division is exact, and
    det is the last pivot (the matrix determinant up to sign).  n must
    be nonzero.
    """
    phi = session.phi
    base = session._red_rows[0]  # zeta^phi
    # row i of the augmented matrix: coefficient i of n * zeta^j, then 1
    cols = [list(n)]
    for _ in range(phi - 1):
        cols.append(_times_zeta(cols[-1], base))
    m = [[col[i] for col in cols] + [1 if i == 0 else 0]
         for i in range(phi)]
    prev = 1
    for k in range(phi):
        if not m[k][k]:
            # the matrix is invertible, so some row below has a pivot
            r = next(r for r in range(k + 1, phi) if m[r][k])
            m[k], m[r] = m[r], m[k]
        pk = m[k][k]
        tail = m[k][k + 1:]
        for i in range(k + 1, phi):
            ri = m[i]
            f = ri[k]
            if f:
                ri[k + 1:] = [(pk * a - f * b) // prev
                              for a, b in zip(ri[k + 1:], tail)]
            else:
                ri[k + 1:] = [pk * a // prev for a in ri[k + 1:]]
            ri[k] = 0
        prev = pk
    det = prev
    x = [0] * phi
    for i in range(phi - 1, -1, -1):
        ri = m[i]
        acc = det * ri[phi] - sum(a * b for a, b in zip(ri[i + 1:phi],
                                                        x[i + 1:]))
        x[i] = acc // ri[i]
    return x, det

"""Session configuration and the arithmetic context built from it.

A session fixes ell (so q = exp(2*pi*i/ell) is a primitive ell-th root of
unity), the weight denominator N (weights live in (1/N)Z), the cyclotomic
order M = 2*N*ell, and the coefficient mode used for the K = q^H series on
nilpotent blocks.  The field's two int tables, the powers zeta^0 ..
zeta^(M-1) and the reduction rows zeta^phi .. zeta^(2*phi-2) that products
reduce by, are read off one walk from 1 by `cyclotomic._times_zeta`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cyclotomic import Cyc, _times_zeta
from .errors import RejectedInputError
from .scalars import Scalar

MODE_EXPONENTIAL = "exponential"
MODE_PAPER_LITERAL = "paper-literal"

# Ceiling on the cyclotomic order M = 2*N*ell.  Building a session costs
# roughly M*phi(M) (Session(1024), M = 4096, took 0.44-0.52 s, and its
# process peaked at 80 MB, on a 2-vCPU host with Python 3.11), so a larger
# ell or N in a dump or on the command line is refused as a usage error
# before any of that work is done.
MAX_ORDER = 4096

# Ceiling on a tau exponent in scalar text.  A polynomial is parsed into a
# coefficient tuple as long as its largest exponent, so a larger exponent
# is refused as a usage error before that tuple is built.  It cannot come
# from a dump's max_degree: a change of basis by diag(tau^k, 1, ..., 1)
# puts tau^(k+1) into a valid module of degree 1, for any k.
MAX_TAU_DEGREE = 4096


def _cyclotomic_coeffs(M):
    """Ascending int coefficients of the M-th cyclotomic polynomial.

    Moebius inversion of x^M - 1 = prod_{d | M} Phi_d gives
    Phi_M = prod_{d | M} (x^d - 1)^mu(M/d).  mu(M/d) is nonzero only when
    M/d is a product of distinct primes of M, so the factors are
    d = M/P for the subsets P of those primes, with mu = (-1)^|P|.  The
    factors with mu = 1 are multiplied in first and those with mu = -1
    divided out after, exactly; each step is one pass over the ints.
    """
    primes, n, p = [], M, 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    up, down = [M], []  # d = M/P for |P| even, and for |P| odd
    for p in primes:
        up, down = up + [d // p for d in down], down + [d // p for d in up]
    poly = [1]
    for d in up:  # times (x^d - 1): c_k -> c_{k-d} - c_k
        poly = [-c for c in poly] + [0] * d
        for k in range(len(poly) - 1, d - 1, -1):
            poly[k] -= poly[k - d]
    for d in down:  # over (x^d - 1): q_k = q_{k-d} - c_k, remainder 0
        poly = [-c for c in poly[:len(poly) - d]]
        for k in range(d, len(poly)):
            poly[k] += poly[k - d]
    return poly


class Session:
    """Arithmetic context: exact model of Q(zeta_M)(tau) for fixed ell, N.

    Q(zeta_M) is Q[x]/Phi_M, and Phi_M is built from integers alone by
    Moebius inversion of x^M - 1 = prod_{d | M} Phi_d (see
    _cyclotomic_coeffs).

    Inside the library a weight w in (1/N)Z is the int k = N*w
    (`weight_key`, RejectedInputError off the lattice): weight blocks,
    their shifts (w + 2 is k + 2N), q^w = zeta^(2k), and the caches of
    [n] and of the scalar -w (`neg_weight`) key on it.  Labels, claims,
    tables and texts keep Fractions.  The session also holds the solved
    cyclotomic inverses and the labels of `structure.simple_label` keyed
    by checked Fraction (an off-lattice weight is never stored and
    raises on every call).  Two caches
    belong to `repmod.build_generalized_verma`: the built V(lam, m) keyed
    by (checked weight, degree), and the PBW normal forms of E*F^t keyed
    by t.  Neither key is stored before the weight and degree are checked,
    and the cached modules are read-only, like every built module.

    M = 2*N*ell may not exceed MAX_ORDER (RejectedInputError otherwise).
    """

    def __init__(self, ell, weight_denominator=2, mode=MODE_EXPONENTIAL):
        if ell < 2:
            raise RejectedInputError("ell must be at least 2 (ord(q^2) > 1)")
        if mode not in (MODE_EXPONENTIAL, MODE_PAPER_LITERAL):
            raise RejectedInputError("unknown coefficient mode %r" % (mode,))
        r = ell if ell % 2 == 1 else ell // 2
        if r < 2:
            raise RejectedInputError(
                "r = %d < 2: the simple index range {0,...,r-2} is empty" % r
            )
        if weight_denominator < 1:
            raise RejectedInputError("weight denominator must be positive")
        if 2 * weight_denominator * ell > MAX_ORDER:
            raise RejectedInputError(
                "cyclotomic order M = 2*N*ell = %d exceeds the ceiling %d"
                % (2 * weight_denominator * ell, MAX_ORDER))
        self.ell = ell
        self.r = r
        self.N = weight_denominator
        self.M = 2 * weight_denominator * ell
        self.mode = mode
        # q = exp(2*pi*i/ell) = zeta_M^{2N} has order exactly ell, so
        # r = ord(q^2) and [n] = 0 exactly when r divides n (required by
        # the truncation E^r = F^r = 0), and q^{k*ell} = 1, which makes
        # the one-dimensional modules of weight k*ell/2 genuine modules
        # for every integer k.  So q^w = zeta^(2*N*w) (q_power).

        # zeta^k by _times_zeta; products reduce by zeta^phi..zeta^(2*phi-2)
        coeffs = _cyclotomic_coeffs(self.M)
        phi = self.phi = len(coeffs) - 1
        base = tuple((j, -c) for j, c in enumerate(coeffs[:phi]) if c)
        cur = [1] + [0] * (phi - 1)
        self._zeta_table = []
        for _ in range(self.M):
            self._zeta_table.append(Cyc(self, tuple(cur)))
            cur = _times_zeta(cur, base)
        self._red_rows = [tuple((j, c) for j, c in enumerate(z.n) if c)
                          for z in self._zeta_table[phi:2 * phi - 1]]

        self.cyc_zero = Cyc.from_rational(self, 0)
        self.cyc_one = Cyc.from_rational(self, 1)
        self.zero = Scalar((self.cyc_zero,), (self.cyc_one,))
        self.one = Scalar((self.cyc_one,), (self.cyc_one,))
        self.tau = Scalar((self.cyc_zero, self.cyc_one), (self.cyc_one,))
        self._qint_cache = {}
        self._inv_cache = {}
        self._neg_weight = {}  # k -> the scalar -k/N, see neg_weight
        self._label_cache = {}  # checked weight -> structure.simple_label
        self._verma_cache = {}  # (weight, degree) -> V(weight, degree)
        self._ef_normal_forms = {}  # t -> PBW normal form of E*F^t

    # -- scalar constructors ------------------------------------------

    def from_cyc(self, c):
        return Scalar((c,), (self.cyc_one,))

    def from_rational(self, r):
        return self.from_cyc(Cyc.from_rational(self, r))

    def tau_power(self, s, coeff=None):
        """coeff * tau^s as a Scalar (coeff a Fraction, default 1)."""
        c = Cyc.from_rational(self, 1 if coeff is None else coeff)
        num = (self.cyc_zero,) * s + (c,)
        return Scalar(num, (self.cyc_one,)) if not c.is_zero() else self.zero

    # -- the q-arithmetic the modules are built from ------------------

    def q_power(self, w) -> Cyc:
        """q^w = zeta^(2k) for w in (1/N)Z and k = N*w, with
        q = exp(2*pi*i/ell)."""
        return self._zeta_table[2 * self.weight_key(w) % self.M]

    def quantum_integer(self, n) -> Cyc:
        """[n] = (q^n - q^-n)/(q - q^-1), kept per key N*n."""
        k = self.weight_key(n)
        if k not in self._qint_cache:
            z, M = self._zeta_table, self.M
            self._qint_cache[k] = ((z[2 * k % M] - z[-2 * k % M])
                                   / (self.q_power(1) - self.q_power(-1)))
        return self._qint_cache[k]

    def neg_weight(self, k) -> Scalar:
        """The scalar -w of the weight w = k/N, kept per key k."""
        x = self._neg_weight.get(k)
        if x is None:
            x = self._neg_weight[k] = self.from_rational(Fraction(-k, self.N))
        return x

    def degree_drop_coeff(self, s) -> Scalar:
        """Coefficient of the one-step degree drop (H - w)^s in K = q^H.

        Exponential mode: tau^s / s!, the matrix-exponential series.
        Paper-literal mode: tau^s, kept for textual comparison only.
        """
        if s == 0:
            return self.one
        if self.mode == MODE_EXPONENTIAL:
            f = Fraction(1)
            for k in range(2, s + 1):
                f *= k
            return self.tau_power(s, Fraction(1, 1) / f)
        return self.tau_power(s)

    def check_weight(self, w) -> Fraction:
        """w as a Fraction in (1/N)Z, built only if w is not one."""
        if type(w) is not Fraction:
            w = Fraction(w)
        if self.N % w.denominator:
            raise RejectedInputError("weight %s not in (1/%d)Z" % (w, self.N))
        return w

    def weight_key(self, w) -> int:
        """k = N*w, the int key of a weight w in (1/N)Z; an int or a
        Fraction w builds no Fraction."""
        if type(w) is int:
            return w * self.N
        w = self.check_weight(w)
        return w.numerator * self.N // w.denominator

    # -- text grammar -------------------------------------------------

    def format_cyc(self, c: Cyc) -> str:
        terms = []
        d = c.d
        for k, n in enumerate(c.n):
            if not n:
                continue
            f = Fraction(n, d)
            if k == 0:
                terms.append(str(f))
            elif k == 1:
                terms.append("z" if f == 1 else "%s*z" % f)
            else:
                terms.append("z^%d" % k if f == 1 else "%s*z^%d" % (f, k))
        return "(" + (" + ".join(terms) if terms else "0") + ")"

    def _format_poly(self, poly) -> str:
        terms = [
            "%s*t^%d" % (self.format_cyc(c), k)
            for k, c in enumerate(poly)
            if not c.is_zero()
        ]
        return " + ".join(terms) if terms else "(0)*t^0"

    def format_scalar(self, x: Scalar) -> str:
        num = self._format_poly(x.num)
        if len(x.den) == 1 and x.den[0] == self.cyc_one:
            return num
        return "%s / %s" % (num, self._format_poly(x.den))

    def parse_scalar(self, text: str) -> Scalar:
        num_s, *den_s = _split_top(text, "/")
        if len(den_s) > 1:
            raise RejectedInputError("more than one '/' in scalar %r" % text)
        num = self._parse_poly(num_s)
        den = self._parse_poly(den_s[0]) if den_s else (self.cyc_one,)
        try:
            return Scalar._make(num, den)
        except ZeroDivisionError:
            raise RejectedInputError("zero denominator in scalar %r" % text)

    def _parse_poly(self, text):
        poly = {}
        for term in _terms(_split_top(text, "+"), text):
            m = re.fullmatch(r"(\(.*\))\s*(?:\*\s*t\^(\d+))?", term)
            if not m:
                raise RejectedInputError("cannot parse scalar term %r" % term)
            coef = self._parse_cyc(m.group(1))
            k = _parse_digits(m.group(2), 0, term)
            if k > MAX_TAU_DEGREE:
                raise RejectedInputError("tau exponent in term %r exceeds "
                                         "the ceiling %d"
                                         % (term, MAX_TAU_DEGREE))
            poly[k] = poly.get(k, self.cyc_zero) + coef
        deg = max(poly) if poly else 0
        return tuple(poly.get(k, self.cyc_zero) for k in range(deg + 1))

    def _parse_cyc(self, text) -> Cyc:
        inner = text.strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise RejectedInputError("cyclotomic coefficient must be "
                                     "parenthesized: %r" % text)
        acc = self.cyc_zero
        for term in _terms(inner[1:-1].split("+"), text):
            term = term.replace("−", "-")
            m = re.fullmatch(
                r"(-?\d+(?:/\d+)?)?\s*\*?\s*(z(?:\^(\d+))?)?", term
            )
            if not m or (m.group(1) is None and m.group(2) is None):
                raise RejectedInputError("bad cyclotomic term %r" % term)
            try:
                f = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            except (ValueError, ZeroDivisionError):
                raise RejectedInputError("bad cyclotomic term %r" % term)
            k = 0 if m.group(2) is None else _parse_digits(m.group(3), 1,
                                                           term)
            acc = acc + Cyc.zeta_power(self, k).scale(f)
        return acc

    def describe(self):
        return {
            "ell": self.ell,
            "r": self.r,
            "N": self.N,
            "M": self.M,
            "mode": self.mode,
        }

    def __repr__(self):
        return "Session(ell=%d, N=%d, mode=%s)" % (self.ell, self.N, self.mode)


def _split_top(text, sep):
    """The parts of text between its top-level (outside parens) sep."""
    depth = 0
    parts = []
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _terms(parts, text):
    """The stripped parts of text, split at its "+"; RejectedInputError
    on a blank one, so text with no term, a dangling "+" or empty
    parentheses is refused rather than read as 0."""
    terms = [part.strip() for part in parts]
    if "" in terms:
        raise RejectedInputError("blank term in scalar text %r" % (text,))
    return terms


def _parse_digits(digits, default, term):
    """The exponent written in digits (default if None).  int() refuses a
    digit string longer than sys.get_int_max_str_digits(), which is a
    malformed term, not a bug."""
    if digits is None:
        return default
    try:
        return int(digits)
    except ValueError:
        raise RejectedInputError("bad exponent in term %r" % term)

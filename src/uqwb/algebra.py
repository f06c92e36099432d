"""Symbolic elements of the unrolled restricted quantum sl2.

Elements are finite Scalar-linear combinations of words in the alphabet
{E, F, K, Kinv, H}.  The PBW normal form orders monomials as
F^a E^b K^c H^d with 0 <= a, b <= r-1 (E^r = F^r = 0) and c in Z, d in N;
H generates a polynomial subalgebra and is never truncated.
"""

from __future__ import annotations

from .errors import RejectedInputError

GENERATORS = ("E", "F", "K", "Kinv", "H")

_RANK = {"F": 0, "E": 1, "K": 2, "Kinv": 2, "H": 3}


def _add_term(terms, key, c):
    """Add c to the coefficient of key in a term dict, dropping the key
    if the sum is zero."""
    cur = terms.get(key)
    new = c if cur is None else cur + c
    if new.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = new


class AlgebraElement:
    """Scalar-linear combination of words; immutable in spirit."""

    __slots__ = ("session", "terms")

    def __init__(self, session, terms=None):
        self.session = session
        self.terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def one(session):
        return AlgebraElement(session, {(): session.one})

    @staticmethod
    def zero(session):
        return AlgebraElement(session, {})

    @staticmethod
    def generator(session, name):
        if name not in GENERATORS:
            raise RejectedInputError("unknown generator %r" % (name,))
        return AlgebraElement(session, {(name,): session.one})

    @staticmethod
    def from_word(session, word):
        for g in word:
            if g not in GENERATORS:
                raise RejectedInputError("unknown generator %r" % (g,))
        return AlgebraElement(session, {tuple(word): session.one})

    @staticmethod
    def parse_word(session, text):
        """Whitespace-separated generator names, e.g. ``"E F F H"``."""
        return AlgebraElement.from_word(session, tuple(text.split()))

    # -- linear structure ---------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, c)
        return AlgebraElement(self.session, out)

    def __neg__(self):
        return AlgebraElement(
            self.session, {w: -c for w, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, sc):
        if sc.is_zero():
            return AlgebraElement.zero(self.session)
        return AlgebraElement(
            self.session, {w: sc * c for w, c in self.terms.items()}
        )

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _add_term(out, w1 + w2, c1 * c2)
        return AlgebraElement(self.session, out)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement) and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        parts = []
        for w, c in sorted(self.terms.items()):
            parts.append(
                "[%s] %s" % (self.session.format_scalar(c),
                             " ".join(w) if w else "1")
            )
        return "AlgebraElement(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------
# PBW normal form
# ---------------------------------------------------------------------

def _first_violation(word, r):
    """Index of the first adjacent pair out of PBW order, or None."""
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if {a, b} == {"K", "Kinv"}:
            return i
        if _RANK[a] > _RANK[b]:
            return i
    return None


def _swap_terms(session, a, b):
    """Rewrite the length-2 word (a, b) as a combination of ordered words."""
    s = session
    one = s.one
    if {a, b} == {"K", "Kinv"}:
        return {(): one}
    if a == "E" and b == "F":
        c = s.from_cyc((s.q_power(1) - s.q_power(-1)).inv())
        return {("F", "E"): one, ("K",): c, ("Kinv",): -c}
    if a == "K" and b == "E":
        return {("E", "K"): s.from_cyc(s.q_power(2))}
    if a == "Kinv" and b == "E":
        return {("E", "Kinv"): s.from_cyc(s.q_power(-2))}
    if a == "K" and b == "F":
        return {("F", "K"): s.from_cyc(s.q_power(-2))}
    if a == "Kinv" and b == "F":
        return {("F", "Kinv"): s.from_cyc(s.q_power(2))}
    if a == "H":
        if b == "E":
            return {("E", "H"): one, ("E",): s.from_rational(2)}
        if b == "F":
            return {("F", "H"): one, ("F",): s.from_rational(-2)}
        if b in ("K", "Kinv"):
            return {(b, "H"): one}
    raise AssertionError("no rewrite for %r %r" % (a, b))


def _is_normal(word, r):
    if _first_violation(word, r) is not None:
        return False
    return word.count("E") < r and word.count("F") < r


def pbw_normal_form(x: AlgebraElement) -> AlgebraElement:
    """The unique PBW normal form of x (idempotent)."""
    s = x.session
    r = s.r
    result = {}
    work = dict(x.terms)
    while work:
        word, coeff = work.popitem()
        if coeff.is_zero():
            continue
        i = _first_violation(word, r)
        if i is None:
            if word.count("E") < r and word.count("F") < r:
                _add_term(result, word, coeff)
            continue
        head, tail = word[:i], word[i + 2:]
        for mid, c in _swap_terms(s, word[i], word[i + 1]).items():
            _add_term(work, head + mid + tail, coeff * c)
    return AlgebraElement(s, result)


# ---------------------------------------------------------------------
# Hopf structure and the Chevalley-type automorphism
# ---------------------------------------------------------------------

_OMEGA = {"E": "F", "F": "E", "K": "Kinv", "Kinv": "K", "H": "H"}

_ANTIPODE = {
    "E": (("E", "Kinv"), -1),
    "F": (("K", "F"), -1),
    "H": (("H",), -1),
    "K": (("Kinv",), 1),
    "Kinv": (("K",), 1),
}


def omega_map(x: AlgebraElement) -> AlgebraElement:
    """E <-> F, K <-> Kinv, H -> -H, extended multiplicatively."""
    out = {}
    for w, c in x.terms.items():
        nw = tuple(_OMEGA[g] for g in w)
        nH = sum(1 for g in w if g == "H")
        _add_term(out, nw, -c if nH % 2 else c)
    return AlgebraElement(x.session, out)


def antipode_map(x: AlgebraElement) -> AlgebraElement:
    """The antipode S, an anti-homomorphism on words."""
    out = {}
    for w, c in x.terms.items():
        nw = ()
        sign = 1
        for g in reversed(w):
            img, sg = _ANTIPODE[g]
            nw += img
            sign *= sg
        _add_term(out, nw, -c if sign < 0 else c)
    return AlgebraElement(x.session, out)


def counit(x: AlgebraElement):
    """epsilon: E, F, H -> 0; K, Kinv -> 1."""
    s = x.session
    acc = s.zero
    for w, c in x.terms.items():
        if all(g in ("K", "Kinv") for g in w):
            acc = acc + c
    return acc


def coproduct_expand(session, gen):
    """Sweedler terms of Delta on a generator, as (left, right) pairs."""
    g = AlgebraElement.generator
    one = AlgebraElement.one(session)
    if gen == "E":
        return [(one, g(session, "E")), (g(session, "E"), g(session, "K"))]
    if gen == "F":
        return [(g(session, "Kinv"), g(session, "F")),
                (g(session, "F"), one)]
    if gen == "K":
        return [(g(session, "K"), g(session, "K"))]
    if gen == "Kinv":
        return [(g(session, "Kinv"), g(session, "Kinv"))]
    if gen == "H":
        return [(one, g(session, "H")), (g(session, "H"), one)]
    raise RejectedInputError("unknown generator %r" % (gen,))


def act(x: AlgebraElement, module):
    """Evaluate x on a module as an exact matrix (leftmost acts last)."""
    from .linalg import SMat

    s = x.session
    n = module.dim
    out = SMat(s, n, n)
    ident = SMat.identity(s, n)
    for w, c in x.terms.items():
        m = ident
        for g in reversed(w):
            m = module.generator_matrix(g) @ m
        out = out + m.scale(c)
    return out

"""Exact arithmetic in Q(zeta_M)(tau) against the 50-digit oracle."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from uqwb import RejectedInputError, Session
from uqwb import cyclotomic
from uqwb.cyclotomic import Cyc
from uqwb.scalars import (
    Scalar,
    _padd,
    _pdivmod,
    _pgcd,
    _pis_zero,
    _pmul,
    _pneg,
    _ptrim,
)

from conftest import close, cyc_value, scalar_value


def random_cyc(session, rng):
    acc = session.cyc_zero
    for k in range(session.phi):
        f = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        acc = acc + Cyc.zeta_power(session, k).scale(f)
    return acc


def random_scalar(session, rng):
    num = tuple(random_cyc(session, rng) for _ in range(rng.randint(1, 3)))
    den = tuple(random_cyc(session, rng) for _ in range(rng.randint(1, 2)))
    if all(c.is_zero() for c in den):
        den = (session.cyc_one,)
    return Scalar._make(num, den)


# ---------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------

def test_cyclotomic_field_axioms(session):
    rng = random.Random(7)
    xs = [random_cyc(session, rng) for _ in range(4)]
    for a in xs:
        for b in xs:
            assert a + b == b + a
            assert a * b == b * a
        c = xs[0]
        b = xs[-1]
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert (a * a.inv()) == session.cyc_one
            assert a / a == session.cyc_one


def test_scalar_field_axioms(session):
    rng = random.Random(11)
    xs = [random_scalar(session, rng) for _ in range(4)]
    for a in xs:
        for b in xs:
            assert a + b == b + a
            assert a * b == b * a
            assert a - b == -(b - a)
        c = xs[0]
        b = xs[-1]
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == session.one


def test_cyclotomic_numeric_oracle(session):
    rng = random.Random(3)
    for _ in range(5):
        a = random_cyc(session, rng)
        b = random_cyc(session, rng)
        assert close(cyc_value(session, a * b),
                     cyc_value(session, a) * cyc_value(session, b))
        assert close(cyc_value(session, a + b),
                     cyc_value(session, a) + cyc_value(session, b))


def test_scalar_numeric_oracle(session):
    rng = random.Random(5)
    t = mp.mpf(3) / 7
    for _ in range(5):
        a = random_scalar(session, rng)
        b = random_scalar(session, rng)
        assert close(scalar_value(session, a * b, t),
                     scalar_value(session, a, t)
                     * scalar_value(session, b, t))


def _assert_canonical(c):
    assert isinstance(c.d, int) and c.d > 0
    assert all(isinstance(x, int) for x in c.n)
    assert len(c.n) == c.s.phi
    assert math.gcd(c.d, *c.n) == 1
    if not any(c.n):
        assert c.d == 1


def _cyc_samples(session, rng):
    """Random elements plus sparse ones: zeta powers, rationals, zero."""
    xs = [random_cyc(session, rng) for _ in range(6)]
    xs += [Cyc.zeta_power(session, rng.randrange(session.M)).scale(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(3)]
    xs += [Cyc.from_rational(session, Fraction(rng.randint(-6, 6), 4)),
           session.cyc_zero, session.cyc_one]
    xs.append(xs[0] + Cyc.zeta_power(session, 3).scale(Fraction(1, 6)))
    # no constant term: the inverse's elimination must swap rows
    xs.append(Cyc.zeta_power(session, 1) + Cyc.zeta_power(session, 3).scale(2))
    return xs


def test_cyclotomic_results_canonical(session):
    rng = random.Random(17)
    xs = _cyc_samples(session, rng)
    for a in xs:
        _assert_canonical(a)
        _assert_canonical(-a)
        _assert_canonical(a.scale(Fraction(-6, 4)))
        if not a.is_zero():
            _assert_canonical(a.inv())
        for b in xs:
            for c in (a + b, a - b, a * b):
                _assert_canonical(c)
    # equal values cancel to the canonical zero
    for a in xs:
        assert (a - a).n == (0,) * session.phi and (a - a).d == 1


def _from_coefficients(session, fs):
    """The canonical Cyc with the power-basis coefficients fs."""
    d = math.lcm(*(f.denominator for f in fs))
    return Cyc(session, tuple(int(f * d) for f in fs), d)


def test_cyclotomic_unit_and_zero_operands(session):
    """x*1, 1*x, 0+x, x+0, 0-x and x-0, with 1 and 0 both the session's
    objects and fresh equal ones, equal the value read off the
    coefficients and are canonical; so do the products with the
    rationals next to the shortcut (1/2 has numerator 1, -1 and 2 are
    not 1), which take the general path."""
    rng = random.Random(43)
    xs = _cyc_samples(session, rng)
    ones = [session.cyc_one, Cyc.from_rational(session, 1),
            xs[0] * xs[0].inv()]
    zeros = [session.cyc_zero, Cyc.from_rational(session, 0), xs[0] - xs[0]]
    assert all(one is not session.cyc_one for one in ones[1:])
    assert all(zero is not session.cyc_zero for zero in zeros[1:])
    for x in xs:
        same = _from_coefficients(session, x.coefficients())
        neg = _from_coefficients(session, [-f for f in x.coefficients()])
        results = []
        for one in ones:
            results += [(x * one, same), (one * x, same)]
        for zero in zeros:
            results += [(zero + x, same), (x + zero, same),
                        (zero - x, neg), (x - zero, same)]
        for f in (Fraction(1, 2), Fraction(-1), Fraction(2)):
            c = Cyc.from_rational(session, f)
            fx = _from_coefficients(session,
                                    [f * v for v in x.coefficients()])
            results += [(x * c, fx), (c * x, fx)]
        for got, expect in results:
            _assert_canonical(got)
            assert (got.n, got.d) == (expect.n, expect.d)


def test_cyclotomic_equality_matches_oracle(session):
    rng = random.Random(19)
    xs = _cyc_samples(session, rng)
    # the same values reached along other routes
    xs += [xs[0] * xs[1] - xs[1] * xs[0], (xs[2] + xs[3]) - xs[3],
           xs[4].scale(Fraction(2, 3)).scale(Fraction(3, 2))]
    for a in xs:
        for b in xs:
            same = close(cyc_value(session, a), cyc_value(session, b))
            assert (a == b) == same
            if same:
                assert hash(a) == hash(b)


def test_cyclotomic_inverse_oracle(session):
    rng = random.Random(23)
    for a in _cyc_samples(session, rng):
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inv()
            continue
        assert close(cyc_value(session, a.inv()),
                     1 / cyc_value(session, a))
        assert a * a.inv() == session.cyc_one
        assert (a * a.inv()).is_one()
    assert not Cyc.zeta_power(session, 1).is_one()
    assert not Cyc.from_rational(session, Fraction(1, 2)).is_one()


def test_inverse_table_stays_bounded(monkeypatch):
    monkeypatch.setattr(cyclotomic, "INV_CACHE_SIZE", 2)
    s = Session(5)
    rng = random.Random(31)
    for a in _cyc_samples(s, rng):
        if not a.is_zero():
            assert a * a.inv() == s.cyc_one
            assert a.inv() * a == s.cyc_one
            assert len(s._inv_cache) <= 2


def test_cyclotomic_format_parse_round_trip(session):
    rng = random.Random(29)
    for a in _cyc_samples(session, rng):
        text = session.format_cyc(a)
        b = session._parse_cyc(text)
        assert b == a
        assert session.format_cyc(b) == text


def test_parse_reduces_high_zeta_powers(session):
    phi = session.phi
    text = "(1/2*z^%d + -3*z^%d)" % (phi, session.M + 1)
    expect = (Cyc.zeta_power(session, phi).scale(Fraction(1, 2))
              - Cyc.zeta_power(session, 1).scale(3))
    assert session._parse_cyc(text) == expect


# ---------------------------------------------------------------------
# the constant fast paths against the general canonical form
# ---------------------------------------------------------------------

def _nonzero_cyc(session, rng):
    c = random_cyc(session, rng)
    while c.is_zero():
        c = random_cyc(session, rng)
    return c


def _tau_poly(session, rng):
    """A tau-polynomial of degree 1 or 2 with nonzero leading term."""
    low = tuple(random_cyc(session, rng) for _ in range(rng.randint(1, 2)))
    return low + (_nonzero_cyc(session, rng),)


def _operand_shapes(session, rng):
    """(name, num, den) of each operand shape, as raw polynomials."""
    one = (session.cyc_one,)
    unit = _nonzero_cyc(session, rng)
    while unit.is_one():
        unit = _nonzero_cyc(session, rng)
    z = session.cyc_zero
    half = Cyc.from_rational(session, Fraction(1, 2))
    qw = session.q_power(Fraction(3, 2))
    return [
        ("constant", (_nonzero_cyc(session, rng),), one),
        ("minus one", (-session.cyc_one,), one),
        ("poly over 1", _tau_poly(session, rng), one),
        ("poly over a constant", _tau_poly(session, rng), (unit,)),
        ("constant over poly", (_nonzero_cyc(session, rng),),
         _tau_poly(session, rng)),
        # zero interior coefficients, as in the entries of K
        ("tau^2/2", (z, z, half), one),
        ("-tau^2/2", (z, z, -half), one),
        ("q^w(1 + tau + tau^2/2)", (qw, qw, qw * half), one),
    ]


def _reference_form(session, num, den):
    """The canonical form of num/den with the gcd always taken."""
    num, den = _ptrim(num), _ptrim(den)
    if _pis_zero(num):
        return session.zero
    g = _pgcd(num, den)
    num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
    li = den[-1].inv()
    return Scalar(tuple(x * li for x in num), tuple(x * li for x in den))


def _assert_scalar_canonical(session, x):
    assert x.num == _ptrim(x.num) and x.den == _ptrim(x.den)
    assert x.den[-1].is_one()
    if x.is_zero():
        assert x.den == (session.cyc_one,)
    assert len(_pgcd(x.num, x.den)) == 1
    for c in x.num + x.den:
        _assert_canonical(c)


def _raw(op, x, y):
    """num, den of op(x, y) by the textbook formulas, unreduced."""
    if op == "+":
        return (_padd(_pmul(x.num, y.den), _pmul(y.num, x.den)),
                _pmul(x.den, y.den))
    if op == "-":
        return (_padd(_pmul(x.num, y.den), _pneg(_pmul(y.num, x.den))),
                _pmul(x.den, y.den))
    if op == "*":
        return _pmul(x.num, y.num), _pmul(x.den, y.den)
    return _pmul(x.num, y.den), _pmul(x.den, y.num)


BINOPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b, "/": lambda a, b: a / b}


def test_fast_paths_match_general_form_and_oracle(session):
    rng = random.Random(41)
    t = mp.mpf(3) / 7
    for _ in range(2):
        shapes = _operand_shapes(session, rng)
        xs = []
        for name, num, den in shapes:
            x = Scalar._make(num, den)
            _assert_scalar_canonical(session, x)
            assert x == _reference_form(session, num, den), name
            assert close(scalar_value(session, x, t),
                         scalar_value(session, Scalar(num, den), t))
            xs.append(x)
        # one as the session's object and as an equal one parsed afresh
        parsed_one = session.parse_scalar("(1)*t^0")
        assert parsed_one == session.one and parsed_one is not session.one
        xs += [session.zero, session.one, parsed_one]
        for x in xs:
            vx = scalar_value(session, x, t)
            results = [(-x, -vx, (_pneg(x.num), x.den))]
            if not x.is_zero():
                results.append((x.inv(), 1 / vx, (x.den, x.num)))
            else:
                with pytest.raises(ZeroDivisionError):
                    x.inv()
            for y in xs:
                vy = scalar_value(session, y, t)
                for op, f in BINOPS.items():
                    if op == "/" and y.is_zero():
                        with pytest.raises(ZeroDivisionError):
                            x / y
                        continue
                    results.append((f(x, y), f(vx, vy), _raw(op, x, y)))
            for got, value, (num, den) in results:
                _assert_scalar_canonical(session, got)
                assert close(scalar_value(session, got, t), value)
                assert got == Scalar._make(num, den)
                assert got == _reference_form(session, num, den)


def test_product_with_the_unit_object_is_the_other_operand(session):
    """x * one and one * x return x itself when one is the session's
    unit object, for a constant, a tau-polynomial and a rational
    function; a fresh Scalar equal to 1 takes the general path and gives
    an equal product."""
    s = session
    const = s.from_cyc(s.q_power(1)) + s.from_rational(Fraction(1, 3))
    poly = s.tau_power(2, Fraction(3)) + const
    ratio = (s.tau * s.tau + const) / (s.tau + s.from_rational(2))
    assert const.is_constant() and len(poly.num) == 3 and len(ratio.den) == 2
    fresh = s.from_rational(1)
    assert fresh == s.one and fresh is not s.one
    for x in (const, poly, ratio, s.zero, s.one):
        assert x * s.one is x
        assert s.one * x is x
        assert x * fresh == x == fresh * x
        assert x * fresh == Scalar._make(_pmul(x.num, fresh.num),
                                         _pmul(x.den, fresh.den))


# ---------------------------------------------------------------------
# q-arithmetic
# ---------------------------------------------------------------------

def test_q_power_homomorphism(session):
    ws = [Fraction(n, 2) for n in range(-6, 7)]
    for a in ws:
        for b in ws:
            assert (session.q_power(a) * session.q_power(b)
                    == session.q_power(a + b))
    assert session.q_power(0) == session.cyc_one


def test_q_has_order_ell(session):
    for n in range(1, 2 * session.ell + 1):
        is_one = session.q_power(n) == session.cyc_one
        assert is_one == (n % session.ell == 0)


def test_q_power_numeric_oracle(session):
    for w in [Fraction(1), Fraction(1, 2), Fraction(-3, 2), Fraction(5)]:
        expect = mp.e ** (2j * mp.pi * mp.mpf(w.numerator)
                          / (w.denominator * session.ell))
        assert close(cyc_value(session, session.q_power(w)), expect)


def test_quantum_integer_vanishing(session):
    r = session.r
    for n in range(1, 3 * r + 1):
        assert session.quantum_integer(n).is_zero() == (n % r == 0)


def test_quantum_integer_numeric_oracle(session):
    theta = 2 * mp.pi / session.ell
    for n in range(1, 2 * session.r):
        expect = mp.sin(n * theta) / mp.sin(theta)
        assert close(cyc_value(session, session.quantum_integer(n)), expect)


def test_quantum_integer_symmetry(session):
    for n in range(0, 2 * session.r):
        assert session.quantum_integer(-n) == -session.quantum_integer(n)


def test_q_power_cache_agrees_across_weight_types():
    for first, second in ((2, Fraction(2)), (Fraction(2), 2)):
        s = Session(5)
        a = s.q_power(first)
        b = s.q_power(second)
        assert a == b == s.q_power(first) == s.q_power(Fraction(4, 2))
        assert a == Cyc.zeta_power(s, 2 * 2 * s.N)
    s = Session(8)
    for w in (Fraction(1, 2), Fraction(-3, 2), 5):
        assert s.q_power(w) == s.q_power(w) == s.q_power(Fraction(w))


def test_off_lattice_weight_rejected_on_every_call():
    s = Session(5)
    for _ in range(3):
        with pytest.raises(RejectedInputError):
            s.q_power(Fraction(1, 3))
    assert s.q_power(Fraction(1, 2)) == s.q_power(Fraction(1, 2))
    with pytest.raises(RejectedInputError):
        s.q_power(Fraction(1, 3))


def test_weight_denominator_enforced(s5):
    with pytest.raises(RejectedInputError):
        s5.q_power(Fraction(1, 3))
    s3 = Session(5, weight_denominator=3)
    assert s3.q_power(Fraction(1, 3)) is not None


# ---------------------------------------------------------------------
# the degree-drop coefficients (K = q^H on nilpotent blocks)
# ---------------------------------------------------------------------

def test_degree_drop_convolution_exponential(session):
    """c(a) c(b) = binom(a+b, a) c(a+b): the exponential series law."""
    from math import comb
    for a in range(0, 4):
        for b in range(0, 4):
            lhs = session.degree_drop_coeff(a) * session.degree_drop_coeff(b)
            rhs = session.degree_drop_coeff(a + b) \
                * session.from_rational(comb(a + b, a))
            assert lhs == rhs


def test_degree_drop_paper_literal_breaks_convolution():
    s = Session(5, mode="paper-literal")
    c1 = s.degree_drop_coeff(1)
    c2 = s.degree_drop_coeff(2)
    assert c1 * c1 == c2          # tau * tau = tau^2, no factorial
    assert c1 * c1 != c2 + c2     # so the series law 2*c(2) fails


def test_degree_drop_numeric_oracle(session):
    t = mp.mpf(1) / 3
    for p in range(0, 5):
        expect = t ** p / mp.factorial(p)
        got = scalar_value(session, session.degree_drop_coeff(p), t)
        assert close(got, expect)


# ---------------------------------------------------------------------
# the text grammar
# ---------------------------------------------------------------------

def test_scalar_format_parse_round_trip(session):
    rng = random.Random(13)
    for _ in range(8):
        x = random_scalar(session, rng)
        text = session.format_scalar(x)
        assert session.parse_scalar(text) == x


def test_scalar_grammar_example(s8):
    x = s8.parse_scalar("(1/2 + z^3)*t^0 + (-1)*t^2")
    tau = s8.tau
    half = s8.from_rational(Fraction(1, 2))
    z3 = s8.from_cyc(Cyc.zeta_power(s8, 3))
    assert x == half + z3 - tau * tau
    assert s8.parse_scalar(s8.format_scalar(x)) == x


def test_parse_rejects_garbage(s5):
    for bad in ["(1 +", "spam", "(z)*t^", "1/2 + z"]:
        with pytest.raises(RejectedInputError):
            s5.parse_scalar(bad)


def test_parse_refuses_two_top_level_slashes(s5):
    """A scalar is one numerator over at most one denominator: a second
    "/" outside the parentheses is refused by name, while the "/" of a
    rational coefficient inside them parses."""
    assert s5.parse_scalar("(1/2) / (3)") == s5.from_rational(Fraction(1, 6))
    with pytest.raises(RejectedInputError, match="more than one '/'"):
        s5.parse_scalar("(1) / (2) / (3)")


def test_session_validation():
    with pytest.raises(RejectedInputError):
        Session(1)
    with pytest.raises(RejectedInputError):
        Session(2)  # r = 1, empty simple range
    with pytest.raises(RejectedInputError):
        Session(5, mode="nonsense")
    with pytest.raises(RejectedInputError):
        Session(5, weight_denominator=0)

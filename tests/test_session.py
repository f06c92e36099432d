"""The cyclotomic polynomial Phi_M that every Session reduces by, checked
against its defining identities and the numerical oracle, and the
session's field tables checked against a reduction by Phi_M written
here."""

import hashlib
import json
import math
import random

import mpmath as mp

import pytest

from uqwb import RejectedInputError, Session
from uqwb.cyclotomic import _solve_unit
from uqwb.session import MAX_TAU_DEGREE, _cyclotomic_coeffs

from conftest import TOL

# SHA-256 of json.dumps of the ascending coefficient lists of Phi_M for
# M = 1..800, 1024, 2048, 3960, 4092 and 4096, as an independent
# computer-algebra system computed them
ORDERS = list(range(1, 801)) + [1024, 2048, 3960, 4092, 4096]
COEFFS_SHA256 = (
    "b9133a3e70a7f4a7ec5e5b8e0848a606a1caa580a45a52ff91eac34876517c3b")


def test_coefficients_digest():
    data = json.dumps([_cyclotomic_coeffs(M) for M in ORDERS])
    assert hashlib.sha256(data.encode()).hexdigest() == COEFFS_SHA256


def test_monic_integer_of_degree_euler_phi():
    for M in range(1, 401):
        c = _cyclotomic_coeffs(M)
        assert all(type(a) is int for a in c), M
        assert c[-1] == 1, M
        totient = sum(1 for k in range(1, M + 1) if math.gcd(k, M) == 1)
        assert len(c) - 1 == totient, M


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def test_product_over_divisors_is_x_to_the_M_minus_1():
    phis = {M: _cyclotomic_coeffs(M) for M in range(1, 401)}
    for M in phis:
        prod = [1]
        for d in range(1, M + 1):
            if M % d == 0:
                prod = _mul(prod, phis[d])
        assert prod == [-1] + [0] * (M - 1) + [1], M


def _mod_phi(poly, phi_coeffs):
    """poly (ascending ints) modulo the monic phi_coeffs, by int long
    division, as a list of len(phi_coeffs) - 1 ints."""
    d = len(phi_coeffs) - 1
    rem = list(poly) + [0] * max(0, d - len(poly))
    for k in range(len(rem) - 1, d - 1, -1):
        c = rem[k]
        if c:
            for i, a in enumerate(phi_coeffs):
                rem[k - d + i] -= c * a
    return rem[:d]


@pytest.mark.parametrize("ell, N", [(3, 1), (4, 1), (5, 2), (8, 2),
                                    (6, 3), (12, 2)])
def test_field_tables_match_long_division(ell, N):
    """Every zeta^k of the session's table is x^k mod Phi_M, its
    reduction rows are the sparse forms of x^k mod Phi_M for
    phi <= k <= 2 phi - 2, and _solve_unit's x satisfies n x = det in
    Z[x]/Phi_M on seeded elements, sparse and dense."""
    s = Session(ell, N)
    cyclo = _cyclotomic_coeffs(s.M)
    phi = s.phi
    assert len(s._zeta_table) == s.M
    for k, z in enumerate(s._zeta_table):
        assert z.d == 1 and list(z.n) == _mod_phi([0] * k + [1], cyclo), k
    assert len(s._red_rows) == phi - 1
    for k in range(phi, 2 * phi - 1):
        row = _mod_phi([0] * k + [1], cyclo)
        assert s._red_rows[k - phi] == tuple(
            (j, c) for j, c in enumerate(row) if c), k
    rng = random.Random(100 * ell + N)
    for trial in range(12):
        n = [rng.randint(-4, 4) if rng.random() < (trial + 1) / 12 else 0
             for _ in range(phi)]
        if not any(n):
            n[rng.randrange(phi)] = 1
        x, det = _solve_unit(s, tuple(n))
        assert det != 0
        assert _mod_phi(_mul(n, x), cyclo) == [det] + [0] * (phi - 1), n


def test_primitive_root_is_a_root():
    """e^{2 pi i/M} is a root of the session's Phi_M to 40 digits, for
    M = 2*N*ell with N = 2 and ell = 3..12."""
    for ell in range(3, 13):
        s = Session(ell)
        c = _cyclotomic_coeffs(s.M)
        assert len(c) - 1 == s.phi
        z = mp.e ** (2j * mp.pi / s.M)
        assert abs(mp.polyval(c[::-1], z)) < TOL, ell


def test_tau_exponent_ceiling():
    """A tau exponent up to MAX_TAU_DEGREE parses; one above it is
    refused."""
    s = Session(5)
    top = s.parse_scalar("(1)*t^%d" % MAX_TAU_DEGREE)
    assert len(top.num) == MAX_TAU_DEGREE + 1
    with pytest.raises(RejectedInputError):
        s.parse_scalar("(1)*t^%d" % (MAX_TAU_DEGREE + 1))

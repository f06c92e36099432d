"""The cyclotomic polynomial Phi_M that every Session reduces by, checked
against its defining identities and the numerical oracle."""

import hashlib
import json
import math

import mpmath as mp

import pytest

from uqwb import RejectedInputError, Session
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

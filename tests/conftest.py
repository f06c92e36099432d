"""Shared fixtures and the 50-digit numerical oracle.

The oracle evaluates exact cyclotomic/rational-function values as
mpmath complex numbers at 50 decimal digits; exact results must match
it to 1e-40, far beyond any plausible coincidence.
"""

import mpmath as mp
import pytest

from uqwb import Session

mp.mp.dps = 50

TOL = mp.mpf("1e-40")


def cyc_value(session, c):
    """Numerical value of a Cyc via zeta_M = exp(2*pi*i/M)."""
    z = mp.e ** (2j * mp.pi / session.M)
    acc = mp.mpc(0)
    for k, f in enumerate(c.coefficients()):
        if f:
            acc += mp.mpf(f.numerator) / mp.mpf(f.denominator) * z ** k
    return acc


def scalar_value(session, x, tau):
    """Numerical value of a Scalar at tau."""
    num = sum(cyc_value(session, c) * tau ** k
              for k, c in enumerate(x.num))
    den = sum(cyc_value(session, c) * tau ** k
              for k, c in enumerate(x.den))
    return num / den


def close(a, b, tol=TOL):
    return abs(mp.mpc(a) - mp.mpc(b)) < tol


@pytest.fixture(scope="session")
def s5():
    return Session(5)


@pytest.fixture(scope="session")
def s8():
    return Session(8)


@pytest.fixture(scope="session", params=[5, 8], ids=["ell5", "ell8"])
def session(request, s5, s8):
    return s5 if request.param == 5 else s8

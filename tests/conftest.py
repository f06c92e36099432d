"""Shared fixtures and the 50-digit numerical oracle.

The oracle evaluates exact cyclotomic/rational-function values as
mpmath complex numbers at 50 decimal digits; exact results must match
it to 1e-40, far beyond any plausible coincidence.
"""

import mpmath as mp
import pytest

from uqwb import Session
from uqwb.linalg import SMat
from uqwb.repmod import ModuleRep

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


def tau_conjugated(mod, k):
    """mod in the basis changed by diag(tau^k, 1, ..., 1): D X D^-1 for
    each generator X, so entries of row 0 gain tau^k and entries of
    column 0 lose it."""
    s = mod.session
    t = s.tau_power(k)
    tinv = t.inv()

    def conj(mat):
        out = SMat(s, mat.nrows, mat.ncols)
        for i, row in enumerate(mat.rows):
            for j, x in row.items():
                if i == 0:
                    x = x * t
                if j == 0:
                    x = x * tinv
                out.set(i, j, x)
        return out

    return ModuleRep(s, mod.labels, conj(mod.matE), conj(mod.matF),
                     conj(mod.matH), mod.max_degree,
                     name="%s tau^%d-conjugated" % (mod.name, k))

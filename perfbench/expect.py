"""Closed-form expectations, derived here from the definitions alone.

r = ord(q^2) is ell for odd ell and ell/2 for even ell.  A weight lam is
atypical when lam = i + k*ell/2 with 0 <= i <= r-2 and k an integer;
that (i, k) is found by search, not by the library's formula.  For such
a lam, j = r-2-i, and the projective cover P_i^m (x) C_{k*ell/2}:

- has dimension 2(m+1)r (two generalized Vermas of dimension (m+1)r);
- has standard quotient weights [j+r+k*ell/2, i+k*ell/2] from bottom to
  top, and costandard ones in the reverse order;
- has weights i-2t+k*ell/2 and j+r-2t+k*ell/2, t = 0..r-1, each with
  an (m+1)-dimensional block.

Degree-0 BGG reciprocity: the cover of the simple at lam has the
standard quotients listed above (only V(lam, 0) for typical lam), so the
cell (lam, mu) is 1 iff mu = lam, or lam is atypical and mu = j+r+k*ell/2
is its linked weight; every other cell is 0.  A composition series of
V(mu, 0) fills its r dimensions, so sum(mult * dim) over its factors is
r, where L_i (x) C has dimension i+1 and a typical simple has dimension r.
"""

from __future__ import annotations

from fractions import Fraction


def rank_r(ell):
    return ell if ell % 2 else ell // 2


def atypical_pair(ell, lam):
    """(i, k) with lam = i + k*ell/2 and 0 <= i <= r-2, or None."""
    r = rank_r(ell)
    half = Fraction(ell, 2)
    k0 = int(lam / half)
    for k in range(k0 - 3, k0 + 4):
        i = lam - k * half
        if i.denominator == 1 and 0 <= i <= r - 2:
            return int(i), k
    return None


def cover_dim(ell, m):
    return 2 * (m + 1) * rank_r(ell)


def standard_weights(ell, i, twist):
    r = rank_r(ell)
    shift = Fraction(twist * ell, 2)
    return [r - 2 - i + r + shift, i + shift]


def costandard_weights(ell, i, twist):
    return list(reversed(standard_weights(ell, i, twist)))


def cover_blocks(ell, i, m, twist):
    """weight -> block dimension of the cover P_i^m (x) C_{twist*ell/2}."""
    r = rank_r(ell)
    blocks = {}
    for top in standard_weights(ell, i, twist):
        for t in range(r):
            w = top - 2 * t
            blocks[w] = blocks.get(w, 0) + m + 1
    return blocks


def verma_blocks(ell, lam, m):
    return {lam - 2 * t: m + 1 for t in range(rank_r(ell))}


def bgg_cell(ell, lam, mu):
    if mu == lam:
        return 1
    pair = atypical_pair(ell, lam)
    if pair is None:
        return 0
    i, k = pair
    return 1 if mu == standard_weights(ell, i, k)[0] else 0


def simple_dim(ell, label):
    """Dimension of a simple from its label ("L", i, k) or ("M", w)."""
    return label[1] + 1 if label[0] == "L" else rank_r(ell)

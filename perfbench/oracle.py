"""Independent numeric oracle for module dumps, at 50 digits.

A dump (as written by `uqwb.dump_module` or the `--out` of a CLI verb)
is read only through its text grammar: every entry is the text that
`Session.format_scalar` prints, a sum of terms `(c0 + c1*z + ...)*t^k`,
optionally over a second such sum.  Here z = zeta_M = exp(2*pi*i/M) with
M = 2*N*ell and t = tau = 2*pi*i/ell, so q = exp(tau).  K and its inverse
are formed as expm(+-tau*H) on each weight block of the labels, without
the library's derive_K, and the defining relations are checked
numerically.  Nothing of the library is imported.
"""

from __future__ import annotations

import re
from fractions import Fraction

import mpmath as mp

DPS = 50
TOL = mp.mpf("1e-30")

_TERM = re.compile(r"\((.*)\)\*t\^(\d+)")
_CYC_TERM = re.compile(r"(-?\d+(?:/\d+)?)?\*?(z(?:\^(\d+))?)?")


def _split_top(text, sep):
    """Parts of text split at occurrences of sep outside parentheses."""
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:pos])
            start = pos + 1
    parts.append(text[start:])
    return parts


class Field:
    """Numeric values of the scalar text grammar for one (ell, N)."""

    def __init__(self, ell, n_den):
        self.r = ell if ell % 2 else ell // 2
        self.zeta = mp.exp(2j * mp.pi / (2 * n_den * ell))
        self.tau = 2j * mp.pi / ell
        self.q = mp.exp(self.tau)
        self._memo = {}

    def value(self, text):
        val = self._memo.get(text)
        if val is None:
            parts = _split_top(text, "/")
            if len(parts) == 1:
                val = self._poly(parts[0])
            elif len(parts) == 2:
                val = self._poly(parts[0]) / self._poly(parts[1])
            else:
                raise ValueError("bad scalar text %r" % text)
            self._memo[text] = val
        return val

    def _poly(self, text):
        acc = mp.mpc(0)
        for term in _split_top(text, "+"):
            m = _TERM.fullmatch(term.strip())
            if m is None:
                raise ValueError("bad scalar term %r" % term)
            acc += self._cyc(m.group(1)) * self.tau ** int(m.group(2))
        return acc

    def _cyc(self, text):
        acc = mp.mpc(0)
        for term in text.split("+"):
            term = term.strip()
            m = _CYC_TERM.fullmatch(term)
            if not term or m is None or not (m.group(1) or m.group(2)):
                raise ValueError("bad cyclotomic term %r" % term)
            f = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            k = 0 if m.group(2) is None else int(m.group(3) or 1)
            acc += mp.mpf(f.numerator) / f.denominator * self.zeta ** k
        return acc


# ---------------------------------------------------------------------
# sparse complex matrices as {row: {col: value}}
# ---------------------------------------------------------------------

def _matmul(a, b):
    out = {}
    for i, row in a.items():
        acc = {}
        for k, x in row.items():
            for j, y in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + x * y
        if acc:
            out[i] = acc
    return out


def _lincomb(*terms):
    """sum of c * A over (c, A) pairs."""
    out = {}
    for c, a in terms:
        for i, row in a.items():
            dst = out.setdefault(i, {})
            for j, x in row.items():
                dst[j] = dst.get(j, 0) + c * x
    return out


def _max_abs(a):
    return max((abs(x) for row in a.values() for x in row.values()),
               default=mp.mpf(0))


def _power(a, e):
    out = a
    for _ in range(e - 1):
        out = _matmul(out, a)
    return out


class ModuleValues:
    """E, F, H, K, Kinv of one dump as sparse 50-digit matrices."""

    def __init__(self, dump):
        cfg = dump["session"]
        self.field = Field(int(cfg["ell"]), int(cfg["N"]))
        self.dim = dump["dim"]
        self.weights = [Fraction(lab["weight"]) for lab in dump["labels"]]
        if len(self.weights) != self.dim:
            raise ValueError("label count differs from dim")
        self.gens = {g: self.matrix(dump[g]) for g in ("E", "F", "H")}
        self.gens["K"], self.gens["Kinv"] = self._k_pair()

    def matrix(self, rows):
        n = self.dim
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError("matrix is not %d x %d" % (n, n))
        out = {}
        for i, row in enumerate(rows):
            vals = {}
            for j, text in enumerate(row):
                x = self.field.value(text)
                if x != 0:
                    vals[j] = x
            if vals:
                out[i] = vals
        return out

    def _k_pair(self):
        """expm(tau*H) and expm(-tau*H), one weight block at a time."""
        blocks = {}
        for idx, w in enumerate(self.weights):
            blocks.setdefault(w, []).append(idx)
        H = self.gens["H"]
        for i, row in H.items():
            for j in row:
                if self.weights[i] != self.weights[j]:
                    raise ValueError("H connects weight blocks")
        tau = self.field.tau
        K, Kinv = {}, {}
        for idx in blocks.values():
            hb = mp.matrix(len(idx), len(idx))
            for a, i in enumerate(idx):
                for b, j in enumerate(idx):
                    hb[a, b] = H.get(i, {}).get(j, 0)
            for sign, dst in ((1, K), (-1, Kinv)):
                eb = mp.expm(sign * tau * hb)
                for a, i in enumerate(idx):
                    row = dst.setdefault(i, {})
                    for b, j in enumerate(idx):
                        if eb[a, b] != 0:
                            row[j] = eb[a, b]
        return K, Kinv

    def word(self, text):
        """The matrix of a whitespace-separated word, leftmost acting last."""
        out = {i: {i: mp.mpc(1)} for i in range(self.dim)}
        for g in reversed(text.split()):
            out = _matmul(self.gens[g], out)
        return out

    def residuals(self):
        """Named max-abs residuals of the defining relations."""
        E, F, K, Kinv = (self.gens[g] for g in ("E", "F", "K", "Kinv"))
        q = self.field.q
        r = self.field.r
        ke = _matmul(_matmul(K, E), Kinv)
        kf = _matmul(_matmul(K, F), Kinv)
        comm = _lincomb((1, _matmul(E, F)), (-1, _matmul(F, E)),
                        (-1 / (q - 1 / q), K), (1 / (q - 1 / q), Kinv))
        return {
            "[E,F] = (K-Kinv)/(q-q^-1)": _max_abs(comm),
            "K E Kinv = q^2 E": _max_abs(_lincomb((1, ke), (-q ** 2, E))),
            "K F Kinv = q^-2 F": _max_abs(_lincomb((1, kf),
                                                   (-q ** -2, F))),
            "E^r = 0": _max_abs(_power(E, r)),
            "F^r = 0": _max_abs(_power(F, r)),
        }


def relation_problems(dump, what):
    """Relations a dump violates beyond TOL, as messages (empty if none)."""
    with mp.workdps(DPS):
        try:
            vals = ModuleValues(dump)
        except (ValueError, KeyError, TypeError) as exc:
            return ["%s: unreadable dump (%s)" % (what, exc)]
        return ["%s: %s off by %s" % (what, name, mp.nstr(res, 5))
                for name, res in vals.residuals().items() if res > TOL]


def word_problems(dump, word, rows, what):
    """Problems if a text matrix is not the word's matrix on the dump."""
    with mp.workdps(DPS):
        try:
            vals = ModuleValues(dump)
            got = vals.matrix(rows)
        except (ValueError, KeyError, TypeError) as exc:
            return ["%s: unreadable input (%s)" % (what, exc)]
        res = _max_abs(_lincomb((1, got), (-1, vals.word(word))))
        if res > TOL:
            return ["%s: word %r off by %s" % (what, word, mp.nstr(res, 5))]
        return []

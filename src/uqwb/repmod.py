"""Concrete modules as labeled exact matrix representations.

A ModuleRep stores the three generator matrices E, F, H over Scalar
together with one WeightLabel per basis vector.  K and its inverse are
never serialized; they are derived from H blockwise, and cached beside a
copy of the labels and H they came from, so a changed H is not read
through a stale K.  All structural claims recorded in the labels are
re-checked from the matrices (weight blocks, nilpotency) before K is
built.

derive_K is the only K = q^H series.  The generalized Verma constructor
needs K on its highest-weight chain too: it wraps the chain's block of H
in a ModuleRep and takes K from derive_K, so the coefficient modes, and
the paper-literal refusal on blocks of nilpotency index above two, live
in one place.  Built Vermas, and the PBW normal forms of E*F^t they are
read from, are kept on the session (see `Session`), so a V(lam, m) asked
for again is not rebuilt.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .algebra import AlgebraElement, pbw_normal_form
from .errors import (
    ModeUnsupportedError,
    ModuleInvalidError,
    RejectedInputError,
)
from .linalg import SMat
from .session import MODE_PAPER_LITERAL, Session

WeightLabel = namedtuple("WeightLabel", ["weight", "degree", "tag"])

# what a cached (K, Kinv) was derived from, and the rows derive_K gave
KRecord = namedtuple("KRecord", ["labels", "H", "K", "Kinv"])


class ModuleRep:
    """Finite-dimensional module given by exact generator matrices."""

    __slots__ = ("session", "dim", "labels", "matE", "matF", "matH",
                 "max_degree", "name", "_K", "_Kinv", "_Ksrc", "_cols",
                 "_graded")

    def __init__(self, session, labels, matE, matF, matH, max_degree,
                 name=""):
        self.session = session
        self.dim = len(labels)
        self.labels = list(labels)
        self.matE = matE
        self.matF = matF
        self.matH = matH
        self.max_degree = max_degree
        self.name = name
        self._K = None
        self._Kinv = None
        self._Ksrc = None
        self._cols = {}
        self._graded = None

    @property
    def K(self):
        if self._K is None:
            self._derive_K()
        return self._K

    @property
    def Kinv(self):
        if self._Kinv is None:
            self._derive_K()
        return self._Kinv

    def _derive_K(self):
        """Cache derive_K's pair, with a record of what it was derived
        from: copies of the labels and of the rows of H, K and Kinv."""
        self._K, self._Kinv = derive_K(self)
        self._Ksrc = KRecord(list(self.labels),
                             [dict(r) for r in self.matH.rows],
                             [dict(r) for r in self._K.rows],
                             [dict(r) for r in self._Kinv.rows])

    def _k_is_series(self):
        """Whether K and Kinv are derive_K's series of the current H.

        The H weight-block check is decided from the current labels and
        H: if they differ from the record of the cached pair, that pair
        is stale and is dropped, and derive_K runs again, raising
        ModuleInvalidError on a bad H.  Otherwise the record's H passed
        that check when the pair was derived, and derive_K does not run.
        A K or Kinv set on the module with no record is not known to be
        the series, so False.
        """
        rec = self._Ksrc
        if rec is not None and (rec.labels != self.labels
                                or rec.H != self.matH.rows):
            self._K = self._Kinv = self._Ksrc = None
        if self._K is None or self._Kinv is None:
            self._derive_K()
            return True
        return (rec is not None and rec.K == self._K.rows
                and rec.Kinv == self._Kinv.rows)

    def generator_matrix(self, g):
        if g == "E":
            return self.matE
        if g == "F":
            return self.matF
        if g == "H":
            return self.matH
        if g == "K":
            return self.K
        if g == "Kinv":
            return self.Kinv
        raise RejectedInputError("unknown generator %r" % (g,))

    def columns(self, g):
        """Columns of the E, F or H matrix as {row: entry} dicts, cached.

        A sparse vector is applied by walking only the columns in its
        support.
        """
        cols = self._cols.get(g)
        if cols is None:
            cols = [{} for _ in range(self.dim)]
            for i, row in enumerate(self.generator_matrix(g).rows):
                for j, v in row.items():
                    cols[j][i] = v
            self._cols[g] = cols
        return cols

    def weight_blocks(self):
        """Map weight -> sorted list of basis indices with that weight."""
        blocks = {}
        for i, lab in enumerate(self.labels):
            blocks.setdefault(lab.weight, []).append(i)
        return blocks

    def graded_blocks(self):
        """weight_blocks(), once E, F and H are checked to respect them.

        E must map weight w to w+2, F map w to w-2 and H preserve w; the
        blockwise routines of `structure` rely on this.  The check is one
        pass over the nonzero entries and its result is cached; an
        offending entry raises ModuleInvalidError naming it.
        """
        if self._graded is None:
            weights = [lab.weight for lab in self.labels]
            for g, shift in (("E", 2), ("F", -2), ("H", 0)):
                for i, row in enumerate(self.generator_matrix(g).rows):
                    for j in row:
                        if weights[i] != weights[j] + shift:
                            raise ModuleInvalidError(
                                "%s entry (%d,%d) of %s maps weight %s to "
                                "weight %s, not %s"
                                % (g, i, j, self.name or "?", weights[j],
                                   weights[i], weights[j] + shift))
            self._graded = self.weight_blocks()
        return self._graded

    def __repr__(self):
        return "ModuleRep(%s, dim=%d)" % (self.name or "?", self.dim)


# ---------------------------------------------------------------------
# K = q^H, blockwise
# ---------------------------------------------------------------------

def _h_nilpotent_blocks(mod):
    """Validated (weight, indices, nilpotent powers of H - w) per block.

    Checks that matH never connects distinct weight blocks and that
    H - w is nilpotent on each block; both are required for K = q^H
    to make sense.
    """
    s = mod.session
    blocks = mod.weight_blocks()
    windex = {}
    for w, idx in blocks.items():
        for i in idx:
            windex[i] = w
    for j in range(mod.dim):
        for i in mod.matH.rows[j]:
            if windex[i] != windex[j]:
                raise ModuleInvalidError(
                    "matH connects weight %s to weight %s (entry %d,%d)"
                    % (windex[j], windex[i], j, i)
                )
    out = []
    for w, idx in blocks.items():
        pos = {g: p for p, g in enumerate(idx)}
        n = len(idx)
        nil = SMat(s, n, n)
        for j in idx:
            for i, v in mod.matH.rows[j].items():
                nil.rows[pos[j]][pos[i]] = v
            nil.add_to(pos[j], pos[j], -s.from_rational(w))
        powers = [SMat.identity(s, n)]
        cur = nil
        while not cur.is_zero():
            powers.append(cur)
            if len(powers) > n:
                raise ModuleInvalidError(
                    "matH - %s*I is not nilpotent on its weight block" % (w,)
                )
            cur = cur @ nil
        out.append((w, idx, powers))
    return out


def derive_K(mod):
    """(K, Kinv) with K = q^w * sum_s c_s (H - w)^s on each weight block."""
    s = mod.session
    K = SMat(s, mod.dim, mod.dim)
    Kinv = SMat(s, mod.dim, mod.dim)
    for w, idx, powers in _h_nilpotent_blocks(mod):
        if s.mode == MODE_PAPER_LITERAL and len(powers) > 2:
            raise ModeUnsupportedError(
                "paper-literal coefficients give K*Kinv != I on a block "
                "with nilpotency index %d > 2 (weight %s); use the "
                "exponential mode" % (len(powers), w)
            )
        qw = s.from_cyc(s.q_power(w))
        qwi = s.from_cyc(s.q_power(-w))
        for p, nil_p in enumerate(powers):
            c = s.degree_drop_coeff(p)
            cm = c if p % 2 == 0 else -c
            for a, row in enumerate(nil_p.rows):
                for b, v in row.items():
                    K.add_to(idx[a], idx[b], qw * c * v)
                    Kinv.add_to(idx[a], idx[b], qwi * cm * v)
    return K, Kinv


# ---------------------------------------------------------------------
# relation verification
# ---------------------------------------------------------------------

class Report:
    """An ordered list of named checks with a pass/fail status.

    Each item is {"check": name, "ok": bool, "witness": str or None};
    the witness of a passing check is dropped.  as_dict() is the plain
    {"status": "pass"|"fail", "items": [...]} form the library returns.
    """

    def __init__(self):
        self.items = []

    def add(self, name, ok, witness=None):
        self.items.append({"check": name, "ok": bool(ok),
                           "witness": None if ok else witness})

    def extend(self, prefix, report):
        """Append the items of a report dict, each name under prefix."""
        for it in report["items"]:
            self.add("%s: %s" % (prefix, it["check"]), it["ok"],
                     it["witness"])

    @property
    def status(self):
        return "pass" if all(it["ok"] for it in self.items) else "fail"

    def as_dict(self):
        return {"status": self.status, "items": self.items}


def _row(*terms):
    """A row of a sum of matrix products, as a {column: entry} dict with
    no zero entries.

    Each term (c, a, B) is the row dict a times the matrix whose row
    dicts are B (a itself when B is None), scaled by c (None for 1).
    """
    acc = {}
    for c, a, B in terms:
        for k, x in a.items():
            if c is not None:
                x = c * x
            if B is None:
                cur = acc.get(k)
                acc[k] = x if cur is None else cur + x
                continue
            for j, y in B[k].items():
                cur = acc.get(j)
                acc[j] = x * y if cur is None else cur + x * y
    return {j: v for j, v in acc.items() if not v.is_zero()}


def _row_witness(s, i, lhs, rhs):
    """None if the rows lhs and rhs are equal, else the first nonzero
    entry of row i of lhs - rhs, as "entry (i,j) = <scalar>"."""
    if lhs == rhs:
        return None
    z = s.zero
    for j in sorted(lhs.keys() | rhs.keys()):
        d = lhs.get(j, z) - rhs.get(j, z)
        if not d.is_zero():
            return "entry (%d,%d) = %s" % (i, j, s.format_scalar(d))


def verify_relations(mod):
    """Check the defining relations as exact matrix identities.

    Returns {"status": "pass"|"fail", "items": [...]} where each item is
    {"check": name, "ok": bool, "witness": str or None}.  The H weight
    blocks are checked first, from the current H.  Then each of the nine
    relations LHS = RHS is checked one row at a time: row i of each side
    is built from the sparse rows (row i of K*E is K's row i times the
    rows of E, row i of E^r is r-1 such steps), and the two rows are
    compared as dicts.  The witness of a failing relation is the first
    nonzero entry (i, j) of LHS - RHS in row-major order.

    K*Kinv = I, K*E = q^2 E*K, K*F = q^-2 F*K and H*K = K*H are decided
    without their rows when three premises hold: the H weight-block
    check, [H,E] = 2E and [H,F] = -2F (row-checked before them), and K
    and Kinv equal to derive_K's series of the current H
    (ModuleRep._k_is_series).  On the weight-w block, K = q^w U(N) and
    Kinv = q^-w U(-N) with N = H - w nilpotent and U the series of
    Session.degree_drop_coeff.  Then:

    - [H,E] = 2E gives (H - w - 2)^n E = E (H - w)^n, so E maps the
      generalized w-eigenspace of H, which the block check makes the
      span of the weight-w basis vectors, into the (w+2)-eigenspace:
      the grading needs no separate pass.  On block w it reads
      N_{w+2} E = E N_w, hence U(N_{w+2}) E = E U(N_w) and K*E = q^2 E*K.
      The same argument with [H,F] = -2F gives K*F = q^-2 F*K.
    - H*K = K*H, since K is a polynomial in H on each block.
    - K*Kinv = I is exp(tau N) exp(-tau N) = 1 in the exponential mode.
      In the paper-literal mode it is (1 + tau N)(1 - tau N) = 1, since
      derive_K refuses a block with N^2 != 0 there.

    If any premise fails, all four are row-checked like the other five,
    so every verdict and witness is that of the row check.
    """
    s = mod.session
    rep = Report()
    try:
        series = mod._k_is_series()
        rep.add("H weight-block structure", True)
    except ModuleInvalidError as e:
        rep.add("H weight-block structure", False, str(e))
        return rep.as_dict()

    K, Kinv = mod.K.rows, mod.Kinv.rows
    E, F, H = mod.matE.rows, mod.matF.rows, mod.matH.rows
    one = s.one
    two = s.from_rational(2)
    q2 = s.from_cyc(s.q_power(2))
    qm2 = s.from_cyc(s.q_power(-2))
    dqi = s.from_cyc((s.q_power(1) - s.q_power(-1)).inv())

    def power(X, i):
        row = X[i]
        for _ in range(1, s.r):  # row i of X^r from row i of X
            if not row:
                break
            row = _row((None, row, X))
        return row

    def ef_rhs(i):
        # row i of F*E + (K - Kinv)/(q - q^-1), scaling K - Kinv once
        neg_kinv = {j: -v for j, v in Kinv[i].items()}
        k_minus_kinv = _row((None, K[i], None), (None, neg_kinv, None))
        return _row((None, F[i], E), (dqi, k_minus_kinv, None))

    def witness(lhs, rhs):
        for i in range(mod.dim):
            w = _row_witness(s, i, lhs(i), rhs(i))
            if w is not None:
                return w
        return None

    he = witness(lambda i: _row((None, H[i], E)),
                 lambda i: _row((None, E[i], H), (two, E[i], None)))
    hf = witness(lambda i: _row((None, H[i], F), (two, F[i], None)),
                 lambda i: _row((None, F[i], H)))
    premised = series and he is None and hf is None

    def k_item(lhs, rhs):
        return None if premised else witness(lhs, rhs)

    items = (
        ("K*Kinv = I",
         k_item(lambda i: _row((None, K[i], Kinv)), lambda i: {i: one})),
        ("K*E = q^2 E*K",
         k_item(lambda i: _row((None, K[i], E)),
                lambda i: _row((q2, E[i], K)))),
        ("K*F = q^-2 F*K",
         k_item(lambda i: _row((None, K[i], F)),
                lambda i: _row((qm2, F[i], K)))),
        ("[E,F] = (K-Kinv)/(q-q^-1)",
         witness(lambda i: _row((None, E[i], F)), ef_rhs)),
        ("H*K = K*H",
         k_item(lambda i: _row((None, H[i], K)),
                lambda i: _row((None, K[i], H)))),
        ("[H,E] = 2E", he),
        ("[H,F] = -2F", hf),
        ("E^r = 0", witness(lambda i: power(E, i), lambda i: {})),
        ("F^r = 0", witness(lambda i: power(F, i), lambda i: {})),
    )
    for name, w in items:
        rep.add(name, w is None, w)
    return rep.as_dict()


def weight_decomposition(mod):
    """Per-weight dimensions and nilpotency degrees, verified from matH.

    Returns a list of (weight, degree, indices) sorted by descending
    weight, where degree is the actual maximal nilpotency degree of
    H - w on the block (may be below the declared max_degree).
    """
    out = []
    for w, idx, powers in _h_nilpotent_blocks(mod):
        deg = len(powers) - 1
        if deg > mod.max_degree:
            raise ModuleInvalidError(
                "weight %s has nilpotency degree %d > declared max %d"
                % (w, deg, mod.max_degree)
            )
        out.append((w, deg, idx))
    out.sort(key=lambda t: t[0], reverse=True)
    return out


# ---------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------

def build_one_dim(session, k):
    """One-dimensional module where H acts by k*ell/2 and E = F = 0."""
    w = session.check_weight(Fraction(k * session.ell, 2))
    lab = WeightLabel(w, 0, "c")
    z = SMat(session, 1, 1)
    matH = SMat(session, 1, 1)
    matH.set(0, 0, session.from_rational(w))
    return ModuleRep(session, [lab], z, z.copy(), matH, 0,
                     name="C(%s)" % (w,))


def build_simple(session, i):
    """The (i+1)-dimensional simple module with highest weight i."""
    if not (0 <= i <= session.r - 1):
        raise RejectedInputError(
            "simple index %d outside 0..%d" % (i, session.r - 1)
        )
    n = i + 1
    labels = [WeightLabel(Fraction(i - 2 * k), 0, "s%d" % k)
              for k in range(n)]
    matE = SMat(session, n, n)
    matF = SMat(session, n, n)
    matH = SMat(session, n, n)
    for k in range(n):
        matH.set(k, k, session.from_rational(i - 2 * k))
        if k < i:
            matF.rows[k + 1][k] = session.one
        if k > 0:
            c = session.quantum_integer(k) * session.quantum_integer(
                i + 1 - k)
            matE.rows[k - 1][k] = session.from_cyc(c)
    return ModuleRep(session, labels, matE, matF, matH, 0,
                     name="L(%d)" % i)


def build_generalized_verma(session, lam, m):
    """V(lam, m): universal module on a degree-m highest-weight chain.

    Basis F^t v^k with 0 <= t <= r-1, 0 <= k <= m, index t*(m+1)+k.
    The E-action is obtained by PBW-rewriting E*F^t and evaluating the
    normal-form words on the chain (E kills the chain, F^a records the
    row family), so no closed formula is transcribed by hand.

    The module is built once per session and (lam, m); later calls
    return the same object, which callers must not mutate.  The weight
    and degree are checked on every call.
    """
    lam = session.check_weight(lam)
    if m < 0:
        raise RejectedInputError("degree must be nonnegative")
    mod = session._verma_cache.get((lam, m))
    if mod is None:
        mod = session._verma_cache[lam, m] = _build_verma(session, lam, m)
    return mod


def _ef_normal_form(session, t):
    """The PBW normal form of E*F^t, once per session."""
    nf = session._ef_normal_forms.get(t)
    if nf is None:
        word = ("E",) + ("F",) * t
        nf = session._ef_normal_forms[t] = pbw_normal_form(
            AlgebraElement.from_word(session, word))
    return nf


def _build_verma(session, lam, m):
    r = session.r
    n = m + 1
    dim = r * n
    labels = [WeightLabel(lam - 2 * t, k, "F^%d v^%d" % (t, k))
              for t in range(r) for k in range(n)]
    matH = SMat(session, dim, dim)
    matF = SMat(session, dim, dim)
    matE = SMat(session, dim, dim)
    for t in range(r):
        for k in range(n):
            col = t * n + k
            matH.set(col, col, session.from_rational(lam - 2 * t))
            if k > 0:
                matH.rows[col - 1][col] = session.one
            if t < r - 1:
                matF.rows[col + n][col] = session.one
    # the chain v^0..v^m is the weight-lam block, indices 0..m; K on it
    # comes from derive_K, as for any module
    chain = range(n)
    Hc = matH.block(chain, chain)
    zero = SMat(session, n, n)
    Kc, Kci = derive_K(ModuleRep(session, labels[:n], zero, zero, Hc, m))
    for t in range(1, r):
        for w, coeff in _ef_normal_form(session, t).terms.items():
            a = 0
            while a < len(w) and w[a] == "F":
                a += 1
            rest = w[a:]
            if "E" in rest:
                continue  # the raising generator kills the chain
            op = SMat.identity(session, n)
            for g in rest:  # leftmost acts last
                base = Kc if g == "K" else (Kci if g == "Kinv" else Hc)
                op = op @ base
            for k in range(n):
                col = t * n + k
                for kk in range(n):
                    v = op.rows[kk].get(k)
                    if v is not None:
                        matE.add_to(a * n + kk, col, coeff * v)
    return ModuleRep(session, labels, matE, matF, matH, m,
                     name="V(%s,%d)" % (lam, m))


def build_dual(mod):
    """The dual module with the action twisted by the automorphism omega.

    Generators act by Edual = -(K F)^T, Fdual = -(E Kinv)^T, Hdual = H^T;
    weights are preserved and chain degrees are reflected.
    """
    s = mod.session
    m = mod.max_degree
    labels = [WeightLabel(lab.weight, m - lab.degree, "(%s)'" % lab.tag)
              for lab in mod.labels]
    matE = (-(mod.K @ mod.matF)).transpose()
    matF = (-(mod.matE @ mod.Kinv)).transpose()
    matH = mod.matH.transpose()
    return ModuleRep(s, labels, matE, matF, matH, m,
                     name="dual(%s)" % (mod.name or "?"))


def build_tensor(a, b):
    """a (x) b with the action given by the coproduct."""
    assert a.session is b.session
    s = a.session
    nb = b.dim
    labels = []
    for la in a.labels:
        for lb in b.labels:
            labels.append(WeightLabel(la.weight + lb.weight,
                                      la.degree + lb.degree,
                                      "%s|%s" % (la.tag, lb.tag)))
    ia = SMat.identity(s, a.dim)
    ib = SMat.identity(s, nb)
    matE = ia.kron(b.matE) + a.matE.kron(b.K)
    matF = a.Kinv.kron(b.matF) + a.matF.kron(ib)
    matH = a.matH.kron(ib) + ia.kron(b.matH)
    return ModuleRep(s, labels, matE, matF, matH,
                     a.max_degree + b.max_degree,
                     name="(%s)x(%s)" % (a.name or "?", b.name or "?"))


def direct_sum(a, b):
    assert a.session is b.session
    s = a.session
    na = a.dim
    dim = na + b.dim
    labels = list(a.labels) + list(b.labels)

    def block(x, y):
        out = SMat(s, dim, dim)
        for i, row in enumerate(x.rows):
            out.rows[i] = dict(row)
        for i, row in enumerate(y.rows):
            out.rows[na + i] = {na + j: v for j, v in row.items()}
        return out

    return ModuleRep(s, labels, block(a.matE, b.matE),
                     block(a.matF, b.matF), block(a.matH, b.matH),
                     max(a.max_degree, b.max_degree),
                     name="(%s)+(%s)" % (a.name or "?", b.name or "?"))


# ---------------------------------------------------------------------
# serialization (K is derived, never stored)
# ---------------------------------------------------------------------

def dump_module(mod):
    """The module as a JSON-ready dict: the session, the labels and the
    dense E, F and H matrices of scalar texts (K is derived on load).

    Each distinct entry is formatted once per dump.
    """
    s = mod.session
    texts = {}  # Scalar -> its text, for this dump only

    def text(v):
        t = texts.get(v)
        if t is None:
            t = texts[v] = s.format_scalar(v)
        return t

    zero = text(s.zero)

    def matrix(mat):
        out = []
        for row in mat.rows:
            dense = [zero] * mat.ncols
            for j, v in row.items():
                dense[j] = text(v)
            out.append(dense)
        return out

    return {
        "session": s.describe(),
        "dim": mod.dim,
        "max_degree": mod.max_degree,
        "labels": [
            {"weight": str(lab.weight), "degree": lab.degree,
             "tag": lab.tag}
            for lab in mod.labels
        ],
        "E": matrix(mod.matE),
        "F": matrix(mod.matF),
        "H": matrix(mod.matH),
    }


def _dump_key(data, key, what):
    """data[key]; a missing key is a malformed input, not a lookup bug."""
    if key not in data:
        raise RejectedInputError("%s has no %r" % (what, key))
    return data[key]


def _dump_int(value, what):
    # every integer of a dump or certificate is a count, a degree or ell
    if type(value) is not int or value < 0:
        raise RejectedInputError("%s must be a nonnegative integer, got %r"
                                 % (what, value))
    return value


# an integer, p/q or a plain decimal.  Fraction also reads an exponent,
# and "1e99999999" would build 10**99999999 before any bound is checked;
# a digit string longer than sys.get_int_max_str_digits() makes it raise
# ValueError.
_RATIONAL_TEXT = re.compile(r"\s*[+-]?(\d+(/\d+)?|\d*\.\d+)\s*")


def parse_rational(text, what):
    """The Fraction written in text; RejectedInputError if malformed."""
    if not _RATIONAL_TEXT.fullmatch(text):
        raise RejectedInputError("bad %s %r" % (what, text))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise RejectedInputError("bad %s %r" % (what, text))


def _dump_weight(session, value, what):
    # dumps write weights as strings; a JSON bool or float is not a weight
    if type(value) is int:
        return session.check_weight(Fraction(value))
    if type(value) is not str:
        raise RejectedInputError("bad %s %r" % (what, value))
    return session.check_weight(parse_rational(value, what))


def load_module(data, session=None):
    """The module of a dump_module dict; RejectedInputError if malformed.

    Without a session, one is built from the dump's session block.  With
    one, the block must still be there and its ell and N must be the
    session's, since they fix M and so the meaning of z^k in every entry;
    its mode is not compared, so a dump can be re-checked under the
    other coefficient mode.

    Every entry must be a string.  Each distinct text is parsed once per
    call (Scalars are immutable, so equal entries share one); a text that
    does not parse raises before it is stored.
    """
    if not isinstance(data, dict):
        raise RejectedInputError("a module dump must be a JSON object")
    cfg = _dump_key(data, "session", "a module dump")
    if not isinstance(cfg, dict):
        raise RejectedInputError("dump session must be a JSON object")
    ell = _dump_int(_dump_key(cfg, "ell", "a dump session"), "session ell")
    N = _dump_int(cfg.get("N", 2), "session N")
    if session is None:
        mode = cfg.get("mode", "exponential")
        if not isinstance(mode, str):
            raise RejectedInputError("session mode must be a string, got %r"
                                     % (mode,))
        session = Session(ell, N, mode)
    elif (ell, N) != (session.ell, session.N):
        raise RejectedInputError(
            "the dump is for ell %d, N %d, not the session's ell %d, N %d"
            % (ell, N, session.ell, session.N))
    dim = _dump_int(_dump_key(data, "dim", "a module dump"), "dim")
    max_degree = _dump_int(_dump_key(data, "max_degree", "a module dump"),
                           "max_degree")
    raw_labels = _dump_key(data, "labels", "a module dump")
    if not isinstance(raw_labels, list) or len(raw_labels) != dim:
        raise RejectedInputError("label count does not match dim")
    labels = []
    for lab in raw_labels:
        if not isinstance(lab, dict):
            raise RejectedInputError("a label must be a JSON object")
        labels.append(WeightLabel(
            _dump_weight(session, _dump_key(lab, "weight", "a label"),
                         "label weight"),
            _dump_int(_dump_key(lab, "degree", "a label"), "label degree"),
            lab.get("tag", "")))
    parsed = {}  # entry text -> Scalar, shared by E, F and H of this call

    def matrix(name):
        rows = _dump_key(data, name, "a module dump")
        if (not isinstance(rows, list) or len(rows) != dim
                or any(not isinstance(row, list) or len(row) != dim
                       for row in rows)):
            raise RejectedInputError("%s must be a %d x %d matrix"
                                     % (name, dim, dim))
        out = SMat(session, dim, dim)
        for i, row in enumerate(rows):
            out_row = out.rows[i]
            for j, text in enumerate(row):
                if not isinstance(text, str):
                    raise RejectedInputError("%s[%d][%d] is not a scalar "
                                             "string" % (name, i, j))
                v = parsed.get(text)
                if v is None:
                    v = parsed[text] = session.parse_scalar(text)
                if not v.is_zero():
                    out_row[j] = v
        return out

    return ModuleRep(session, labels, matrix("E"), matrix("F"), matrix("H"),
                     max_degree, name="loaded")

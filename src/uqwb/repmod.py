"""Concrete modules as labeled exact matrix representations.

A ModuleRep stores the three generator matrices E, F and H over Scalar
together with one WeightLabel per basis vector.  A built module never
changes: its constructor freezes E, F and H and keeps the labels as a
tuple, so what is derived from it (K, the chains of N = H - w, the
graded blocks, the columns, the transpose dual of `structure`) is
computed once, read-only, and cannot go stale.  N is formed in one
place, `_nilpotent_chains`, which checks that H keeps the label weight
blocks and is w plus a nilpotent on each; K, the relation check, the
label degrees of a subquotient and the socle read the module's cached
chains.  K and Kinv are derived when first read, and never serialized.

derive_K is the only K = q^H series.  The [E,F] side of verify_relations
takes the same coefficients, Session.degree_drop_coeff, and builds no K
of its own; the relation check reads K only to row-check K*E and K*F,
when the [H,E] or [H,F] premise fails, so a passing module leaves it
underived.  The generalized Verma constructor needs K on its
highest-weight chain too: it wraps the chain's block of H in a ModuleRep
and takes K from derive_K, so the coefficient modes live in one place.
The paper-literal refusal on blocks of nilpotency index above two has
one home, `_literal_refusal`, which derive_K and the relation check
call.  Built Vermas, and the PBW normal forms of E*F^t they are read
from, are kept on the session (see `Session`), so a V(lam, m) asked for
again is not rebuilt.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType

from .algebra import AlgebraElement, pbw_normal_form
from .errors import (
    ModeUnsupportedError,
    ModuleInvalidError,
    RejectedInputError,
)
from .linalg import FrozenRow, SMat, _apply, _axpy
from .session import MODE_PAPER_LITERAL, Session

WeightLabel = namedtuple("WeightLabel", ["weight", "degree", "tag"])


class ModuleRep:
    """Finite-dimensional module given by exact generator matrices.

    Read-only: no field is reassigned once set, except the lazy caches
    filling from None and the display-only name, which no cache reads
    but the cached dual's own name, fixed when that dual is built.
    """

    __slots__ = ("session", "dim", "labels", "matE", "matF", "matH",
                 "max_degree", "name", "_K", "_Kinv", "_chains", "_cols",
                 "_graded", "_relations", "_dual")

    def __init__(self, session, labels, matE, matF, matH, max_degree,
                 name=""):
        init = object.__setattr__  # every field is unset: skip the guard
        labels = tuple(labels)
        init(self, "session", session)
        init(self, "labels", labels)
        init(self, "dim", len(labels))
        init(self, "matE", matE.freeze())
        init(self, "matF", matF.freeze())
        init(self, "matH", matH.freeze())
        init(self, "max_degree", max_degree)
        init(self, "name", name)
        init(self, "_K", None)
        init(self, "_Kinv", None)
        init(self, "_chains", None)
        init(self, "_cols", {})
        init(self, "_graded", None)
        init(self, "_relations", None)
        init(self, "_dual", None)

    def __setattr__(self, field, value):
        if field != "name" and getattr(self, field) is not None:
            raise TypeError("%s of a built ModuleRep is read-only" % field)
        object.__setattr__(self, field, value)

    def __delattr__(self, field):
        raise TypeError("%s of a built ModuleRep is read-only" % field)

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
        K, Kinv = derive_K(self)
        self._K = K.freeze()
        self._Kinv = Kinv.freeze()

    def nilpotent_chains(self):
        """The rows of the powers of N = H - w, cached: chains[i] is
        (N[i], N^2[i], ...), see `_nilpotent_chains`."""
        if self._chains is None:
            self._chains = _nilpotent_chains(
                self.session, self.weight_keys(),
                [lab.weight for lab in self.labels], self.matH)
        return self._chains

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
        """The E, F or H columns, cached: rows of the frozen transpose.

        A sparse vector is applied by walking only the columns in its
        support.  The same cache keeps the weight keys under "keys".
        """
        cols = self._cols.get(g)
        if cols is None:
            cols = self.generator_matrix(g).transpose().freeze().rows
            self._cols[g] = cols
        return cols

    def weight_keys(self):
        """The key N*w of each label weight w (`Session.weight_key`), a
        tuple of ints kept in the columns' cache."""
        if "keys" not in self._cols:
            self._cols["keys"] = tuple(self.session.weight_key(lab.weight)
                                       for lab in self.labels)
        return self._cols["keys"]

    def weight_blocks(self):
        """Map weight -> sorted list of basis indices with that weight."""
        return {self.labels[idx[0]].weight: idx
                for _, idx in _block_numbers(self.weight_keys())[1]}

    def graded_blocks(self):
        """Map the key k = N*w of each weight w to the sorted tuple of
        basis indices of weight w, once E, F and H are checked to respect
        the blocks.

        E must map weight w to w+2, F map w to w-2 and H preserve w; the
        blockwise routines of `structure` rely on this.  The check is one
        pass over the nonzero entries, on block numbers: the keys are
        numbered once (`_block_numbers`), the block that g should map
        block k to is block k + shift*N, found once per block, and each
        entry compares two ints.  The result is cached, read-only; an
        offending entry raises ModuleInvalidError naming it.  A block's
        Fraction weight is the weight of any of its labels.
        """
        if self._graded is None:
            N = self.session.N
            block, blocks, number = _block_numbers(self.weight_keys())
            for g, shift in (("E", 2), ("F", -2), ("H", 0)):
                # number lists the keys in block order
                target = [number.get(k + shift * N) for k in number]
                for i, row in enumerate(self.generator_matrix(g).rows):
                    bi = block[i]
                    for j in row:
                        if bi != target[block[j]]:
                            w = self.labels[j].weight
                            raise ModuleInvalidError(
                                "%s entry (%d,%d) of %s maps weight %s to "
                                "weight %s, not %s"
                                % (g, i, j, self.name or "?", w,
                                   self.labels[i].weight, w + shift))
            self._graded = MappingProxyType(
                {k: tuple(idx) for k, idx in blocks})
        return self._graded

    def __repr__(self):
        return "ModuleRep(%s, dim=%d)" % (self.name or "?", self.dim)


# ---------------------------------------------------------------------
# K = q^H, blockwise
# ---------------------------------------------------------------------

def _block_numbers(keys):
    """(block, blocks, number): blocks lists the weight blocks as
    (key, sorted indices) in order of first occurrence, block[i] is the
    position of index i's block there, and number maps each key to that
    position.

    The keys are the ints N*w of `ModuleRep.weight_keys`, so the checks
    that compare block numbers run no Fraction arithmetic or comparison.
    The numbering lives only as long as its caller.
    """
    number, block, blocks = {}, [], []
    for i, k in enumerate(keys):
        b = number.get(k)
        if b is None:
            b = number[k] = len(blocks)
            blocks.append((k, []))
        blocks[b][1].append(i)
        block.append(b)
    return block, blocks, number


def _shifted_rows(blocks, step):
    """The sorted indices of the blocks, a mapping key -> indices, whose
    key is k + step for some key k of them."""
    return sorted(i for k, idx in blocks.items() if k - step in blocks
                  for i in idx)


def _nilpotent_chains(session, keys, weights, matH):
    """chains[i] = (N[i], N^2[i], ...), the nonzero rows of the powers of
    N = H - diag(weights), as read-only rows; keys are the weights' int
    keys, and the weights are read only to name one in an error.

    Checks that matH never connects distinct weight blocks and that N is
    nilpotent on each block (N^n = 0 on a block of size n); both are
    required for K = q^H to make sense.
    """
    H = matH.rows
    block, blocks, _ = _block_numbers(keys)
    for j, row in enumerate(H):
        bj = block[j]
        for i in row:
            if block[i] != bj:
                raise ModuleInvalidError(
                    "matH connects weight %s to weight %s (entry %d,%d)"
                    % (weights[j], weights[i], j, i))
    N, chains = [None] * len(keys), [None] * len(keys)
    for k, idx in blocks:
        shift = session.neg_weight(k)
        for i in idx:
            N[i] = FrozenRow(_axpy(H[i], shift, {i: session.one}))
        for i in idx:
            chain, row = [], N[i]
            while row:
                chain.append(row)
                if len(chain) == len(idx):
                    raise ModuleInvalidError(
                        "matH - %s*I is not nilpotent on its weight block"
                        % (weights[i],))
                row = FrozenRow(_apply(N, row))
            chains[i] = tuple(chain)
    return tuple(chains)


def _literal_refusal(s, n, w):
    """ModeUnsupportedError on a weight-w block of nilpotency index n > 2
    in the paper-literal mode, whose coefficients give K*Kinv != I there;
    derive_K and the relation check both refuse through it."""
    if s.mode == MODE_PAPER_LITERAL and n > 2:
        raise ModeUnsupportedError(
            "paper-literal coefficients give K*Kinv != I on a block "
            "with nilpotency index %d > 2 (weight %s); use the "
            "exponential mode" % (n, w))


def derive_K(mod):
    """(K, Kinv): row i of weight w is q^w sum_p c_p N^p[i] in K and
    q^-w sum_p (-1)^p c_p N^p[i] in Kinv, read off the cached chains."""
    s = mod.session
    chains = mod.nilpotent_chains()
    K, Kinv = [None] * mod.dim, [None] * mod.dim
    for w, idx in mod.weight_blocks().items():
        n = 1 + max(len(chains[i]) for i in idx)
        _literal_refusal(s, n, w)
        qw = s.from_cyc(s.q_power(w))
        qwi = s.from_cyc(s.q_power(-w))
        cs = [s.degree_drop_coeff(p) for p in range(n)]
        kc = [qw * c for c in cs]
        kic = [qwi * c if p % 2 == 0 else qwi * -c for p, c in enumerate(cs)]
        for i in idx:
            K[i], Kinv[i] = {i: kc[0]}, {i: kic[0]}
            for p, row in enumerate(chains[i], 1):
                K[i] = _axpy(K[i], kc[p], row)
                Kinv[i] = _axpy(Kinv[i], kic[p], row)
    return SMat(s, mod.dim, mod.dim, K), SMat(s, mod.dim, mod.dim, Kinv)


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


def _ef_coeffs(s, n, w, dqi):
    """[d_{w,0}, ..., d_{w,n-1}], the coefficients of N^p in
    (K - Kinv)/(q - q^-1) on a weight-w block of nilpotency index n:
    d_{w,p} = c_p (q^w - (-1)^p q^-w) / (q - q^-1), which is c_p [w]_q
    for even p, with derive_K's c_p = Session.degree_drop_coeff(p).  dqi
    is the Cyc 1/(q - q^-1)."""
    even = s.from_cyc(s.quantum_integer(w))
    odd = s.from_cyc((s.q_power(w) + s.q_power(-w)) * dqi) if n > 1 else None
    return [s.degree_drop_coeff(p) * (odd if p % 2 else even)
            for p in range(n)]


def verify_relations(mod):
    """Check the defining relations as exact matrix identities.

    Returns {"status": "pass"|"fail", "items": [...]} where each item is
    {"check": name, "ok": bool, "witness": str or None}.  The H weight
    blocks are checked first: the item passes when the chains of N
    walk (`ModuleRep.nilpotent_chains`), which raises on an H that
    connects two weight blocks or is not w plus a nilpotent on one.  In
    the paper-literal mode a block of nilpotency index above two raises
    derive_K's ModeUnsupportedError (`_literal_refusal`).  A relation
    LHS = RHS is then either decided from checked premises, or checked
    one row at a time: row i of each side is built from the sparse rows
    (row i of K*E is K's row i times the rows of E, row i of E^r is r-1
    such steps), and the two rows are compared as dicts.  The witness of
    a failing relation is the first nonzero entry (i, j) of LHS - RHS in
    row-major order; a premise decides only a passing verdict, so every
    witness is the row check's.

    Let w_i be the label weight of basis vector i and N = H - diag(w_i).
    The block check makes N nilpotent on each weight block, and K and
    Kinv are derive_K's series of H, which holds by construction since a
    module never changes: on the weight-w block K = q^w U(N) and
    Kinv = q^-w U(-N), with U the series of Session.degree_drop_coeff.

    - [H,E] = 2E.  Entrywise, (HE - EH - 2E)[i,j] is
      (w_i - w_j - 2) E[i,j] + (NE - EN)[i,j].  So the relation holds
      when E is graded (E[i,j] != 0 only if w_i = w_j + 2, checked by
      graded_blocks) and NE = EN, which is row-checked only when N != 0;
      on a module with N = 0, such as every degree-0 module, no row is
      built.  [H,F] = -2F is the same with -2.  If a premise fails, the
      relation is row-checked.
    - E^r = 0 and F^r = 0.  [H,E] = 2E, by either route, makes E map the
      generalized w-eigenspace of H, which the block check makes the
      span of the weight-w basis vectors, into the (w+2)-eigenspace.  So
      row i of E^r is zero unless w_i is in {w + 2r : w a weight}, and
      only those rows are built; on a generalized Verma module there are
      none.  F^r is the same with -2r and [H,F].  If [H,E] (or [H,F])
      fails, every row of E^r (or F^r) is built.
    - [E,F].  The right side (K - Kinv)/(q - q^-1) is, on block w,
      sum_p d_{w,p} N^p with d_{w,p} = c_p (q^w - (-1)^p q^-w)/(q - q^-1),
      which is [w]_q I when N = 0 there.  Row i of it is built from the
      rows N^p[i], with c_p = Session.degree_drop_coeff(p), the
      coefficients derive_K builds K and Kinv from, and d_{w,p} taken
      once per block (`_ef_coeffs`); plus row i of F*E, it is compared
      with row i of E*F.
    - K*Kinv = I, K*E = q^2 E*K, K*F = q^-2 F*K and H*K = K*H follow from
      the block check, [H,E] = 2E and [H,F] = -2F, and K, Kinv being
      derive_K's series.  [H,E] = 2E makes E graded (see E^r above), and
      then the identity of the first item gives N_{w+2} E = E N_w on
      block w; hence U(N_{w+2}) E = E U(N_w) and K*E = q^2 E*K.  The
      same argument with [H,F] = -2F gives K*F = q^-2 F*K.  H*K = K*H,
      since K is a polynomial in H on each block.  K*Kinv = I is
      exp(tau N) exp(-tau N) = 1 in the exponential mode; in the
      paper-literal mode it is (1 + tau N)(1 - tau N) = 1, since derive_K
      and this check refuse a block with N^2 != 0 there.  So K*Kinv = I
      and H*K = K*H pass with no row built, and if [H,E] or [H,F] fails,
      K*E and K*F are row-checked; only then is K derived.

    A built module never changes, so its witnesses are computed at the
    first call and kept on the module, and every call builds a new
    report from them.
    """
    if mod._relations is None:
        mod._relations = _relation_witnesses(mod)
    rep = Report()
    for name, w in zip(_RELATIONS, mod._relations):
        rep.add(name, w is None, w)
    return rep.as_dict()


# verify_relations' checks in report order: the H weight blocks, then
# each relation
_RELATIONS = ("H weight-block structure", "K*Kinv = I", "K*E = q^2 E*K",
              "K*F = q^-2 F*K", "[E,F] = (K-Kinv)/(q-q^-1)", "H*K = K*H",
              "[H,E] = 2E", "[H,F] = -2F", "E^r = 0", "F^r = 0")


def _relation_witnesses(mod):
    """The witness of each check of _RELATIONS on mod, None where it
    passes, as a tuple; only the first if the H weight blocks fail."""
    s = mod.session
    try:
        chains = mod.nilpotent_chains()  # chains[i]: N[i], N^2[i], ...
    except ModuleInvalidError as e:
        return (str(e),)

    E, F, H = mod.matE.rows, mod.matF.rows, mod.matH.rows
    one = s.one
    two = s.from_rational(2)
    dqi = (s.q_power(1) - s.q_power(-1)).inv()
    try:
        blocks = mod.graded_blocks()
        graded = True
    except ModuleInvalidError:
        blocks = dict(_block_numbers(mod.weight_keys())[1])
        graded = False
    N = [chain[0] if chain else {} for chain in chains]
    flat = not any(chains)
    coeffs = [None] * mod.dim  # coeffs[i]: d_{w,0}, d_{w,1}, ... at w_i
    for idx in blocks.values():
        w = mod.labels[idx[0]].weight
        n = 1 + max(len(chains[i]) for i in idx)
        _literal_refusal(s, n, w)
        d = _ef_coeffs(s, n, w, dqi)
        for i in idx:
            coeffs[i] = d

    def power(X, i):
        row = X[i]
        for _ in range(1, s.r):  # row i of X^r from row i of X
            if not row:
                break
            row = _apply(X, row)
        return row

    def ef_rhs(i):
        # row i of F*E + sum_p d_{w,p} N^p, w the weight of i
        d = coeffs[i]
        row = _axpy(_apply(E, F[i]), d[0], {i: one})
        for p, nil in enumerate(chains[i], 1):
            row = _axpy(row, d[p], nil)
        return row

    def witness(lhs, rhs, rows=None):
        for i in range(mod.dim) if rows is None else rows:
            w = _row_witness(s, i, lhs(i), rhs(i))
            if w is not None:
                return w
        return None

    def commutes(X):
        # N*X = X*N, row by row, unless N = 0
        return flat or all(_apply(X, N[i]) == _apply(N, X[i])
                           for i in range(mod.dim))

    def power_witness(X, decided, step):
        # rows of X^r that the grading leaves possibly nonzero, once the
        # [H,X] premise holds; otherwise every row
        rows = None if decided is not None else _shifted_rows(blocks, step)
        return witness(lambda i: power(X, i), lambda i: {}, rows)

    he = None if graded and commutes(E) else witness(
        lambda i: _apply(E, H[i]),
        lambda i: _axpy(_apply(H, E[i]), two, E[i]))
    hf = None if graded and commutes(F) else witness(
        lambda i: _axpy(_apply(F, H[i]), two, F[i]),
        lambda i: _apply(H, F[i]))
    premised = he is None and hf is None

    def k_item(X, q):
        # K*X = q X*K, row by row, unless the premises decide it; K is
        # derived only here
        if premised:
            return None
        K = mod.K.rows
        return witness(lambda i: _apply(X, K[i]),
                       lambda i: _axpy({}, q, _apply(K, X[i])))

    return (
        None,  # the H weight blocks
        None,  # K*Kinv = I
        k_item(E, s.from_cyc(s.q_power(2))),  # K*E = q^2 E*K
        k_item(F, s.from_cyc(s.q_power(-2))),  # K*F = q^-2 F*K
        witness(lambda i: _apply(F, E[i]), ef_rhs),  # [E,F]
        None,  # H*K = K*H
        he,  # [H,E] = 2E
        hf,  # [H,F] = -2F
        power_witness(E, he, 2 * s.r * s.N),  # E^r = 0
        power_witness(F, hf, -2 * s.r * s.N),  # F^r = 0
    )


def weight_decomposition(mod):
    """Per-weight dimensions and nilpotency degrees, verified from matH.

    Returns a list of (weight, degree, indices) sorted by descending
    weight, where degree is the actual maximal nilpotency degree of
    H - w on the block (may be below the declared max_degree).
    """
    out = []
    chains = mod.nilpotent_chains()
    for w, idx in mod.weight_blocks().items():
        deg = max(len(chains[i]) for i in idx)
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
    return ModuleRep(session, [lab], z, z, matH, 0, name="C(%s)" % (w,))


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
    return the same object, which is read-only like every ModuleRep.
    The weight and degree are checked on every call.
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
    if a.session is not b.session:
        raise RejectedInputError("a tensor of modules of two sessions")
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


def _block_sum(x, y):
    """The block-diagonal SMat of x and y.  x's rows are frozen, so they
    are taken as they are; y's rows are new, writable dicts."""
    nx = x.ncols
    dim = nx + y.ncols
    return SMat(x.session, dim, dim, list(x.rows) + [
        {nx + j: v for j, v in row.items()} for row in y.rows])


def direct_sum(a, b):
    if a.session is not b.session:
        raise RejectedInputError("a direct sum of modules of two sessions")
    return ModuleRep(a.session, a.labels + b.labels,
                     _block_sum(a.matE, b.matE), _block_sum(a.matF, b.matF),
                     _block_sum(a.matH, b.matH),
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
        degree = _dump_int(_dump_key(lab, "degree", "a label"), "label degree")
        if degree > max_degree:  # build_dual writes max_degree - degree
            raise RejectedInputError("label degree %d exceeds max_degree %d"
                                     % (degree, max_degree))
        labels.append(WeightLabel(
            _dump_weight(session, _dump_key(lab, "weight", "a label"),
                         "label weight"),
            degree, lab.get("tag", "")))
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

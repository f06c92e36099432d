"""Structural analysis of modules: submodules, quotients, filtrations.

All computations are exact.  Vectors are dense lists of Scalar in the
coordinates of their parent module; every basis vector of every module
built here carries a single weight, so weight components of any vector
are obtained by coordinate masking, and submodules are stored as
weight-homogeneous echelon bases.
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from fractions import Fraction

from .errors import (
    ConstructionError,
    DiagnosticError,
    RejectedInputError,
)
from .linalg import (
    SMat,
    coords_in_basis,
    invert_dense,
    nullspace,
    reduce_row,
    solve,
)
from .repmod import (
    ModuleRep,
    WeightLabel,
    _dump_int,
    _dump_weight,
    build_dual,
    build_generalized_verma,
    dump_module,
    load_module,
)

TypicalityVerdict = namedtuple("TypicalityVerdict",
                               ["weight", "typical", "witness"])


# ---------------------------------------------------------------------
# typicality and the classification of simples
# ---------------------------------------------------------------------

def typicality(session, lam):
    """Whether lam is typical: lam + 1 in the parity-dependent set."""
    lam = session.check_weight(lam)
    a = lam + 1
    r = session.r
    if session.ell % 2 == 0:
        if a.denominator != 1:
            return TypicalityVerdict(lam, True, "%s not an integer" % a)
        if a % r == 0:
            return TypicalityVerdict(lam, True, "%s in %dZ" % (a, r))
        return TypicalityVerdict(lam, False,
                                 "%s in Z but not in %dZ" % (a, r))
    if (2 * a).denominator != 1:
        return TypicalityVerdict(lam, True, "%s not a half-integer" % a)
    if (2 * a) % r == 0:
        return TypicalityVerdict(lam, True, "%s in (%d/2)Z" % (a, r))
    return TypicalityVerdict(lam, False,
                             "%s in (1/2)Z but not in (%d/2)Z" % (a, r))


def atypical_decompose(session, w):
    """Write an atypical weight as i + k*ell/2 with 0 <= i <= r-2."""
    r = session.r
    half = Fraction(session.ell, 2)
    if w.denominator == 1:
        k0 = 0
    else:
        k0 = 1  # odd ell, half-integer weight
        if (w - half).denominator != 1:
            raise DiagnosticError("weight %s is not i + k*ell/2" % (w,))
    base = int(w - k0 * half)
    i = base % r
    if i > r - 2:
        raise DiagnosticError(
            "weight %s decomposes with simple index %d (typical?)" % (w, i)
        )
    k = (w - i) / half
    if k.denominator != 1:
        raise DiagnosticError("weight %s is not i + k*ell/2" % (w,))
    return i, int(k)


def simple_label(session, w):
    """("M", w) for typical w, else ("L", i, k) with w = i + k*ell/2."""
    if typicality(session, w).typical:
        return ("M", w)
    i, k = atypical_decompose(session, w)
    return ("L", i, k)


def simple_dim(session, w):
    lab = simple_label(session, w)
    return session.r if lab[0] == "M" else lab[1] + 1


def format_simple_label(lab):
    if lab[0] == "M":
        return "M(%s)" % (lab[1],)
    return "L(%d)xC(%d)" % (lab[1], lab[2]) if lab[2] else "L(%d)" % lab[1]


# ---------------------------------------------------------------------
# vectors and submodule bases
# ---------------------------------------------------------------------

def weight_split(mod, vec):
    """Weight components of vec, via the coordinate weight labels."""
    comps = {}
    z = mod.session.zero
    for i, x in enumerate(vec):
        if not x.is_zero():
            w = mod.labels[i].weight
            if w not in comps:
                comps[w] = [z] * mod.dim
            comps[w][i] = x
    return comps


def vec_degree(mod, vec, w):
    """Minimal s with (H - w)^{s+1} v = 0 for a weight-w vector."""
    s = mod.session
    shift = s.from_rational(w)
    cur = vec
    deg = -1
    while any(not x.is_zero() for x in cur):
        deg += 1
        if deg > mod.dim:
            raise DiagnosticError("H - %s not nilpotent on vector" % (w,))
        nxt = mod.matH.apply(cur)
        cur = [a - shift * b for a, b in zip(nxt, cur)]
    return deg


class SubmoduleBasis:
    """Echelonized weight-homogeneous basis of a subspace of a module."""

    def __init__(self, parent):
        self.parent = parent
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, vec):
        return all(x.is_zero()
                   for x in reduce_row(vec, self.rows, self.pivots))

    def insert(self, vec):
        """Add vec to the span; returns the reduced new row or None."""
        v = reduce_row(vec, self.rows, self.pivots)
        p = None
        for j, x in enumerate(v):
            if not x.is_zero():
                p = j
                break
        if p is None:
            return None
        inv = v[p].inv()
        zero = self.parent.session.zero
        v = [zero if x.is_zero() else inv * x for x in v]
        for b in self.rows:
            c = b[p]
            if not c.is_zero():
                for j in range(p, len(v)):
                    if not v[j].is_zero():
                        b[j] = b[j] - c * v[j]
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < p:
            idx += 1
        self.rows.insert(idx, v)
        self.pivots.insert(idx, p)
        return v

    def copy(self):
        out = SubmoduleBasis(self.parent)
        out.rows = [list(r) for r in self.rows]
        out.pivots = list(self.pivots)
        return out

    def is_closed(self):
        for g in ("E", "F", "H"):
            mat = self.parent.generator_matrix(g)
            for row in self.rows:
                if not self.contains(mat.apply(row)):
                    return False
        return True


def submodule_generated(mod, seeds):
    """Least submodule containing the seeds (saturation under E, F, H)."""
    sub = SubmoduleBasis(mod)
    work = []
    for v in seeds:
        for comp in weight_split(mod, v).values():
            nv = sub.insert(comp)
            if nv is not None:
                work.append(nv)
    gens = [mod.matE, mod.matF, mod.matH]
    while work:
        v = work.pop()
        for mat in gens:
            img = mat.apply(v)
            for comp in weight_split(mod, img).values():
                nv = sub.insert(comp)
                if nv is not None:
                    work.append(nv)
    return sub


# ---------------------------------------------------------------------
# sub- and quotient modules as ModuleReps
# ---------------------------------------------------------------------

def _degrees_from_labels(session, weights, matH):
    """Nilpotency degree of each coordinate, computed per weight block."""
    blocks = {}
    for i, w in enumerate(weights):
        blocks.setdefault(w, []).append(i)
    degs = [0] * len(weights)
    for w, idx in blocks.items():
        pos = {g: p for p, g in enumerate(idx)}
        n = len(idx)
        nil = SMat(session, n, n)
        for j in idx:
            for i, v in matH.rows[j].items():
                if i in pos:
                    nil.rows[pos[j]][pos[i]] = v
            nil.add_to(pos[j], pos[j], -session.from_rational(w))
        cur = nil
        p = 1
        while not cur.is_zero():
            if p > n:
                raise DiagnosticError(
                    "H - %s*I not nilpotent on weight block" % (w,))
            cols = set()
            for row in cur.rows:
                cols.update(row)
            for c in cols:
                degs[idx[c]] = max(degs[idx[c]], p)
            cur = cur @ nil
            p += 1
    return degs


def _make_module(session, weights, tags, matE, matF, matH, name):
    degs = _degrees_from_labels(session, weights, matH)
    labels = [WeightLabel(w, d, t) for w, d, t in zip(weights, degs, tags)]
    return ModuleRep(session, labels, matE, matF, matH,
                     max(degs) if degs else 0, name=name)


class QuotientMap:
    """Projection of a module onto a quotient by a submodule basis."""

    def __init__(self, parent, sub, coords):
        self.parent = parent
        self.sub = sub
        self.coords = coords

    def push(self, vec):
        v = reduce_row(vec, self.sub.rows, self.sub.pivots)
        return [v[j] for j in self.coords]

    def lift(self, qvec):
        z = self.parent.session.zero
        out = [z] * self.parent.dim
        for x, j in zip(qvec, self.coords):
            out[j] = x
        return out


def quotient_with_map(mod, sub):
    if not sub.is_closed():
        raise RejectedInputError("quotient by a non-closed subspace")
    s = mod.session
    pivset = set(sub.pivots)
    coords = [j for j in range(mod.dim) if j not in pivset]
    qmap = QuotientMap(mod, sub, coords)
    n = len(coords)

    def induced(mat):
        out = SMat(s, n, n)
        for col, j in enumerate(coords):
            z = s.zero
            colvec = [z] * mod.dim
            for i in range(mod.dim):
                v = mat.rows[i].get(j)
                if v is not None:
                    colvec[i] = v
            for row, x in enumerate(qmap.push(colvec)):
                if not x.is_zero():
                    out.rows[row][col] = x
        return out

    weights = [mod.labels[j].weight for j in coords]
    tags = [mod.labels[j].tag for j in coords]
    q = _make_module(s, weights, tags, induced(mod.matE),
                     induced(mod.matF), induced(mod.matH),
                     "%s/sub" % (mod.name or "?"))
    return q, qmap


def quotient_module(mod, sub):
    return quotient_with_map(mod, sub)[0]


def submodule_to_module(sub):
    """The submodule spanned by an echelon basis, as its own ModuleRep."""
    mod = sub.parent
    s = mod.session
    n = sub.dim

    def induced(mat):
        out = SMat(s, n, n)
        for col, row in enumerate(sub.rows):
            img = mat.apply(row)
            coords = coords_in_basis(img, sub.rows, sub.pivots, s.zero)
            if coords is None:
                raise RejectedInputError(
                    "basis is not closed under the module action")
            for i, x in enumerate(coords):
                if not x.is_zero():
                    out.rows[i][col] = x
        return out

    weights = [mod.labels[p].weight for p in sub.pivots]
    tags = [mod.labels[p].tag for p in sub.pivots]
    return _make_module(s, weights, tags, induced(mod.matE),
                        induced(mod.matF), induced(mod.matH),
                        "sub(%s)" % (mod.name or "?"))


# ---------------------------------------------------------------------
# highest-weight and dominant vectors
# ---------------------------------------------------------------------

def _kernel_vectors(mod, op):
    """Kernel of an operator, split by weight and echelonized per weight.

    Returns a list of (vector, weight, degree).
    """
    s = mod.session
    ker = nullspace(op.to_dense(), mod.dim, s.zero, s.one)
    perw = {}
    for v in ker:
        for w, comp in weight_split(mod, v).items():
            perw.setdefault(w, SubmoduleBasis(mod)).insert(comp)
    out = []
    for w in sorted(perw, reverse=True):
        for row in perw[w].rows:
            out.append((row, w, vec_degree(mod, row, w)))
    return out


def highest_weight_vectors(mod):
    """Basis of ker(E) as (vector, weight, degree) triples."""
    return _kernel_vectors(mod, mod.matE)


def leading_dominant_vectors(mod):
    """Weight-w degree-d vectors with (H-w)^d (FE)^2 v = 0, as triples.

    For d = 0 this is the dominant condition (FE)^2 v = 0; for d >= 1
    it asks (FE)^2 v to drop to strictly lower degree, which is the
    most a degree-d generator can satisfy: the commutator of E and F
    against the nilpotent part of K never vanishes on higher degrees.
    """
    s = mod.session
    fe = mod.matF @ mod.matE
    fe2 = fe @ fe
    out = []
    for w, idx in sorted(mod.weight_blocks().items(), reverse=True):
        shift = s.from_rational(w)
        hw = mod.matH.copy()
        for a in range(mod.dim):
            hw.set(a, a, hw.get(a, a) - shift)
        hpow = SMat.identity(s, mod.dim)
        for d in range(mod.max_degree + 1):
            cond = hpow @ fe2
            rows = []
            for a in range(mod.dim):
                rows.append([cond.rows[a].get(b, s.zero) for b in idx])
            hnext = hpow @ hw
            for a in range(mod.dim):
                rows.append([hnext.rows[a].get(b, s.zero) for b in idx])
            for v in nullspace(rows, len(idx), s.zero, s.one):
                vec = [s.zero] * mod.dim
                for x, b in zip(v, idx):
                    vec[b] = x
                if vec_degree(mod, vec, w) == d:
                    out.append((vec, w, d))
            hpow = hnext
    return out


# ---------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------

def _weight_profile(mod):
    prof = {}
    for lab in mod.labels:
        prof[lab.weight] = prof.get(lab.weight, 0) + 1
    return prof


def _generator_tree(mod, v):
    """Spanning set {word(v)} with parent/generator bookkeeping.

    Returns (nodes, steps) where steps[i] = (parent index, generator
    name) and steps[0] is None; nodes form a basis iff v generates.
    """
    nodes = [v]
    steps = [None]
    indep = SubmoduleBasis(mod)
    for comp in weight_split(mod, v).values():
        indep.insert(comp)
    if indep.dim != 1:
        raise RejectedInputError("tree seed must be weight-homogeneous")
    i = 0
    while i < len(nodes):
        for g in ("E", "F", "H"):
            img = mod.generator_matrix(g).apply(nodes[i])
            before = indep.dim
            for comp in weight_split(mod, img).values():
                indep.insert(comp)
            if indep.dim > before:
                # img itself may be inhomogeneous only through the H
                # action; all generators here shift weight uniformly, so
                # img is homogeneous and is kept as a node directly.
                nodes.append(img)
                steps.append((i, g))
                if indep.dim < before + 1:
                    raise DiagnosticError("tree bookkeeping out of step")
        i += 1
    return nodes, steps


def _dense_inverse_of_columns(session, cols, dim):
    rows = [[cols[a][i] for a in range(len(cols))] for i in range(dim)]
    return invert_dense(rows, session.zero, session.one)


def _mat_from_dense(session, rows):
    out = SMat(session, len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if not v.is_zero():
                out.rows[i][j] = v
    return out


def _intertwiner_ok(g, a, b):
    for name in ("E", "F", "H"):
        if not (g @ a.generator_matrix(name)
                - b.generator_matrix(name) @ g).is_zero():
            return False
    return True


def _cyclic_generator(mod):
    """A weight-homogeneous single generator of mod, or None."""
    for v, w, d in leading_dominant_vectors(mod):
        if submodule_generated(mod, [v]).dim == mod.dim:
            return v, w, d
    return None


def iso_test(a, b, seed=0, attempts=3):
    """An exact invertible intertwiner a -> b, or None.

    Finds a cyclic generator of a, then searches images among the
    matching dominant vectors of b (basis elements plus a few seeded
    random combinations); every candidate map is certified exactly.
    A None answer is "no isomorphism found", not a proof of absence.
    """
    if a.dim != b.dim:
        return None
    if _weight_profile(a) != _weight_profile(b):
        return None
    if a.matE == b.matE and a.matF == b.matF and a.matH == b.matH:
        return SMat.identity(a.session, a.dim)
    s = a.session
    gen = _cyclic_generator(a)
    if gen is None:
        return None
    v, w, d = gen
    nodes, steps = _generator_tree(a, v)
    if len(nodes) != a.dim:
        raise DiagnosticError("generator tree does not span")
    tinv = _dense_inverse_of_columns(s, nodes, a.dim)
    if tinv is None:
        raise DiagnosticError("generator tree is not a basis")
    dom_b = leading_dominant_vectors(b)
    cands = [u for u, wu, du in dom_b if wu == w and du == d]
    lower = [u for u, wu, du in dom_b if wu == w and du < d]
    rng = random.Random(seed)
    extra = []
    for _ in range(attempts if (len(cands) > 1 or lower) else 0):
        mix = [s.zero] * b.dim
        for u in cands + lower:
            cs = s.from_rational(rng.randint(0, 7))
            mix = [x + cs * y for x, y in zip(mix, u)]
        extra.append(mix)
    for u in cands + extra:
        images = [u]
        ok = True
        for st in steps[1:]:
            parent, g = st
            images.append(b.generator_matrix(g).apply(images[parent]))
        # G maps node_alpha to images[alpha]; in standard coordinates
        # G = W * T^{-1} with W the image columns.
        gmat = [[None] * a.dim for _ in range(b.dim)]
        for i in range(b.dim):
            for j in range(a.dim):
                acc = s.zero
                for al in range(a.dim):
                    x = images[al][i]
                    if not x.is_zero():
                        y = tinv[al][j]
                        if not y.is_zero():
                            acc = acc + x * y
                gmat[i][j] = acc
        g = _mat_from_dense(s, gmat)
        if not _intertwiner_ok(g, a, b):
            continue
        if invert_dense(gmat, s.zero, s.one) is None:
            continue
        return g
    return None


# ---------------------------------------------------------------------
# generalized Verma recognition
# ---------------------------------------------------------------------

def _chain_from_hw(mod, u, w, deg):
    """v^deg .. v^0 with v^{k-1} = (H - w) v^k, as a list indexed by k."""
    s = mod.session
    shift = s.from_rational(w)
    chain = [None] * (deg + 1)
    chain[deg] = u
    for k in range(deg, 0, -1):
        nxt = mod.matH.apply(chain[k])
        chain[k - 1] = [x - shift * y for x, y in zip(nxt, chain[k])]
    return chain


def _verma_map_from_chain(mod, chain, w, deg):
    """Canonical map V(w,deg) -> mod sending F^t v^k to F^t chain[k]."""
    s = mod.session
    r = s.r
    n = deg + 1
    cols = []
    cur = [list(c) for c in chain]
    for t in range(r):
        for k in range(n):
            cols.append(cur[k])
        if t < r - 1:
            cur = [mod.matF.apply(c) for c in cur]
    gmat = [[cols[j][i] for j in range(r * n)] for i in range(mod.dim)]
    return _mat_from_dense(s, gmat), gmat


def is_generalized_verma(mod, lam, deg):
    """Whether mod is isomorphic to V(lam, deg).

    Certifies by exhibiting the canonical intertwiner from V(lam, deg)
    built on a highest-weight chain; the generation route (saturation
    from the chain top) is cross-checked against invertibility.
    """
    s = mod.session
    lam = s.check_weight(lam)
    if mod.dim != (deg + 1) * s.r:
        return False
    verma = build_generalized_verma(s, lam, deg)
    cands = [u for u, w, d in highest_weight_vectors(mod)
             if w == lam and d == deg]
    if len(cands) > 1:
        total = [sum(xs, s.zero) for xs in zip(*cands)]
        cands = cands + [total]
    for u in cands:
        chain = _chain_from_hw(mod, u, lam, deg)
        g, gmat = _verma_map_from_chain(mod, chain, lam, deg)
        if not _intertwiner_ok(g, verma, mod):
            raise DiagnosticError(
                "canonical chain map failed equivariance at weight %s"
                % (lam,))
        invertible = invert_dense(gmat, s.zero, s.one) is not None
        generated = submodule_generated(mod, [u]).dim == mod.dim
        if invertible != generated:
            raise DiagnosticError(
                "generation and intertwiner routes disagree at %s" % (lam,))
        if invertible:
            return True
    return False


# ---------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------

class FiltrationCertificate:
    """Ascending chain 0 < S_1 < ... < S_len = module with claims.

    claims[j] names the quotient S_{j+1}/S_j: ("verma", weight, degree)
    or ("dual-verma", weight, degree).
    """

    def __init__(self, parent, kind, degree, chain, claims):
        self.parent = parent
        self.kind = kind
        self.degree = degree
        self.chain = chain
        self.claims = claims

    def quotient_weights(self):
        return [c[1] for c in self.claims]

    def to_json(self):
        s = self.parent.session
        return {
            "kind": self.kind,
            "degree": self.degree,
            "module": dump_module(self.parent),
            "chain": [
                [[s.format_scalar(x) for x in row] for row in sub.rows]
                for sub in self.chain
            ],
            "claims": [
                {"kind": c[0], "weight": str(c[1]), "degree": c[2]}
                for c in self.claims
            ],
        }

    @staticmethod
    def from_json(data, session=None):
        """The certificate of a to_json dict; RejectedInputError if
        malformed."""
        if not isinstance(data, dict):
            raise RejectedInputError("a certificate must be a JSON object")
        kind = data["kind"]
        if kind not in ("standard", "costandard"):
            raise RejectedInputError("certificate kind must be standard or "
                                     "costandard, got %r" % (kind,))
        degree = _dump_int(data["degree"], "certificate degree")
        mod = load_module(data["module"], session)
        s = mod.session
        if not isinstance(data["claims"], list):
            raise RejectedInputError("certificate claims must be a list")
        claims = []
        for c in data["claims"]:
            if not isinstance(c, dict):
                raise RejectedInputError("a claim must be a JSON object")
            if c["kind"] not in ("verma", "dual-verma"):
                raise RejectedInputError("claim kind must be verma or "
                                         "dual-verma, got %r" % (c["kind"],))
            claims.append((c["kind"],
                           _dump_weight(s, c["weight"], "claim weight"),
                           _dump_int(c["degree"], "claim degree")))
        members = data["chain"]
        if (not isinstance(members, list)
                or any(not isinstance(rows, list) for rows in members)):
            raise RejectedInputError("certificate chain must be a list of "
                                     "lists of rows")
        chain = []
        for rows in members:
            sub = SubmoduleBasis(mod)
            for row in rows:
                if (not isinstance(row, list) or len(row) != mod.dim
                        or any(not isinstance(x, str) for x in row)):
                    raise RejectedInputError("a chain row must be a list of "
                                             "%d scalar strings" % mod.dim)
                vec = [s.parse_scalar(x) for x in row]
                for comp in weight_split(mod, vec).values():
                    sub.insert(comp)
            chain.append(sub)
        return FiltrationCertificate(mod, kind, degree, chain, claims)


def verify_filtration_certificate(cert):
    """Re-check a filtration certificate from scratch.

    Returns {"status", "items"} in the same shape as verify_relations.
    """
    mod = cert.parent
    items = []

    def add(name, ok, witness=None):
        items.append({"check": name, "ok": ok,
                      "witness": None if ok else witness})

    block = (cert.degree + 1) * mod.session.r
    add("chain length * block dim = dim",
        len(cert.chain) * block == mod.dim
        and len(cert.chain) == len(cert.claims),
        "dims %s vs %d" % ([c.dim for c in cert.chain], mod.dim))
    prev = None
    for j, sub in enumerate(cert.chain):
        add("member %d closed" % j, sub.is_closed())
        add("member %d dimension" % j, sub.dim == (j + 1) * block,
            "dim %d" % sub.dim)
        if prev is not None:
            asc = all(sub.contains(row) for row in prev.rows)
            add("member %d contains member %d" % (j, j - 1), asc)
        kind, w, deg = cert.claims[j]
        big = submodule_to_module(sub)
        inner = SubmoduleBasis(big)
        if prev is not None:
            ok_inner = True
            for row in prev.rows:
                coords = coords_in_basis(row, sub.rows, sub.pivots,
                                         mod.session.zero)
                if coords is None:
                    ok_inner = False
                    break
                for comp in weight_split(big, coords).values():
                    inner.insert(comp)
            add("member %d / member %d well formed" % (j, j - 1), ok_inner)
            if not ok_inner:
                prev = sub
                continue
        quot = quotient_module(big, inner)
        if kind == "verma":
            good = is_generalized_verma(quot, w, deg)
        else:
            good = is_generalized_verma(build_dual(quot), w, deg)
        add("quotient %d is %s(%s,%d)" % (j, kind, w, deg), good)
        prev = sub
    ok = all(it["ok"] for it in items)
    return {"status": "pass" if ok else "fail", "items": items}


def extract_standard_filtration(mod, deg):
    """Greedy standard filtration of degree deg, or None.

    Bottom-up: among highest-weight vectors of degree deg in the current
    quotient, take one of maximal weight generating a generalized Verma
    submodule; record it, quotient, repeat.  The returned certificate is
    re-verified from scratch; None means this strategy found nothing.
    """
    s = mod.session
    block = (deg + 1) * s.r
    if mod.dim % block != 0:
        return None
    chain = []
    claims = []
    current = mod
    maps = []

    def lift_full(vec):
        for qm in reversed(maps):
            vec = qm.lift(vec)
        return vec

    while current.dim > 0:
        found = None
        for u, w, d in highest_weight_vectors(current):
            if d != deg:
                continue
            sub = submodule_generated(current, [u])
            if sub.dim != block:
                continue
            if is_generalized_verma(submodule_to_module(sub), w, deg):
                found = (w, sub)
                break
        if found is None:
            return None
        w, sub = found
        claims.append(("verma", w, deg))
        member = chain[-1].copy() if chain else SubmoduleBasis(mod)
        for row in sub.rows:
            lifted = lift_full(row)
            for comp in weight_split(mod, lifted).values():
                member.insert(comp)
        chain.append(member)
        current, qm = quotient_with_map(current, sub)
        maps.append(qm)
    cert = FiltrationCertificate(mod, "standard", deg, chain, claims)
    rep = verify_filtration_certificate(cert)
    if rep["status"] != "pass":
        raise DiagnosticError(
            "extracted filtration failed re-verification: %s"
            % [it for it in rep["items"] if not it["ok"]][:1])
    return cert


def annihilator_basis(mod, dual_rows):
    """Annihilator in mod of a span of functionals (rows in dual coords)."""
    s = mod.session
    if not dual_rows:
        return None
    ker = nullspace(dual_rows, mod.dim, s.zero, s.one)
    sub = SubmoduleBasis(mod)
    for v in ker:
        for comp in weight_split(mod, v).values():
            sub.insert(comp)
    return sub


def extract_costandard_filtration(mod, deg):
    """Costandard filtration via the standard filtration of the dual."""
    dmod = build_dual(mod)
    dcert = extract_standard_filtration(dmod, deg)
    if dcert is None:
        return None
    n = len(dcert.chain)
    chain = []
    claims = []
    for j in range(n):
        if j < n - 1:
            sub = annihilator_basis(mod, dcert.chain[n - 2 - j].rows)
        else:
            full = SubmoduleBasis(mod)
            for i in range(mod.dim):
                z = mod.session.zero
                e = [z] * mod.dim
                e[i] = mod.session.one
                full.insert(e)
            sub = full
        chain.append(sub)
        claims.append(("dual-verma", dcert.claims[n - 1 - j][1], deg))
    cert = FiltrationCertificate(mod, "costandard", deg, chain, claims)
    rep = verify_filtration_certificate(cert)
    if rep["status"] != "pass":
        raise DiagnosticError(
            "costandard transport failed re-verification: %s"
            % [it for it in rep["items"] if not it["ok"]][:1])
    return cert


# ---------------------------------------------------------------------
# Jordan-Holder multiplicities via socle recursion
# ---------------------------------------------------------------------

def _socle_seeds(mod):
    """Per weight: degree-0 highest-weight vectors killed by F^{dim L}."""
    s = mod.session
    seeds = []
    counts = {}
    for w, idx in sorted(mod.weight_blocks().items(), reverse=True):
        # vectors supported on the weight-w block with E v = 0 and
        # (H - w) v = 0
        rows = []
        for i in range(mod.dim):
            rows.append([mod.matE.rows[i].get(j, s.zero) for j in idx])
        shift = s.from_rational(w)
        for i in range(mod.dim):
            row = [mod.matH.rows[i].get(j, s.zero) for j in idx]
            for p, j in enumerate(idx):
                if i == j:
                    row[p] = row[p] - shift
            rows.append(row)
        ker = nullspace(rows, len(idx), s.zero, s.one)
        if not ker:
            continue
        cw = simple_dim(s, w)
        fc = mod.matF.matpow(cw)
        # restrict to the subspace killed by F^{dim L(w)}
        krows = []
        full = []
        for v in ker:
            z = [s.zero] * mod.dim
            for x, j in zip(v, idx):
                z[j] = x
            full.append(z)
            krows.append(fc.apply(z))
        sol = nullspace(
            [[krows[a][i] for a in range(len(full))]
             for i in range(mod.dim)],
            len(full), s.zero, s.one)
        got = 0
        fprev = mod.matF.matpow(cw - 1)
        for coeffs in sol:
            vec = [s.zero] * mod.dim
            for c, z in zip(coeffs, full):
                if not c.is_zero():
                    vec = [x + c * y for x, y in zip(vec, z)]
            if all(x.is_zero() for x in vec):
                continue
            if cw > 0 and all(x.is_zero() for x in fprev.apply(vec)):
                raise DiagnosticError(
                    "socle vector at weight %s dies before F^%d"
                    % (w, cw - 1))
            seeds.append(vec)
            got += 1
        if got:
            counts[w] = got
    return seeds, counts


def socle_counts(mod):
    """Per-weight multiplicities of the simple socle constituents."""
    _, counts = _socle_seeds(mod)
    return counts


def jordan_holder(mod):
    """Multiset of simple labels of the composition factors.

    Computed by socle recursion: the socle is spanned by the simple
    submodules generated by degree-0 highest-weight vectors, and the
    recursion continues on the quotient.
    """
    s = mod.session
    factors = {}
    current = mod
    while current.dim > 0:
        seeds, counts = _socle_seeds(current)
        if not seeds:
            raise DiagnosticError("nonzero module with empty socle data")
        sub = submodule_generated(current, seeds)
        expected = sum(simple_dim(s, w) * c for w, c in counts.items())
        if sub.dim != expected:
            raise DiagnosticError(
                "socle dimension %d does not match %d from counts %s"
                % (sub.dim, expected, counts))
        for w, c in counts.items():
            lab = simple_label(s, w)
            factors[lab] = factors.get(lab, 0) + c
        current = quotient_module(current, sub)
    return factors


# ---------------------------------------------------------------------
# the splitting algorithm for surjections onto typical Vermas
# ---------------------------------------------------------------------

def verma_splitting_section(mod, f, lam, deg):
    """A section g of a surjection f : mod -> V(lam, deg), f*g = id.

    f is a (dim V x dim mod) matrix.  Follows the inductive recursion
    on the extremal operators X+ = E^{r-1}, X- = F^{r-1}: the diagonal
    coefficients of X+X- on the highest-weight chain are invertible
    exactly when lam is typical.
    """
    s = mod.session
    lam = s.check_weight(lam)
    if not typicality(s, lam).typical:
        raise RejectedInputError(
            "splitting requires a typical weight, got %s" % (lam,))
    verma = build_generalized_verma(s, lam, deg)
    for g in ("E", "F", "H"):
        if not (f @ mod.generator_matrix(g)
                - verma.generator_matrix(g) @ f).is_zero():
            raise RejectedInputError("f is not equivariant (%s)" % g)
    n = deg + 1
    xpxm_v = verma.matE.matpow(s.r - 1) @ verma.matF.matpow(s.r - 1)
    # nu[k2][k] = coefficient of v^{k2} in X+X- v^k (chain indices t=0)
    nu = [[xpxm_v.rows[k2].get(k, s.zero) for k in range(n)]
          for k2 in range(n)]
    for k in range(n):
        if nu[k][k].is_zero():
            raise DiagnosticError(
                "diagonal coefficient nu_%d vanishes at typical %s"
                % (k, lam))
    gamma = [None] * n
    top = nu[deg][deg].inv()
    for k in range(deg - 1, -1, -1):
        acc = nu[k][deg] * top
        for k2 in range(k + 1, deg):
            acc = acc - gamma[k2] * nu[k][k2]
        gamma[k] = acc * nu[k][k].inv()
    # preimages of the targets under f (weight-lam components suffice)
    targets = []
    for k in range(deg):
        z = [s.zero] * verma.dim
        z[k] = gamma[k]
        targets.append(z)
    ztop = [s.zero] * verma.dim
    ztop[deg] = top
    targets.append(ztop)
    sols = solve(f.to_dense(), targets, s.zero, s.one)
    if any(x is None for x in sols):
        raise RejectedInputError("f is not surjective onto the chain")
    us = []
    for x in sols:
        comp = weight_split(mod, x).get(lam, [s.zero] * mod.dim)
        us.append(comp)
    diff = list(us[deg])
    for k in range(deg):
        diff = [a - b for a, b in zip(diff, us[k])]
    xpxm_m = mod.matE.matpow(s.r - 1) @ mod.matF.matpow(s.r - 1)
    w = xpxm_m.apply(diff)
    chain = _chain_from_hw(mod, w, lam, deg)
    g, _ = _verma_map_from_chain(mod, chain, lam, deg)
    if not (f @ g - SMat.identity(s, verma.dim)).is_zero():
        raise DiagnosticError("section fails f*g = id")
    if not _intertwiner_ok(g, verma, mod):
        raise DiagnosticError("section is not equivariant")
    return g


def standard_top_surjection(mod, deg):
    """An equivariant surjection onto the top quotient of a standard
    filtration of mod, as (f, lam) with f : mod -> V(lam, deg).

    Raises if no standard filtration is found.
    """
    s = mod.session
    cert = extract_standard_filtration(mod, deg)
    if cert is None:
        raise DiagnosticError("no standard filtration found")
    lam = cert.claims[-1][1]
    if len(cert.chain) > 1:
        sub = cert.chain[-2]
        quot, qmap = quotient_with_map(mod, sub)

        def push(vec):
            return qmap.push(vec)
    else:
        quot = mod

        def push(vec):
            return vec
    hw = [u for u, w, d in highest_weight_vectors(quot)
          if w == lam and d == deg]
    chain = _chain_from_hw(quot, hw[0], lam, deg)
    g, gd = _verma_map_from_chain(quot, chain, lam, deg)
    ginv = invert_dense(gd, s.zero, s.one)
    if ginv is None:
        raise DiagnosticError("top quotient chain map is singular")
    f = SMat(s, quot.dim, mod.dim)
    for col in range(mod.dim):
        e = [s.zero] * mod.dim
        e[col] = s.one
        pushed = push(e)
        for i in range(quot.dim):
            acc = s.zero
            for al, x in enumerate(pushed):
                if not x.is_zero():
                    y = ginv[i][al]
                    if not y.is_zero():
                        acc = acc + y * x
            if not acc.is_zero():
                f.rows[i][col] = acc
    return f, lam


# ---------------------------------------------------------------------
# BGG reciprocity table
# ---------------------------------------------------------------------

def bgg_table(session, m, weights, seed=0):
    """Cells ((lam, mu), filtration mult, JH mult, equal) over weights.

    The projective cover of the simple at lam in degree m is V(lam, m)
    for typical lam and the twisted projective P_i^m (x) C otherwise;
    filtration multiplicities come from certificates, composition
    multiplicities from the independent jordan_holder computation.
    """
    from .projectives import build_projective_cover

    weights = [session.check_weight(w) for w in weights]
    filt = {}
    for lam in weights:
        if typicality(session, lam).typical:
            p = build_generalized_verma(session, lam, m)
        else:
            i, k = atypical_decompose(session, lam)
            p = build_projective_cover(session, i, m, twist=k)
        cert = extract_standard_filtration(p, m)
        if cert is None:
            raise DiagnosticError(
                "no standard filtration found for the cover at %s" % (lam,))
        counts = {}
        for w in cert.quotient_weights():
            counts[w] = counts.get(w, 0) + 1
        filt[lam] = counts
    jh = {}
    for mu in weights:
        jh[mu] = jordan_holder(build_generalized_verma(session, mu, 0))
    cells = []
    for lam in weights:
        lab = simple_label(session, lam)
        for mu in weights:
            a = filt[lam].get(mu, 0)
            b = jh[mu].get(lab, 0)
            cells.append(((lam, mu), a, b, a == b))
    return cells

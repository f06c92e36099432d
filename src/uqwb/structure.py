"""Structural analysis of modules: submodules, quotients, filtrations.

All computations are exact.  Every basis vector of every module carries
a single weight, and a module is the direct sum of its weight blocks: H
preserves each block, E maps block w to block w+2 and F to w-2.  The
routines here rely on that grading, so they first check it, once per
module (`ModuleRep.graded_blocks`, which raises ModuleInvalidError on an
entry that breaks it), and then work one weight block at a time: kernels,
inverses and ranks are those of the blocks, each at most a weight space
wide, instead of full-dimension ones.

Vectors are sparse {index: Scalar} dicts without zeros, applied through
the cached columns of E, F and H (`ModuleRep.columns`) with linalg's
sparse row arithmetic (`_apply`, `_axpy`); a word in E and F is
applied one letter at a time by `_word`, and the powers of N = H - w to
a vector are the terms of one lazy walk, `_n_walk`.  Submodules are
SubmoduleBasis objects: sparse reduced echelon bases of homogeneous
vectors, so reducing a vector touches only the rows of its own weight.
That echelon is the library's one elimination: every kernel (`_kernel`)
and solve (`_solve`), the splitting section's and the top surjection's
among them, is read off one, and a scalar is inverted only to make a
pivot a unit.  A reduced echelon basis is unique, so the answers are
exactly those of the dense `linalg` routines, which only the tests use.
The public functions take and return dense lists.

`_hom_basis` solves Hom_U(a, b) for any two modules over one field, weight
block by weight block, in one such sparse echelon; `iso_test`, once the
weight blocks match, looks for an invertible element among that basis
and a few seeded combinations of it.  Every isomorphism decision
pairs weight blocks through `_block_pairs`, and every map out of
V(w, deg) is built from the image of its top vector by `_verma_map`.
One constructor, `_subquotient`, builds every submodule, quotient and
S_j / S_{j-1} straight from the parent's columns, and Verma recognition
decides from one chain top (`is_generalized_verma`).

Closure is decided once, where a subspace comes from: `_subquotient`
checks nothing, the public quotient and submodule constructors check a
subspace from outside, `verify_filtration_certificate` decides each
member in its "member j closed" verdict, and the search and
`jordan_holder` build theirs closed (`_generated`, and preimages of it).

The dual side of a filtration is the transpose dual (`_transpose_dual`,
F^T, E^T, H^T), isomorphic to build_dual's: costandard members and
dual-verma quotients are annihilators of members there.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import islice

from .errors import DiagnosticError, RejectedInputError
from .linalg import SMat, _apply, _axpy
from .repmod import (
    ModuleRep,
    Report,
    WeightLabel,
    _dump_int,
    _dump_key,
    _dump_weight,
    _nilpotent_chains,
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
    """("M", w) for typical w, else ("L", i, k) with w = i + k*ell/2.

    w is checked onto the lattice first, and the label carries the
    checked Fraction.  Labels are kept on the session, keyed by that
    Fraction, so an off-lattice w raises on every call.
    """
    lab = session._label_cache.get(w)
    if lab is None:
        verdict = typicality(session, w)
        w = verdict.weight
        if verdict.typical:
            lab = ("M", w)
        else:
            lab = ("L",) + atypical_decompose(session, w)
        session._label_cache[w] = lab
    return lab


def simple_dim(session, w):
    lab = simple_label(session, w)
    return session.r if lab[0] == "M" else lab[1] + 1


def format_simple_label(lab):
    if lab[0] == "M":
        return "M(%s)" % (lab[1],)
    return "L(%d)xC(%d)" % (lab[1], lab[2]) if lab[2] else "L(%d)" % lab[1]


# ---------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------

def _sparse(vec):
    """The {index: Scalar} form of a dense vector, without zeros."""
    return {i: x for i, x in enumerate(vec) if not x.is_zero()}


def _dense(mod, vec):
    """The dense list form of a sparse vector of mod."""
    out = [mod.session.zero] * mod.dim
    for i, x in vec.items():
        out[i] = x
    return out


def _word(mod, vec, word):
    """A word in the letters E and F applied to a sparse vec, first letter
    first: _word(mod, v, "FE") is E F v."""
    for g in word:
        vec = _apply(mod.columns(g), vec)
    return vec


def _n_walk(mod, vec, w):
    """vec, N vec, N^2 vec, ... for a sparse vec and N = H - w, lazily and
    without end: a caller takes the terms it needs."""
    hcols = mod.columns("H")
    shift = mod.session.neg_weight(mod.session.weight_key(w))
    while True:
        yield vec
        vec = _axpy(_apply(hcols, vec), shift, vec)


def _split(mod, vec):
    """Weight components of a sparse vector, by `ModuleRep.weight_keys`."""
    comps = {}
    keys = mod.weight_keys()
    for i, x in vec.items():
        comps.setdefault(keys[i], {})[i] = x
    return comps


def weight_split(mod, vec):
    """Weight components of vec, via the coordinate weight labels."""
    return {mod.labels[next(iter(comp))].weight: _dense(mod, comp)
            for comp in _split(mod, _sparse(vec)).values()}


def _degree(mod, vec, w):
    """The least s with (H - w)^{s+1} vec = 0 for a sparse vec (-1 for
    vec = 0); DiagnosticError if (H - w)^{dim+1} vec is not 0."""
    for k, x in enumerate(_n_walk(mod, vec, w)):
        if not x:
            return k - 1
        if k > mod.dim:
            raise DiagnosticError("H - %s not nilpotent on vector" % (w,))


# ---------------------------------------------------------------------
# submodule bases
# ---------------------------------------------------------------------

def _eliminate(v, p, row):
    """v -= v[p] * row in place, for a row with a unit pivot at p; column
    p of v is cleared."""
    c = v.pop(p)
    for j, y in row.items():
        if j != p:
            t = c * y
            cur = v.get(j)
            if cur is None:
                v[j] = -t
                continue
            t = cur - t
            if t.is_zero():
                del v[j]
            else:
                v[j] = t


class SubmoduleBasis:
    """Reduced row echelon basis of a subspace of a module.

    Rows are sparse {index: Scalar} dicts with unit pivots, held by
    pivot; `rows` gives them as dense lists in pivot order.  Reducing a
    vector touches only the rows whose pivots lie in its support, so a
    weight-homogeneous vector meets only the rows of its own weight
    block.
    """

    def __init__(self, parent):
        self.parent = parent
        self.pivots = []
        self._rows = {}

    @property
    def dim(self):
        return len(self.pivots)

    @property
    def rows(self):
        return [_dense(self.parent, self._rows[p]) for p in self.pivots]

    def sparse_rows(self):
        return [self._rows[p] for p in self.pivots]

    def _reduce(self, vec):
        """Remainder of a sparse vector modulo the span, as a new dict.

        Pivot columns are cleared in any order: every row is zero on the
        other rows' pivots.
        """
        rows = self._rows
        v = dict(vec)
        for p in [p for p in v if p in rows]:
            _eliminate(v, p, rows[p])
        return v

    def _insert(self, vec):
        """Add a sparse vector to the span; the new sparse row or None."""
        v = self._reduce(vec)
        if not v:
            return None
        p = min(v)
        inv = v[p].inv()
        v = {j: inv * x for j, x in v.items()}
        for b in self._rows.values():
            if p in b:
                _eliminate(b, p, v)
        self._rows[p] = v
        bisect.insort(self.pivots, p)
        return v

    def copy(self):
        out = SubmoduleBasis(self.parent)
        out._rows = {p: dict(r) for p, r in self._rows.items()}
        out.pivots = list(self.pivots)
        return out

    def is_closed(self):
        if self.dim == self.parent.dim:
            return True
        for g in ("E", "F", "H"):
            cols = self.parent.columns(g)
            for row in self._rows.values():
                if self._reduce(_apply(cols, row)):
                    return False
        return True


def _kernel(rows, unknowns, one):
    """Basis of the common kernel of sparse rows supported on unknowns.

    The rows, which may come from a generator, go into one sparse echelon
    and are read only until every unknown is a pivot: the kernel is then
    0.  Each free unknown f, in the order of unknowns, gives the vector
    that is 1 at f, minus the pivot rows' entries in column f at their
    pivots, and 0 on the other free unknowns.  A reduced echelon form is
    unique, so for increasing unknowns these are the dense `nullspace`'s.
    """
    eqs = SubmoduleBasis(None)
    n = len(unknowns)
    for row in rows:
        eqs._insert(row)
        if eqs.dim == n:
            return []
    sols = {f: {f: one} for f in unknowns if f not in eqs._rows}
    for p, row in eqs._rows.items():
        for f, x in row.items():
            if f != p:
                sols[f][p] = -x
    return list(sols.values())


def _solve(rows, targets, n):
    """The solution X of A X = B that is 0 on every free unknown, as
    {column of B: sparse column of X}, or None if there is none.

    rows are A's sparse rows, on columns below n, and targets B's, as
    {column: entry} dicts.  [A | B], column k of B at n + k, goes into one
    sparse echelon: A X = B is solvable iff no pivot lies in B, and then
    X[p, k] is row p's entry at n + k, exactly the dense solve's.
    """
    aug = SubmoduleBasis(None)
    for row, b in zip(rows, targets):
        aug._insert({**row, **{n + k: x for k, x in b.items()
                               if not x.is_zero()}})
    if aug.pivots and aug.pivots[-1] >= n:
        return None
    return {k: {p: row[n + k] for p, row in aug._rows.items() if n + k in row}
            for b in targets for k in b}


def submodule_generated(mod, seeds):
    """Least submodule containing the seeds (saturation under E, F, H)."""
    return _generated(mod, [_sparse(v) for v in seeds])


def _generated(mod, seeds):
    """submodule_generated of sparse seeds."""
    sub = SubmoduleBasis(mod)
    work = []
    for v in seeds:
        for comp in _split(mod, v).values():
            nv = sub._insert(comp)
            if nv is not None:
                work.append(nv)
    gens = [mod.columns(g) for g in ("E", "F", "H")]
    while work:
        v = work.pop()
        for cols in gens:
            for comp in _split(mod, _apply(cols, v)).values():
                nv = sub._insert(comp)
                if nv is not None:
                    work.append(nv)
    return sub


# ---------------------------------------------------------------------
# sub- and quotient modules as ModuleReps
# ---------------------------------------------------------------------

def _make_module(session, keys, weights, tags, matE, matF, matH, name):
    """A ModuleRep whose label degrees are read off the chains of
    N = H - w (the degree of basis vector j is the largest p with column j
    of N^p nonzero), which fill its cache: N is walked once.  The int
    keys of the weights fill its cache too."""
    chains = _nilpotent_chains(session, keys, weights, matH)
    degs = [0] * len(weights)
    for chain in chains:
        for p, row in enumerate(chain, 1):
            for c in row:
                degs[c] = max(degs[c], p)
    mod = ModuleRep(session, list(map(WeightLabel, weights, degs, tags)),
                    matE, matF, matH, max(degs, default=0), name=name)
    mod._chains = chains
    mod._cols["keys"] = keys
    return mod


class QuotientMap:
    """Projection of U onto U / L, for L = sub: push reads the remainder
    mod L at coords.  lift, its inverse there, is a section if U = parent."""

    def __init__(self, parent, sub, coords):
        self.parent = parent
        self.sub = sub
        self.coords = coords
        self._pos = {j: k for k, j in enumerate(coords)}

    def push(self, vec):
        pos = self._pos
        return {pos[j]: x for j, x in self.sub._reduce(vec).items()
                if j in pos}

    def lift(self, qvec):
        coords = self.coords
        return {coords[k]: x for k, x in qvec.items()}


def _subquotient(mod, lower, upper=None):
    """U / L and its QuotientMap, for SubmoduleBases L = lower inside
    U = upper of mod (U = mod when upper is None).

    The caller establishes that L and U are closed and L lies in U;
    nothing here checks it.  The pivots of L are pivots of U, and a
    vector of U reduced modulo L is the sum of U's rows at the other
    pivots, its entries there the coefficients.  So the basis is the
    classes of those rows (unit vectors when U = mod), and column k of g
    is g applied to row k, reduced modulo L and read at those pivots.
    """
    s = mod.session
    low = lower._rows  # by pivot
    if upper is None:
        coords = [j for j in range(mod.dim) if j not in low]
    else:
        coords = [p for p in upper.pivots if p not in low]
    qmap = QuotientMap(mod, lower, coords)

    def induced(g):
        cols = mod.columns(g)
        out = SMat(s, len(coords), len(coords))
        for col, j in enumerate(coords):
            img = cols[j] if upper is None else _apply(cols, upper._rows[j])
            for i, x in qmap.push(img).items():
                out.rows[i][col] = x
        return out

    base = mod.name or "?"
    name = ("%s/sub" % base if upper is None
            else "sub(%s)%s" % (base, "/sub" if lower.dim else ""))
    keys = mod.weight_keys()
    q = _make_module(s, tuple(keys[j] for j in coords),
                     [mod.labels[j].weight for j in coords],
                     [mod.labels[j].tag for j in coords], induced("E"),
                     induced("F"), induced("H"), name)
    return q, qmap


def quotient_with_map(mod, sub):
    """mod / sub and its QuotientMap; RejectedInputError if sub is not a
    closed subspace of mod."""
    if sub.parent is not mod:
        raise RejectedInputError("quotient by a subspace of another module")
    if not sub.is_closed():
        raise RejectedInputError("quotient by a non-closed subspace")
    return _subquotient(mod, sub)


def quotient_module(mod, sub):
    return quotient_with_map(mod, sub)[0]


def submodule_to_module(sub):
    """The submodule spanned by an echelon basis, as its own ModuleRep;
    RejectedInputError if the span is not closed."""
    if not sub.is_closed():
        raise RejectedInputError("basis is not closed under the module "
                                 "action")
    return _subquotient(sub.parent, SubmoduleBasis(sub.parent), sub)[0]


# ---------------------------------------------------------------------
# highest-weight vectors
# ---------------------------------------------------------------------

def _hw_block(mod, w):
    """ker E on the weight-w block, as the sparse echelon rows of a
    SubmoduleBasis: the kernel of E's rows of block w + 2 (key k + 2N),
    which the grading supports on block w (key k)."""
    s = mod.session
    blocks = mod.graded_blocks()
    k = s.weight_key(w)
    ker = SubmoduleBasis(mod)
    for v in _kernel((mod.matE.rows[i] for i in blocks.get(k + 2 * s.N, [])),
                     blocks.get(k, []), s.one):
        ker._insert(v)
    return ker.sparse_rows()


def _hw_rows(mod):
    """Basis of ker(E) as (sparse row, weight, degree) triples, lazily:
    per weight, descending, the echelon rows of the kernel there."""
    blocks = mod.graded_blocks()
    for k in sorted(blocks, reverse=True):
        w = mod.labels[blocks[k][0]].weight
        for row in _hw_block(mod, w):
            yield row, w, _degree(mod, row, w)


def highest_weight_vectors(mod):
    """_hw_rows with dense vectors."""
    return [(_dense(mod, row), w, d) for row, w, d in _hw_rows(mod)]


def _chain_top(mod, lam, deg):
    """The first sparse highest_weight_vectors row of weight lam and
    degree deg, from the weight-lam block alone, or None."""
    for u in _hw_block(mod, lam):
        if _degree(mod, u, lam) == deg:
            return u
    return None


# ---------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------

def _intertwiner_ok(g, a, b):
    """Whether g : a -> b commutes with E, F and H.

    Checked one sparse column at a time: column j of g X_a is g applied
    to column j of X_a, the sum of X_a[k, j] g[:, k], and column j of
    X_b g is X_b applied to g[:, j].  A g of the wrong shape is not an
    intertwiner.
    """
    if g.nrows != b.dim or g.ncols != a.dim:
        return False
    gcols = g.transpose().rows
    for name in ("E", "F", "H"):
        acols = a.columns(name)
        bcols = b.columns(name)
        for j, gcol in enumerate(gcols):
            if _apply(gcols, acols[j]) != _apply(bcols, gcol):
                return False
    return True


def _blocks_full_rank(g, pairs):
    """Whether each (rows, cols) block of g has rank len(cols), that is,
    kernel 0."""
    one = g.session.one
    return all(not _kernel(g.block(rows, cols).rows, range(len(cols)), one)
               for rows, cols in pairs)


def _block_pairs(a, b):
    """The (b's indices, a's indices) of each weight of a, for
    _blocks_full_rank; None if a and b differ in weight-block sizes."""
    blocks_a = a.graded_blocks()
    blocks_b = b.graded_blocks()
    if ({w: len(idx) for w, idx in blocks_a.items()}
            != {w: len(idx) for w, idx in blocks_b.items()}):
        return None
    return [(blocks_b[w], idx) for w, idx in blocks_a.items()]


def _same_field(a, b):
    """Refuse modules of two sessions a and b over different fields, each
    set by (ell, N) as for a dump."""
    fields = [(s.ell, s.N) for s in (a, b)]
    if fields[0] != fields[1]:
        raise RejectedInputError("modules over different fields: (ell, N) "
                                 "= %s and %s" % tuple(fields))


def _hom_basis(a, b):
    """A basis of Hom_U(a, b) as SMats, for any a and b over one field.

    An H-equivariant X maps block w of a to block w of b, so the
    unknowns are X[i, j] with i in block w of b and j in block w of a,
    for every weight w the two modules share.  The equations are the
    entries (i, j) of X M_a - M_b X for M = H, E and F, with weight(i) =
    weight(j) + 0, +2 and -2: (X M_a)[i, j] sums X[i, k] M_a[k, j] over k
    of weight(i), (M_b X)[i, j] sums M_b[i, k] X[k, j] over k of
    weight(j), and every such X[i, k] and X[k, j] is an unknown.  Their
    kernel (`_kernel`) gives one basis element per free unknown.

    The equations go into the echelon H first, then F, then E.  The
    order cannot change the basis: the reduced echelon form of a row
    space is unique for a fixed numbering of the unknowns, and the
    kernel is read off it.  It changes the cost: F of a Verma-type basis
    has simple entries, mostly rational, so the F rows take the pivots
    cheaply and most E rows then reduce to zero.  E first makes the E
    rows the pivots, and inserting them costs more.
    """
    _same_field(a.session, b.session)
    s = a.session
    blocks_a = a.graded_blocks()
    blocks_b = b.graded_blocks()
    var = {}  # (i, j) -> unknown number
    for key, jdx in blocks_a.items():
        for i in blocks_b.get(key, ()):
            for j in jdx:
                var[i, j] = len(var)

    def equations():
        for g, shift in (("H", 0), ("F", -2), ("E", 2)):
            acols = a.columns(g)
            brows = b.generator_matrix(g).rows
            for key, jdx in blocks_a.items():
                for i in blocks_b.get(key + shift * s.N, []):
                    for j in jdx:
                        yield _axpy(
                            {var[i, k]: x for k, x in acols[j].items()},
                            -s.one,
                            {var[k, j]: x for k, x in brows[i].items()})

    entries = list(var)
    out = []
    for sol in _kernel(equations(), range(len(var)), s.one):
        g = SMat(s, b.dim, a.dim)
        for v, x in sol.items():
            i, j = entries[v]
            g.rows[i][j] = x
        out.append(g)
    return out


def iso_test(a, b, seed=0):
    """An exact invertible intertwiner a -> b, or None.

    Solves for a basis of Hom_U(a, b) (_hom_basis) and tries each basis
    element, then a few combinations of them with small positive
    integer coefficients drawn from seed.  The basis is tried from its
    last free unknown back: the element of a free unknown vanishes on
    every later unknown, so one of an early unknown is zero on the later
    weight blocks and singular.  A candidate is returned when
    every weight block of it has full rank; it is then re-checked
    exactly against E, F and H, and DiagnosticError is raised if it
    fails.

    None proves that a and b are not isomorphic when the dimensions or
    the weight blocks differ, when Hom_U(a, b) = 0, or when a or b is
    indecomposable, as every module with a simple top is: every
    generalized Verma module, simple module and projective cover.  Were
    they isomorphic, End(a) would be local (Fitting's lemma; Assem,
    Simson and Skowronski, Elements of the Representation Theory of
    Associative Algebras, I.4), its non-units a proper subspace, and so
    some element of every basis of Hom_U(a, b) invertible.
    """
    _same_field(a.session, b.session)
    if a.matE == b.matE and a.matF == b.matF and a.matH == b.matH:
        return SMat.identity(a.session, a.dim)
    pairs = _block_pairs(a, b)
    if pairs is None:
        return None
    basis = _hom_basis(a, b)
    s = a.session

    def candidates():
        yield from reversed(basis)
        rng = random.Random(seed)
        for _ in range(3 if len(basis) > 1 else 0):
            mix = SMat(s, b.dim, a.dim)
            for h in basis:
                mix = mix + h.scale(s.from_rational(rng.randint(1, 7)))
            yield mix

    for g in candidates():
        if _blocks_full_rank(g, pairs):
            if not _intertwiner_ok(g, a, b):
                raise DiagnosticError("a solved Hom element a -> b fails "
                                      "the intertwiner check")
            return g
    return None


# ---------------------------------------------------------------------
# generalized Verma recognition
# ---------------------------------------------------------------------

def _verma_map(mod, u, w, deg):
    """The map V(w, deg) -> mod fixed by v^deg -> u, a sparse vector:
    F^t v^k goes to F^t (H - w)^{deg-k} u.  It is an intertwiner only
    for some u, and nothing here checks it."""
    s = mod.session
    r = s.r
    n = deg + 1
    cur = list(islice(_n_walk(mod, u, w), n))[::-1]
    fcols = mod.columns("F")
    g = SMat(s, mod.dim, r * n)
    for t in range(r):
        for k in range(n):
            for i, x in cur[k].items():
                g.rows[i][t * n + k] = x
        if t < r - 1:
            cur = [_apply(fcols, c) for c in cur]
    return g


def is_generalized_verma(mod, lam, deg):
    """Whether mod is isomorphic to V(lam, deg).

    Certifies by exhibiting the canonical intertwiner from V(lam, deg)
    built on a highest-weight chain; the generation route (saturation
    from the chain top) is cross-checked against invertibility.  The
    intertwiner maps the weight lam-2t columns of V into the weight
    lam-2t block of mod, so it is invertible iff each of those r
    blocks has full rank.

    One chain top decides (_chain_top): if mod is V(lam, deg), ker E on
    the weight-lam block is the span of the chain v^0 .. v^deg, and a
    vector of degree deg in it is p(N) v^deg with N = H - lam and
    p(0) != 0.  Its canonical map acts on block lam-2t as p(N_t), which
    is invertible.  So if the first degree-deg row fails, every row
    fails, and if there is none, mod is not V(lam, deg).
    """
    s = mod.session
    lam = s.check_weight(lam)
    if mod.dim != (deg + 1) * s.r:
        return False
    verma = build_generalized_verma(s, lam, deg)
    u = _chain_top(mod, lam, deg)
    if u is None:
        return False
    g = _verma_map(mod, u, lam, deg)
    if not _intertwiner_ok(g, verma, mod):
        raise DiagnosticError(
            "canonical chain map failed equivariance at weight %s" % (lam,))
    pairs = _block_pairs(verma, mod)
    invertible = pairs is not None and _blocks_full_rank(g, pairs)
    generated = _generated(mod, [u]).dim == mod.dim
    if invertible != generated:
        raise DiagnosticError(
            "generation and intertwiner routes disagree at %s" % (lam,))
    return invertible


def _transpose_dual(mod):
    """The dual module M' of category O (Humphreys, BGG Category O, 3.2):
    E acts by F^T, F by E^T and H by H^T, through tau : E <-> F, H -> H.
    Its entries are mod's own, its own transpose dual has mod's E, F and
    H, and its labels are build_dual's: weight, m - degree, tag "(t)'".
    It is built once and kept on mod, read-only, like mod's chains.

    Lemma: M' is isomorphic to D = build_dual(mod), which acts by
    -(K F)^T, -(E Kinv)^T and H^T.  On block w, N = H - w, K = q^w U(N)
    and Kinv = q^-w U(-N), U being derive_K's series; as [H, E] = 2E and
    [H, F] = -2F, E^T and F^T carry p(N^T) on one block to p(N^T) on the
    next.  Let T : D -> M' be h_mu(N^T) on block mu, with h_mu = 1 at the
    lowest weight of each class mu + 2Z and h_{mu+2}(x) =
    -q^-mu U(-x) h_mu(x).  T commutes with H^T.  Between blocks mu and
    mu + 2, T E_D = F^T T asks -q^mu h_{mu+2}(x) U(x) = h_mu(x) and
    T F_D = E^T T asks the recursion; the two agree as U(x) U(-x) = 1:
    exp(tau x) exp(-tau x) = 1, and (1 + tau x)(1 - tau x) = 1 in the
    paper-literal mode on blocks with N^2 = 0, the only ones derive_K
    accepts there (mod.K is derived first, for its refusal).  Each h_mu
    has a constant term +-q^k, so T is invertible.
    """
    if mod._dual is None:
        mod.K  # derive_K refuses the blocks where U(x) U(-x) != 1
        m = mod.max_degree
        labels = [WeightLabel(lab.weight, m - lab.degree, "(%s)'" % lab.tag)
                  for lab in mod.labels]
        mod._dual = ModuleRep(mod.session, labels, mod.matF.transpose(),
                              mod.matE.transpose(), mod.matH.transpose(), m,
                              name="dual(%s)" % (mod.name or "?"))
    return mod._dual


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
        """The certificate of a to_json dict, each member the span of its
        rows as written; RejectedInputError if malformed."""
        if not isinstance(data, dict):
            raise RejectedInputError("a certificate must be a JSON object")
        what = "a certificate"
        kind = _dump_key(data, "kind", what)
        if kind not in ("standard", "costandard"):
            raise RejectedInputError("certificate kind must be standard or "
                                     "costandard, got %r" % (kind,))
        degree = _dump_int(_dump_key(data, "degree", what),
                           "certificate degree")
        mod = load_module(_dump_key(data, "module", what), session)
        s = mod.session
        raw_claims = _dump_key(data, "claims", what)
        if not isinstance(raw_claims, list):
            raise RejectedInputError("certificate claims must be a list")
        claims = []
        for c in raw_claims:
            if not isinstance(c, dict):
                raise RejectedInputError("a claim must be a JSON object")
            ckind = _dump_key(c, "kind", "a claim")
            if ckind not in ("verma", "dual-verma"):
                raise RejectedInputError("claim kind must be verma or "
                                         "dual-verma, got %r" % (ckind,))
            claims.append((ckind,
                           _dump_weight(s, _dump_key(c, "weight", "a claim"),
                                        "claim weight"),
                           _dump_int(_dump_key(c, "degree", "a claim"),
                                     "claim degree")))
        members = _dump_key(data, "chain", what)
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
                sub._insert(_sparse([s.parse_scalar(x) for x in row]))
            chain.append(sub)
        return FiltrationCertificate(mod, kind, degree, chain, claims)


def verify_filtration_certificate(cert):
    """Re-check a filtration certificate from scratch.

    Returns {"status", "items"} in the same shape as verify_relations.
    A member is closed only as a submodule of cert.parent: one held in
    another module fails "member j closed", the only closure check: a
    quotient over a member that is not closed fails, unbuilt.

    A verma claim is checked on S_{j+1}/S_j, cut from the parent.  A
    dual-verma claim is checked on the dual's side, with no dual built
    per quotient: on Ann(S_j)/Ann(S_{j+1}) in the parent's transpose dual
    D (`_transpose_dual`), Ann(S) being the functionals of D that vanish
    on S and Ann(S_0) all of D.  D acts by <x.f, v> = <f, tau(x) v> with
    tau(E) = F, tau(F) = E and tau(H) = H, so the annihilator of a closed
    S is closed, and the pairing makes Ann(S_j)/Ann(S_{j+1}) the
    transpose dual of S_{j+1}/S_j, which is isomorphic to
    build_dual(S_{j+1}/S_j) (the lemma of `_transpose_dual`).
    is_generalized_verma decides up to isomorphism, so the verdict is
    that on build_dual(S_{j+1}/S_j).
    """
    mod = cert.parent
    rep = Report()
    block = (cert.degree + 1) * mod.session.r
    rep.add("chain length * block dim = dim",
            len(cert.chain) * block == mod.dim
            and len(cert.chain) == len(cert.claims),
            "dims %s vs %d" % ([c.dim for c in cert.chain], mod.dim))
    closed = [sub.parent is mod and sub.is_closed() for sub in cert.chain]
    if any(kind != "verma" for kind, _, _ in cert.claims):
        dual = _transpose_dual(mod)
        # ann[j] = Ann(S_j), in chain order: None, all of the dual, for
        # S_0 and for a member that is not closed, whose quotients are
        # never built; 0 for a member that is all of mod
        ann = [None] + [
            None if not ok else SubmoduleBasis(dual) if sub.dim == mod.dim
            else annihilator_basis(dual, sub.rows)
            for sub, ok in zip(cert.chain, closed)]
    # a chain longer than its claims fails the first check; zip stops
    for j, (sub, (kind, w, deg)) in enumerate(zip(cert.chain,
                                                  cert.claims)):
        rep.add("member %d closed" % j, closed[j])
        rep.add("member %d dimension" % j, sub.dim == (j + 1) * block,
                "dim %d" % sub.dim)
        prev = cert.chain[j - 1] if j else SubmoduleBasis(mod)
        # the quotient is formed only when member j - 1 lies in member j
        asc = not any(sub._reduce(row) for row in prev.sparse_rows())
        if j:
            rep.add("member %d contains member %d" % (j, j - 1), asc)
        what = "quotient %d is %s(%s,%d)" % (j, kind, w, deg)
        if not (closed[j] and (j == 0 or closed[j - 1])):
            rep.add(what, False)
            continue
        if not asc:
            continue
        if kind == "verma":
            quot = _subquotient(mod, prev, sub)[0]
        else:
            quot = _subquotient(dual, ann[j + 1], ann[j])[0]
        rep.add(what, is_generalized_verma(quot, w, deg))
    return rep.as_dict()


def _verified(cert, what):
    """cert once verify_filtration_certificate passes it (None stays
    None); DiagnosticError naming the first failed item otherwise."""
    if cert is None:
        return None
    rep = verify_filtration_certificate(cert)
    if rep["status"] != "pass":
        raise DiagnosticError(
            "%s failed re-verification: %s"
            % (what, [it for it in rep["items"] if not it["ok"]][:1]))
    return cert


def _standard_chain(mod, deg):
    """The greedy standard filtration of degree deg, unverified, or None.

    Bottom-up: take the first degree-deg highest-weight vector u of
    mod / S_j (mod itself for j = 0) whose generated submodule has
    dimension (deg+1) r, and add that submodule's rows, lifted to mod,
    to S_j for S_{j+1}.  The rows of a SubmoduleBasis are homogeneous,
    and so are their lifts.  The dimension suffices: V(w, deg) is
    universal on a degree-deg highest-weight chain (Humphreys, BGG
    Category O, 1.3), so the submodule u generates is a quotient of
    V(w, deg), equal to it iff of the same dimension.  The last member
    is mod, and its zero quotient is never built.
    """
    if deg < 0:
        raise RejectedInputError("degree must be nonnegative")
    mod.graded_blocks()
    block = (deg + 1) * mod.session.r
    if mod.dim % block != 0:
        return None
    chain = []
    claims = []
    current, lift = mod, dict  # a row of mod lifts to itself
    while len(chain) * block < mod.dim:
        if chain:
            current, qmap = _subquotient(mod, chain[-1])
            lift = qmap.lift
        for u, w, d in _hw_rows(current):
            if d == deg:
                sub = _generated(current, [u])
                if sub.dim == block:
                    break
        else:
            return None
        claims.append(("verma", w, deg))
        member = chain[-1].copy() if chain else SubmoduleBasis(mod)
        for row in sub.sparse_rows():
            member._insert(lift(row))
        chain.append(member)
    return FiltrationCertificate(mod, "standard", deg, chain, claims)


def extract_standard_filtration(mod, deg):
    """Greedy standard filtration of degree deg, or None.

    The search needs no recognition step: it knows each Verma by its
    dimension (see _standard_chain).  The certificate is verified from
    scratch, once, before it is returned.  None means this strategy
    found nothing; an ungraded module raises ModuleInvalidError.
    """
    return _verified(_standard_chain(mod, deg), "extracted filtration")


def annihilator_basis(mod, dual_rows):
    """Annihilator in mod of a span of functionals (rows in dual coords).

    Each functional must be homogeneous, as the rows of a SubmoduleBasis
    of the dual are, so the annihilator is the direct sum of its kernels
    on the weight blocks; RejectedInputError names a functional that is
    nonzero on two weight blocks.  No functionals give all of mod.
    """
    one = mod.session.one
    sub = SubmoduleBasis(mod)
    seen = {}  # functional number -> the weight it lives on
    for idx in mod.graded_blocks().values():
        w = mod.labels[idx[0]].weight
        rows = []
        for k, row in enumerate(dual_rows):
            part = {i: row[i] for i in idx if not row[i].is_zero()}
            if part:
                if seen.setdefault(k, w) != w:
                    raise RejectedInputError(
                        "functional %d is not homogeneous: it has weights "
                        "%s and %s" % (k, seen[k], w))
                rows.append(part)
        for v in _kernel(rows, idx, one):
            sub._insert(v)
    return sub


def _twisted_chain(cert, tmod, shift):
    """A standard certificate of tmod, a twist of cert.parent that moves
    every weight by shift, unverified.

    tmod has cert.parent's basis indices, and on them E acts as a
    nonzero multiple of cert.parent's E, F as its F and H as its H +
    shift.  build_projective_cover glues any two twists of one (i, m)
    so, either of them untwisted or neither, with E equal up to sign.
    tmod therefore has exactly the submodules of cert.parent, and a chain
    with quotients V(w, deg) is one of tmod with quotients
    V(w + shift, deg): the same rows, rebased onto tmod, and every
    claim weight shifted.
    """
    chain = []
    for sub in cert.chain:
        member = sub.copy()
        member.parent = tmod
        chain.append(member)
    claims = [(kind, w + shift, deg) for kind, w, deg in cert.claims]
    return FiltrationCertificate(tmod, cert.kind, cert.degree, chain, claims)


def extract_costandard_filtration(mod, deg):
    """Costandard filtration via the standard filtration of the dual.

    The standard chain T_1 < ... < T_n of the transpose dual
    (`_transpose_dual`) is searched, and member j is Ann(T_{n-1-j}), the
    vectors of mod on which T_{n-1-j} vanishes (T_0 = 0).  Annihilators
    reverse inclusions, and Ann(T_{k-1})/Ann(T_k) is the transpose dual
    of T_k/T_{k-1} = V(w, deg), a dual Verma, since mod is the transpose
    dual of its transpose dual.  Only the returned certificate is
    checked, once; the dual's chain is not checked separately.
    """
    dual = _transpose_dual(mod)
    dcert = _standard_chain(dual, deg)
    if dcert is None:
        return None
    below = ([SubmoduleBasis(dual)] + dcert.chain)[:-1]  # T_0 .. T_{n-1}
    chain = [annihilator_basis(mod, t.rows) for t in reversed(below)]
    claims = [("dual-verma", w, deg) for _, w, _ in reversed(dcert.claims)]
    return _verified(FiltrationCertificate(mod, "costandard", deg, chain,
                                           claims), "costandard transport")


# ---------------------------------------------------------------------
# Jordan-Holder multiplicities via socle recursion
# ---------------------------------------------------------------------

def _socle_rows(mod, k, cw):
    """The rows on the block of key k (weight w = k/N) whose common
    kernel is its socle seeds, lazily: E's rows of block w + 2, the
    cached rows N[j] of block w (N = H - w), then the rows of F^cw of
    block w - 2 cw.  The grading supports each on block w, and F^cw is
    applied to the block's basis only if the E and N rows leave a
    kernel."""
    s = mod.session
    blocks = mod.graded_blocks()
    idx = blocks[k]
    chains = mod.nilpotent_chains()
    yield from (mod.matE.rows[i] for i in blocks.get(k + 2 * s.N, []))
    yield from (chains[j][0] for j in idx if chains[j])
    fpow = {j: _word(mod, {j: s.one}, "F" * cw) for j in idx}
    for i in blocks.get(k - 2 * cw * s.N, []):
        yield {j: z[i] for j, z in fpow.items() if i in z}


def _socle_seeds(mod):
    """Per weight: degree-0 highest-weight vectors killed by F^{dim L}.

    Returns (seeds, counts) with sparse seeds.  On the weight-w block the
    seeds are one kernel (`_kernel`) of the rows of E, H - w and
    F^{dim L(w)} there (`_socle_rows`).  _generated saturates the seeds
    into the socle, closed by construction.
    """
    s = mod.session
    seeds = []
    counts = {}
    for k, idx in sorted(mod.graded_blocks().items(), reverse=True):
        w = mod.labels[idx[0]].weight
        cw = simple_dim(s, w)
        ker = _kernel(_socle_rows(mod, k, cw), idx, s.one)
        for vec in ker:
            if cw > 0 and not _word(mod, vec, "F" * (cw - 1)):
                raise DiagnosticError(
                    "socle vector at weight %s dies before F^%d"
                    % (w, cw - 1))
        if ker:
            seeds += ker
            counts[w] = len(ker)
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
        sub = _generated(current, seeds)
        expected = sum(simple_dim(s, w) * c for w, c in counts.items())
        if sub.dim != expected:
            raise DiagnosticError(
                "socle dimension %d does not match %d from counts %s"
                % (sub.dim, expected, counts))
        for w, c in counts.items():
            lab = simple_label(s, w)
            factors[lab] = factors.get(lab, 0) + c
        current = _subquotient(current, sub)[0]
    return factors


# ---------------------------------------------------------------------
# the splitting algorithm for surjections onto typical Vermas
# ---------------------------------------------------------------------

def verma_splitting_section(mod, f, lam, deg):
    """A section g of a surjection f : mod -> V(lam, deg), f*g = id.

    f is a (dim V x dim mod) matrix.  Follows the inductive recursion
    on the extremal operators X+ = E^{r-1}, X- = F^{r-1}: the diagonal
    coefficients of X+X- on the highest-weight chain are invertible
    exactly when lam is typical.  X+X- is applied only to the vectors
    that need it, as one word of F^{r-1} and then E^{r-1} (`_word`), and
    both solves, on X+X- and on f, are `_solve`'s.
    """
    s = mod.session
    lam = s.check_weight(lam)
    if not typicality(s, lam).typical:
        raise RejectedInputError(
            "splitting requires a typical weight, got %s" % (lam,))
    verma = build_generalized_verma(s, lam, deg)
    if not _intertwiner_ok(f, mod, verma):
        raise RejectedInputError("f is not equivariant")
    n = deg + 1
    x_pm = "F" * (s.r - 1) + "E" * (s.r - 1)  # the word of X+X-

    # X+X- v^k is column k of nu, on the chain v^0..v^deg (t = 0); nu is
    # triangular, and c solves nu c = e_deg
    images = [_word(verma, {k: s.one}, x_pm) for k in range(n)]
    for k in range(n):
        if k not in images[k]:
            raise DiagnosticError(
                "diagonal coefficient nu_%d vanishes at typical %s"
                % (k, lam))
    nu = SMat(s, n, n, images).transpose()
    c = _solve(nu.rows, [{}] * deg + [{0: s.one}], n)[0]
    # a preimage u of sum c_k v^k under f's rows on the chain of V
    u = _solve(f.rows[:n], [{0: c.get(k, s.zero)} for k in range(n)],
               mod.dim)
    if u is None:
        raise RejectedInputError("f is not surjective onto the chain")
    g = _verma_map(mod, _word(mod, u[0], x_pm), lam, deg)
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
    quot, push = mod, dict
    if len(cert.chain) > 1:
        quot, qmap = _subquotient(mod, cert.chain[-2])
        push = qmap.push
    u = _chain_top(quot, lam, deg)
    if u is None:
        raise DiagnosticError("top quotient has no highest-weight chain "
                              "at %s" % (lam,))
    g = _verma_map(quot, u, lam, deg)
    # f = g^-1 push: column col of f solves g x = push(e_col), so row al
    # of B is {col: push(e_col)[al]}.  g is square, as the verified
    # certificate makes quot a V(lam, deg), and push is onto quot, so a
    # singular g leaves some column unsolved.
    pushed = SMat(s, mod.dim, quot.dim,
                  [push({col: s.one}) for col in range(mod.dim)]).transpose()
    cols = _solve(g.rows, pushed.rows, g.ncols)
    if cols is None:
        raise DiagnosticError("top quotient chain map is singular")
    f = SMat(s, mod.dim, quot.dim,
             [cols.get(col, {}) for col in range(mod.dim)]).transpose()
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

    One cover is built, and relation-checked by
    build_projective_cover, per atypical weight of the window; an
    untwisted P_i^m the window does not ask for is never built.  Index
    i's chain is searched once, on the first of its covers in the
    window, and every other cover of i gets it by transport
    (_twisted_chain), shifted by the difference of the two weights.
    Every returned certificate is verified once, on its own cover.
    Multiplicities are kept by int weight keys; the cells carry
    Fractions.  The table makes no random choice, so seed is never read.
    """
    from .projectives import build_projective_cover

    weights = [session.check_weight(w) for w in weights]
    keys = [session.weight_key(w) for w in weights]
    labels = [simple_label(session, w) for w in weights]
    chains = {}  # i -> (first weight of i, its standard chain, unverified)
    filt = {}  # key of lam -> {key of mu: filtration multiplicity}
    for lam, key, lab in zip(weights, keys, labels):
        if lab[0] == "M":
            cert = extract_standard_filtration(
                build_generalized_verma(session, lam, m), m)
        else:
            _, i, k = lab
            cover = build_projective_cover(session, i, m, k)
            if i not in chains:
                chains[i] = lam, _standard_chain(cover, m)
            first, cert = chains[i]
            if cert is not None and cert.parent is not cover:
                cert = _twisted_chain(cert, cover, lam - first)
            cert = _verified(cert, "filtration of the cover at %s" % (lam,))
        if cert is None:
            raise DiagnosticError(
                "no standard filtration found for the cover at %s" % (lam,))
        filt[key] = Counter(map(session.weight_key, cert.quotient_weights()))
    jh = {key: jordan_holder(build_generalized_verma(session, mu, 0))
          for mu, key in zip(weights, keys)}
    cells = []
    for lam, key, lab in zip(weights, keys, labels):
        for mu, mkey in zip(weights, keys):
            a = filt[key].get(mkey, 0)
            b = jh[mkey].get(lab, 0)
            cells.append(((lam, mu), a, b, a == b))
    return cells

"""Sparse matrices, and dense exact row reduction over Q(zeta_M)(tau).

The generator matrices of every module here are sparse (a handful of
entries per row), so matrices are stored as per-row dicts with no zero
entries.  A frozen matrix (every generator matrix of a built module)
refuses every write.

This module owns the sparse row arithmetic: `_apply` (a sum of scaled
sparse rows) and `_axpy` (one sparse row plus a multiple of another).
SMat's product, sum and difference are written over them, and so are
the row-wise relation checks of `repmod` and the vector walks of
`structure` and `projectives`.

The library eliminates only in the sparse echelon of
`structure.SubmoduleBasis`.  The dense routines below (rref, nullspace,
invert_dense) work over any field-like element type exposing is_zero /
inv and the arithmetic operators, Scalar and Cyc alike, and are the
tests' independent reference for it.
"""

from __future__ import annotations


def _apply(rows, vec):
    """Sum of vec[k] * rows[k] over the entries of the sparse vector vec,
    with no zero entries: row vector vec times the matrix whose rows are
    `rows`, or equally the matrix whose columns are `rows` applied to
    the column vector vec."""
    acc = {}
    for k, x in vec.items():
        for j, a in rows[k].items():
            t = a * x
            cur = acc.get(j)
            acc[j] = t if cur is None else cur + t
    return {j: y for j, y in acc.items() if not y.is_zero()}


def _axpy(vec, c, other):
    """vec + c * other for sparse vectors, as a new dict."""
    out = dict(vec)
    if c.is_zero():
        return out
    for j, y in other.items():
        t = c * y
        cur = out.get(j)
        if cur is None:
            out[j] = t
            continue
        t = cur + t
        if t.is_zero():
            del out[j]
        else:
            out[j] = t
    return out


def _refuse(self, *args, **kwargs):
    raise TypeError("a frozen matrix row is read-only")


class FrozenRow(dict):
    """A row of a frozen SMat: a dict that refuses every write."""

    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = _refuse
    pop = popitem = clear = update = setdefault = _refuse


class SMat:
    """Sparse matrix over Scalar; no explicit zero entries are stored."""

    __slots__ = ("session", "nrows", "ncols", "rows")

    def __init__(self, session, nrows, ncols, rows=None):
        self.session = session
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    @staticmethod
    def identity(session, n):
        m = SMat(session, n, n)
        for i in range(n):
            m.rows[i][i] = session.one
        return m

    def set(self, i, j, val):
        if val.is_zero():
            self.rows[i].pop(j, None)
        else:
            self.rows[i][j] = val

    def get(self, i, j):
        return self.rows[i].get(j, self.session.zero)

    def add_to(self, i, j, val):
        cur = self.rows[i].get(j)
        new = val if cur is None else cur + val
        self.set(i, j, new)

    def copy(self):
        return SMat(self.session, self.nrows, self.ncols,
                    [dict(r) for r in self.rows])

    def freeze(self):
        """Make the matrix read-only in place: rows become a tuple of
        FrozenRow, frozen ones shared.  Freezing again does nothing."""
        if type(self.rows) is not tuple:
            self.rows = tuple(r if type(r) is FrozenRow else FrozenRow(r)
                              for r in self.rows)
        return self

    def block(self, rows, cols):
        """The submatrix on the given row and column indices."""
        pos = {j: c for c, j in enumerate(cols)}
        out = SMat(self.session, len(rows), len(cols))
        for r, i in enumerate(rows):
            out.rows[r] = {pos[j]: v for j, v in self.rows[i].items()
                           if j in pos}
        return out

    def is_zero(self):
        return all(not r for r in self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, SMat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and tuple(self.rows) == tuple(other.rows)  # list or frozen
        )

    def __add__(self, other):
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        one = self.session.one
        return SMat(self.session, self.nrows, self.ncols,
                    [_axpy(a, one, b) for a, b in zip(self.rows, other.rows)])

    def __sub__(self, other):
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        c = -self.session.one
        return SMat(self.session, self.nrows, self.ncols,
                    [_axpy(a, c, b) for a, b in zip(self.rows, other.rows)])

    def __neg__(self):
        return SMat(self.session, self.nrows, self.ncols,
                    [{j: -v for j, v in r.items()} for r in self.rows])

    def scale(self, sc):
        if sc.is_zero():
            return SMat(self.session, self.nrows, self.ncols)
        return SMat(self.session, self.nrows, self.ncols,
                    [{j: sc * v for j, v in r.items()} for r in self.rows])

    def __matmul__(self, other):
        assert self.ncols == other.nrows
        return SMat(self.session, self.nrows, other.ncols,
                    [_apply(other.rows, r) for r in self.rows])

    def matpow(self, e):
        assert self.nrows == self.ncols
        out = SMat.identity(self.session, self.nrows)
        base = self
        while e > 0:
            if e & 1:
                out = out @ base
            base = base @ base if e > 1 else base
            e >>= 1
        return out

    def transpose(self):
        out = SMat(self.session, self.ncols, self.nrows)
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                out.rows[j][i] = v
        return out

    def kron(self, other):
        """Kronecker product acting on v (x) w by (A v) (x) (B w)."""
        nb, mb = other.nrows, other.ncols
        out = SMat(self.session, self.nrows * nb, self.ncols * mb)
        for i, r in enumerate(self.rows):
            for j, a in r.items():
                for k, rr in enumerate(other.rows):
                    row = out.rows[i * nb + k]
                    for l, b in rr.items():
                        row[j * mb + l] = a * b
        return out

    def apply(self, vec):
        """Matrix-vector product; vec is a dense list of Scalars."""
        z = self.session.zero
        out = [z] * self.nrows
        for i, r in enumerate(self.rows):
            acc = None
            for j, a in r.items():
                vj = vec[j]
                if not vj.is_zero():
                    term = a * vj
                    acc = term if acc is None else acc + term
            if acc is not None:
                out[i] = acc
        return out

    def to_dense(self):
        z = self.session.zero
        return [
            [self.rows[i].get(j, z) for j in range(self.ncols)]
            for i in range(self.nrows)
        ]

    def nnz(self):
        return sum(len(r) for r in self.rows)

    def __repr__(self):
        return "SMat(%dx%d, nnz=%d)" % (self.nrows, self.ncols, self.nnz())


# ---------------------------------------------------------------------
# generic exact row reduction (works over Scalar and over Cyc)
# ---------------------------------------------------------------------

def rref(rows, zero, npivot=None):
    """Reduced row echelon form with unit pivots.

    Takes a list of dense rows (lists of field elements), returns
    (echelon_rows, pivot_cols).  Input rows are not modified.  If npivot
    is given, columns >= npivot are never used as pivots; rows whose
    leading entry falls there are dropped (callers that need them use
    rref_augmented).
    """
    basis, pivots, _ = rref_augmented(rows, zero, npivot)
    return basis, pivots


def rref_augmented(rows, zero, npivot=None):
    """Like rref but also returns the rows supported on columns >= npivot."""
    rows = [list(r) for r in rows if any(not x.is_zero() for x in r)]
    basis, pivots, tail = [], [], []
    for v in rows:
        v = reduce_row(v, basis, pivots)
        p = _leading(v)
        if p is None:
            continue
        if npivot is not None and p >= npivot:
            tail.append(v)
            continue
        inv = v[p].inv()
        v = [zero if x.is_zero() else inv * x for x in v]
        # eliminate this column from existing basis rows
        for b in basis:
            c = b[p]
            if not c.is_zero():
                for j in range(p, len(v)):
                    if not v[j].is_zero():
                        b[j] = b[j] - c * v[j]
        idx = 0
        while idx < len(pivots) and pivots[idx] < p:
            idx += 1
        basis.insert(idx, v)
        pivots.insert(idx, p)
    return basis, pivots, tail


def _leading(v):
    for j, x in enumerate(v):
        if not x.is_zero():
            return j
    return None


def reduce_row(v, basis, pivots):
    """Remainder of v modulo an rref basis (unit pivots)."""
    v = list(v)
    for b, p in zip(basis, pivots):
        c = v[p]
        if not c.is_zero():
            for j in range(p, len(v)):
                if not b[j].is_zero():
                    v[j] = v[j] - c * b[j]
    return v


def nullspace(rows, ncols, zero, one):
    """Basis of the right kernel of the matrix given by dense rows."""
    basis, pivots = rref(rows, zero)
    pivset = set(pivots)
    out = []
    for j in range(ncols):
        if j in pivset:
            continue
        v = [zero] * ncols
        v[j] = one
        for b, p in zip(basis, pivots):
            if not b[j].is_zero():
                v[p] = -b[j]
        out.append(v)
    return out


def invert_dense(rows, zero, one):
    """Inverse of a square dense matrix, or None if singular."""
    n = len(rows)
    aug = [list(r) + [one if i == j else zero for j in range(n)]
           for i, r in enumerate(rows)]
    basis, pivots = rref(aug, zero)
    if pivots[:n] != list(range(n)) or len(basis) != n:
        return None
    return [b[n:] for b in basis]

"""Exact sparse linear algebra over the scalar field: SMat, the sparse
row arithmetic it is written over, the dense reference routines, and the
sparse kernel and solve of `structure` against them."""

import random
from fractions import Fraction

from uqwb.linalg import (
    SMat,
    _apply,
    _axpy,
    invert_dense,
    nullspace,
    rref,
)
from uqwb.structure import _kernel, _solve


def rand_mat(session, rng, n, m, density=0.6):
    out = SMat(session, n, m)
    for i in range(n):
        for j in range(m):
            if rng.random() < density:
                out.set(i, j, session.from_rational(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3))))
    return out


def test_matmul_identity_and_associativity(s5):
    rng = random.Random(2)
    a = rand_mat(s5, rng, 4, 4)
    b = rand_mat(s5, rng, 4, 4)
    c = rand_mat(s5, rng, 4, 4)
    i4 = SMat.identity(s5, 4)
    assert a @ i4 == a
    assert i4 @ a == a
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c


def test_matpow_and_apply(s5):
    rng = random.Random(3)
    a = rand_mat(s5, rng, 4, 4)
    assert a.matpow(3) == a @ a @ a
    v = [s5.from_rational(k) for k in range(4)]
    direct = a.apply(a.apply(v))
    via_pow = a.matpow(2).apply(v)
    assert all((x - y).is_zero() for x, y in zip(direct, via_pow))


def test_kron_mixed_product(s5):
    rng = random.Random(4)
    a = rand_mat(s5, rng, 2, 2)
    b = rand_mat(s5, rng, 3, 3)
    c = rand_mat(s5, rng, 2, 2)
    d = rand_mat(s5, rng, 3, 3)
    assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def test_transpose_antihomomorphism(s5):
    rng = random.Random(5)
    a = rand_mat(s5, rng, 3, 3)
    b = rand_mat(s5, rng, 3, 3)
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def _sparse(vec):
    return {j: x for j, x in enumerate(vec) if not x.is_zero()}


def _no_zero_stored(*vecs):
    return all(not x.is_zero() for v in vecs for x in v.values())


def test_sparse_row_arithmetic(s5):
    """_apply and _axpy against the dense SMat.apply and entrywise sums,
    with no zero entry stored where terms cancel, on empty vectors, and
    SMat's @, + and - (written over them) against dense loops."""
    rng = random.Random(11)
    z, one = s5.zero, s5.one
    q = s5.from_cyc(s5.q_power(1))

    def rand_vec(n):
        return [q * s5.from_rational(Fraction(rng.randint(-3, 3),
                                              rng.randint(1, 2)))
                if rng.random() < 0.5 else z for _ in range(n)]

    a = rand_mat(s5, rng, 5, 4).freeze()
    cols = a.transpose().rows
    for _ in range(8):
        v, u, w = rand_vec(4), rand_vec(5), rand_vec(5)
        got = _apply(cols, _sparse(v))
        assert got == _sparse(a.apply(v)) and _no_zero_stored(got)
        c = s5.from_rational(Fraction(rng.randint(-2, 2), 3))
        got = _axpy(_sparse(u), c, _sparse(w))
        assert got == _sparse([x + c * y for x, y in zip(u, w)])
        assert _no_zero_stored(got)
        sv = _sparse(u)
        assert _axpy(sv, -one, sv) == {}
        assert _axpy(sv, z, _sparse(w)) == sv

    # cancellation: one entry, then every entry
    x, y = q, s5.from_rational(3)
    rows = [{0: x, 1: y}, {0: x, 1: one}, {0: -x}]
    assert _apply(rows, {0: one, 1: -one}) == {1: y - one}
    assert _apply(rows, {0: one, 2: one}) == {1: y}
    assert _apply(rows, {1: one, 2: one}) == {1: one}
    assert _apply(rows[:1], {0: one}) == rows[0]
    assert _apply([rows[0], rows[0]], {0: one, 1: -one}) == {}
    assert _axpy({0: x, 1: y}, -one, {0: x, 2: y}) == {1: y, 2: -y}

    # empty vectors; the result is always a new dict
    assert _apply(rows, {}) == {} and _apply([], {}) == {}
    assert _axpy({}, q, {}) == {} and _axpy({}, q, {0: y}) == {0: q * y}
    src = {0: x}
    out = _axpy(src, q, {})
    assert out == src and out is not src

    # @, + and - against dense loops, cancellation to an empty row too
    b = rand_mat(s5, rng, 4, 3)
    c = rand_mat(s5, rng, 5, 4)
    da, db, dc = a.to_dense(), b.to_dense(), c.to_dense()
    prod = a @ b
    assert prod.to_dense() == [
        [sum((da[i][k] * db[k][j] for k in range(4)), z) for j in range(3)]
        for i in range(5)]
    assert (a + c).to_dense() == [[da[i][j] + dc[i][j] for j in range(4)]
                                  for i in range(5)]
    assert (a - c).to_dense() == [[da[i][j] - dc[i][j] for j in range(4)]
                                  for i in range(5)]
    for m in (prod, a + c, a - c):
        assert _no_zero_stored(*m.rows)
    assert (a - a).rows == [{}] * 5 and (a + (-a)).nnz() == 0
    m = SMat(s5, 1, 2, [{0: one, 1: one}])
    n = SMat(s5, 2, 1, [{0: x}, {0: -x}])
    assert (m @ n).rows == [{}]


def test_rank_nullity(s5):
    rng = random.Random(6)
    for n, m in [(4, 6), (5, 3), (4, 4)]:
        a = rand_mat(s5, rng, n, m, density=0.5)
        rows = a.to_dense()
        rk = len(rref(rows, s5.zero)[0])
        null = nullspace(rows, m, s5.zero, s5.one)
        assert rk + len(null) == m
        for v in null:
            img = a.apply(v)
            assert all(x.is_zero() for x in img)


def test_rref_idempotent(s5):
    rng = random.Random(7)
    a = rand_mat(s5, rng, 4, 5).to_dense()
    rows1, piv1 = rref([list(row) for row in a], s5.zero)
    rows2, piv2 = rref([list(row) for row in rows1], s5.zero)
    assert rows1 == rows2
    assert piv1 == piv2
    for row, p in zip(rows1, piv1):
        assert row[p] == s5.one


def _invertible(s5):
    """A seeded random invertible 4 x 4 matrix and its invert_dense."""
    rng = random.Random(8)
    while True:
        a = rand_mat(s5, rng, 4, 4)
        inv = invert_dense(a.to_dense(), s5.zero, s5.one)
        if inv is not None:
            return a, inv


def test_invert_dense(s5):
    a, inv = _invertible(s5)
    prod = [[sum((a.get(i, k) * inv[k][j] for k in range(4)),
                 s5.zero) for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4):
            expect = s5.one if i == j else s5.zero
            assert prod[i][j] == expect


def _dense_on(vec, idx, zero):
    return [vec.get(i, zero) for i in idx]


def test_kernel_matches_dense_nullspace(s5):
    """_kernel gives exactly the vectors of the dense nullspace, in its
    order: on seeded sparse matrices with a zero row, among them ones of
    full column rank and of rank one short of it, on unknowns that are
    not contiguous (a weight block's indices), and on no rows."""
    rng = random.Random(9)
    z, one = s5.zero, s5.one
    mats = []
    for n, m in [(3, 5), (5, 3), (4, 4), (6, 4), (2, 6), (5, 5)]:
        a = rand_mat(s5, rng, n, m, density=0.5)
        a.rows[rng.randrange(n)] = {}
        mats.append(a)
    short = rand_mat(s5, rng, 5, 4, density=0.8)  # column 2 zero: rank <= 3
    short.rows = [{j: x for j, x in r.items() if j != 2} for r in short.rows]
    mats.append(short)
    ranks = set()
    for a in mats:
        ref = nullspace(a.to_dense(), a.ncols, z, one)
        ranks.add((a.ncols, a.ncols - len(ref)))
        got = _kernel(a.rows, range(a.ncols), one)
        assert [_dense_on(v, range(a.ncols), z) for v in got] == ref
        idx = sorted(rng.sample(range(3 * a.ncols), a.ncols))
        rows = [{idx[j]: x for j, x in r.items()} for r in a.rows]
        got = _kernel(iter(rows), idx, one)
        assert [_dense_on(v, idx, z) for v in got] == ref
        assert all(set(v) <= set(idx) for v in got)
    assert {m - rk for m, rk in ranks} >= {0, 1, 2}  # nullities seen
    assert _kernel([], [3, 7], one) == [{3: one}, {7: one}]
    assert _kernel([], [], one) == []


def test_kernel_stops_at_full_column_rank(s5):
    """Once every unknown is a pivot the kernel is 0 and no further row is
    read, so a lazy row source is not run past that point."""
    one = s5.one

    def rows():
        yield {}
        yield {2: one, 9: one}
        yield {5: one, 9: one}
        yield {9: one}
        raise AssertionError("a row read after full column rank")

    assert _kernel(rows(), [2, 5, 9], one) == []


def test_sparse_solve(s5):
    """_solve reads A X = B off the sparse echelon of [A | B]: the system
    and assertion of the dense solve it replaced, the same x as
    invert_dense's inverse times b, that inverse itself, and None for an
    inconsistent system."""
    a, inv = _invertible(s5)
    z, one = s5.zero, s5.one
    rhs = [s5.from_rational(k + 1) for k in range(4)]
    x = _solve(a.rows, [{0: b} for b in rhs], 4)[0]
    x = _dense_on(x, range(4), z)
    img = a.apply(x)
    assert all((u - v).is_zero() for u, v in zip(img, rhs))
    assert x == [sum((inv[i][k] * rhs[k] for k in range(4)), z)
                 for i in range(4)]
    cols = _solve(a.rows, [{k: one} for k in range(4)], 4)
    assert [_dense_on(cols[k], range(4), z) for k in range(4)] == [
        [inv[i][k] for i in range(4)] for k in range(4)]
    # a target of 0 solves to the zero vector
    assert _solve(a.rows, [{0: z}] * 4, 4) == {0: {}}
    singular = SMat(s5, 3, 3, [{0: one}, {1: one}, {}])
    assert _solve(singular.rows, [{k: one} for k in range(3)], 3) is None
    # consistent with free unknowns: x is 0 on them
    wide = [{0: one, 1: one}, {2: one}]
    assert _solve(wide, [{0: one}, {0: s5.from_rational(3)}], 3) == {
        0: {0: one, 2: s5.from_rational(3)}}


def test_singular_matrix_detected(s5):
    a = SMat(s5, 3, 3)
    a.set(0, 0, s5.one)
    a.set(1, 1, s5.one)  # rank 2
    assert invert_dense(a.to_dense(), s5.zero, s5.one) is None

"""Exact sparse linear algebra over the scalar field."""

import random
from fractions import Fraction

from uqwb.linalg import (
    SMat,
    invert_dense,
    nullspace,
    rank,
    rref,
    solve,
)


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


def test_rank_nullity(s5):
    rng = random.Random(6)
    for n, m in [(4, 6), (5, 3), (4, 4)]:
        a = rand_mat(s5, rng, n, m, density=0.5)
        rows = a.to_dense()
        rk = rank(rows, s5.zero)
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


def test_solve_and_invert(s5):
    rng = random.Random(8)
    while True:
        a = rand_mat(s5, rng, 4, 4)
        inv = invert_dense(a.to_dense(), s5.zero, s5.one)
        if inv is not None:
            break
    prod = [[sum((a.get(i, k) * inv[k][j] for k in range(4)),
                 s5.zero) for j in range(4)] for i in range(4)]
    for i in range(4):
        for j in range(4):
            expect = s5.one if i == j else s5.zero
            assert prod[i][j] == expect
    rhs = [s5.from_rational(k + 1) for k in range(4)]
    sols = solve(a.to_dense(), [rhs], s5.zero, s5.one)
    x = sols[0]
    assert x is not None
    img = a.apply(x)
    assert all((u - v).is_zero() for u, v in zip(img, rhs))


def test_singular_matrix_detected(s5):
    a = SMat(s5, 3, 3)
    a.set(0, 0, s5.one)
    a.set(1, 1, s5.one)  # rank 2
    assert invert_dense(a.to_dense(), s5.zero, s5.one) is None

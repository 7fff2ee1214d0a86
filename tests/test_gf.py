import numpy as np
import pytest

from psmt import gf


# independent polynomial-reduction oracle for extension field products
def mul_oracle(f, a, b):
    p, m = f.p, f.m
    da = [(a // p**i) % p for i in range(m)]
    db = [(b // p**i) % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i in range(m):
        for j in range(m):
            prod[i + j] = (prod[i + j] + da[i] * db[j]) % p
    mod = list(f.modulus)
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        prod[d] = 0
        for j in range(m + 1):
            if d - m + j < len(prod):
                prod[d - m + j] = (prod[d - m + j] - c * mod[j]) % p
    return sum(prod[i] * p**i for i in range(m))


def add_oracle(f, a, b):
    p, m = f.p, f.m
    return sum((((a // p**i) + (b // p**i)) % p) * p**i for i in range(m))


SMALL_FIELDS = [
    gf.field(2),
    gf.field(3),
    gf.field(5),
    gf.field(7),
    gf.field(13),
    gf.field(2, 2),
    gf.field(2, 3, (1, 1, 0, 1)),
    gf.field(3, 2, (1, 0, 1)),
    gf.field(2, 4),
]


def test_next_prime_above():
    assert gf.next_prime_above(1) == 2
    assert gf.next_prime_above(3) == 5
    assert gf.next_prime_above(5) == 7
    assert gf.next_prime_above(7) == 11
    assert gf.next_prime_above(11) == 13
    assert gf.next_prime_above(23) == 29


def test_field_of_order():
    assert isinstance(gf.field_of_order(7), gf.PrimeField)
    f16 = gf.field_of_order(16)
    assert f16.p == 2 and f16.m == 4
    with pytest.raises(ValueError):
        gf.field_of_order(6)


def test_construction_errors():
    with pytest.raises(ValueError):
        gf.field(4)
    with pytest.raises(ValueError):
        gf.field(2, 3, (1, 0, 0, 1))  # x^3 + 1 factors
    with pytest.raises(ValueError):
        gf.field(2, 3, (1, 1, 0, 1, 0))  # wrong degree
    with pytest.raises(ValueError):
        gf.field(5, modulus=(1, 1))


def test_default_modulus_is_smallest():
    assert gf.default_modulus(2, 3) == (1, 1, 0, 1)
    assert gf.default_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert gf.field(3, 2).modulus == (1, 0, 1)


@pytest.mark.parametrize("f", [gf.field(2, 3, (1, 1, 0, 1)), gf.field(3, 2, (1, 0, 1))])
def test_mul_table_matches_polynomial_reduction(f):
    # exhaustive check of the exp/log based product in F_8 and F_9
    for a in f.elements():
        for b in f.elements():
            assert f.mul(a, b) == mul_oracle(f, a, b)
            assert f.add(a, b) == add_oracle(f, a, b)


def test_known_products_f8():
    f = gf.field(2, 3, (1, 1, 0, 1))
    x, x2 = 2, 4
    assert f.mul(x, x2) == 3  # x^3 = x + 1
    assert f.mul(x2, x2) == f.mul(x, f.mul(x, x2))


@pytest.mark.parametrize("f", SMALL_FIELDS)
def test_field_axioms_exhaustive(f):
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
    for a in els:
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    rng = np.random.default_rng(7)
    triples = rng.integers(0, f.q, size=(200, 3))
    for a, b, c in triples:
        a, b, c = int(a), int(b), int(c)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("f", SMALL_FIELDS)
def test_vector_ops_match_scalar(f):
    rng = np.random.default_rng(11)
    a = f.random(rng, (50,))
    b = f.random(rng, (50,))
    va = f.vadd(a, b)
    vm = f.vmul(a, b)
    vn = f.vneg(a)
    vs = f.vsub(a, b)
    for i in range(50):
        ai, bi = int(a[i]), int(b[i])
        assert int(va[i]) == f.add(ai, bi)
        assert int(vm[i]) == f.mul(ai, bi)
        assert int(vn[i]) == f.neg(ai)
        assert int(vs[i]) == f.sub(ai, bi)
    nz = a[a != 0]
    vi = f.vinv(nz)
    for i in range(len(nz)):
        assert int(vi[i]) == f.inv(int(nz[i]))


def test_zero_inverse_raises():
    for f in (gf.field(5), gf.field(2, 3, (1, 1, 0, 1))):
        with pytest.raises(ZeroDivisionError):
            f.inv(0)
        with pytest.raises(ZeroDivisionError):
            f.vinv(np.array([1, 0, 2]))


def test_element_wrapper():
    f = gf.field(7)
    a, b = f(3), f(5)
    assert (a + b).value == 1
    assert (a * b).value == 1
    assert (a - b).value == 5
    assert (-a).value == 4
    assert (a / b).value == f.div(3, 5)
    assert (a**3).value == 6
    assert a + 4 == 0
    g = gf.field(5)
    with pytest.raises(ValueError):
        _ = a + g(1)
    with pytest.raises(ValueError):
        f(9)


def test_pow_negative_exponent():
    f = gf.field(11)
    for a in range(1, 11):
        assert f.mul(f.pow(a, -1), a) == 1
        assert f.pow(a, -2) == f.inv(f.mul(a, a))


@pytest.mark.parametrize("f", [gf.field(5), gf.field(2, 3, (1, 1, 0, 1))])
def test_rref_and_rank(f):
    rng = np.random.default_rng(3)
    for _ in range(30):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        M = f.random(rng, (rows, cols))
        R, piv = gf.rref(f, M)
        # pivots are unit columns, rank consistent
        for r, c in enumerate(piv):
            col = np.zeros(rows, dtype=np.int64)
            col[r] = 1
            assert np.array_equal(R[:, c], col)
        assert gf.mat_rank(f, M) == len(piv)
        assert gf.mat_rank(f, R) == len(piv)


@pytest.mark.parametrize("f", [gf.field(7), gf.field(3, 2, (1, 0, 1))])
def test_solve_right(f):
    rng = np.random.default_rng(5)
    for _ in range(40):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 6))
        A = f.random(rng, (rows, cols))
        x_true = f.random(rng, (cols,))
        b = f.vdot(A, x_true[None, :].repeat(rows, axis=0))
        x, ok = gf.solve_right(f, A, b)
        assert ok
        assert np.array_equal(f.vdot(A, np.broadcast_to(x, (rows, cols))), b)
    # an inconsistent system
    A = np.array([[1, 0], [1, 0]], dtype=np.int64)
    b = np.array([1, 2], dtype=np.int64)
    _, ok = gf.solve_right(f, A, b)
    assert not ok


@pytest.mark.parametrize("f", [gf.field(5), gf.field(2, 2)])
def test_null_space(f):
    rng = np.random.default_rng(9)
    for _ in range(30):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 6))
        A = f.random(rng, (rows, cols))
        N = gf.null_space(f, A)
        assert N.shape[0] == cols - gf.mat_rank(f, A)
        if N.shape[0]:
            prod = gf.mat_mul(f, A, N.T)
            assert not np.any(prod)
            assert gf.mat_rank(f, N) == N.shape[0]


@pytest.mark.parametrize("f", [gf.field(5), gf.field(2, 3, (1, 1, 0, 1))])
def test_solve_batched_matches_single(f):
    rng = np.random.default_rng(13)
    B, rows, cols = 40, 5, 4
    A = f.random(rng, (B, rows, cols))
    b = f.random(rng, (B, rows))
    X, ok = gf.solve_batched(f, A, b)
    for i in range(B):
        xi, oki = gf.solve_right(f, A[i], b[i])
        assert ok[i] == oki
        if oki:
            got = f.vdot(A[i], np.broadcast_to(X[i], (rows, cols)))
            assert np.array_equal(got, b[i])


def test_mat_mul_agrees_across_backends():
    rng = np.random.default_rng(17)
    for f in (gf.field(13), gf.field(2, 4)):
        A = f.random(rng, (4, 6))
        B = f.random(rng, (6, 3))
        got = gf.mat_mul(f, A, B)
        for i in range(4):
            for j in range(3):
                acc = 0
                for k in range(6):
                    acc = f.add(acc, f.mul(int(A[i, k]), int(B[k, j])))
                assert int(got[i, j]) == acc


def test_frobenius_is_additive():
    f = gf.field(2, 4)
    for a in f.elements():
        for b in f.elements():
            assert f.frob(f.add(a, b)) == f.add(f.frob(a), f.frob(b))
    arr = np.arange(16, dtype=np.int64)
    assert np.array_equal(f.vfrob(arr), np.array([f.frob(int(v)) for v in arr]))


def test_prime_field_size_limit():
    f = gf.field(2147483647)  # 2^31 - 1, the largest accepted prime
    assert f.chunk == 2
    with pytest.raises(ValueError):
        gf.field(4294967311)  # the smallest prime above 2^32


def test_large_prime_sums_reduce_between_terms():
    # products near 2^62 in a 2^31 - 1 field: one sum of two of them
    # already leaves int64, so the kernels must reduce as they go
    f = gf.field(2147483647)
    rng = np.random.default_rng(31)
    A = f.random(rng, (5, 9))
    A[0] = f.q - 1
    B = f.random(rng, (9, 4))
    B[:, 0] = f.q - 1
    got = gf.mat_mul(f, A, B)
    dots = f.vdot(A[:, None, :], B.T[None, :, :])
    for i in range(5):
        for j in range(4):
            want = sum(int(A[i, k]) * int(B[k, j]) for k in range(9)) % f.q
            assert int(got[i, j]) == want and int(dots[i, j]) == want

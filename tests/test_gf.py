import numpy as np
import pytest

from psmt import gf
from helpers import (
    CODE_FIELDS,
    add_oracle,
    elements,
    inv_oracle,
    mul_oracle,
    neg_oracle,
    pow_oracle,
    sub_oracle,
)


def _check_v_ops(f, a, b, c):
    """Every v-op of f on the element arrays a, b and c, entry by entry,
    against the scalar oracle of tests/helpers.py."""

    def want(op, *cols):
        return [op(f, *xs) for xs in zip(*cols)]

    ab = want(mul_oracle, a, b)
    assert f.vadd(a, b).tolist() == want(add_oracle, a, b)
    assert f.vsub(a, b).tolist() == want(sub_oracle, a, b)
    assert f.vneg(a).tolist() == want(neg_oracle, a)
    assert f.vmul(a, b).tolist() == ab
    assert f.vsubmul(c, a, b).tolist() == want(sub_oracle, c, ab)
    # rows (a, b, c) . (b, c, a)
    dots = want(add_oracle, want(add_oracle, ab, want(mul_oracle, b, c)), want(mul_oracle, c, a))
    assert f.vdot(np.stack([a, b, c], axis=1), np.stack([b, c, a], axis=1)).tolist() == dots
    distinct = np.unique(a)
    nonzero = distinct[distinct != 0]
    assert f.vinv(nonzero).tolist() == want(inv_oracle, nonzero)
    if f.deg > 1:
        assert f.vfrob(distinct).tolist() == [pow_oracle(f, x, f.p) for x in distinct]


def _all_triples(f):
    return [g.ravel() for g in np.meshgrid(*[np.arange(f.q, dtype=np.int64)] * 3, indexing="ij")]


SMALL_FIELDS = [
    gf.field(2),
    gf.field(3),
    gf.field(5),
    gf.field(7),
    gf.field(13),
    gf.field(2, 2),
    gf.field(2, 3),
    gf.field(3, 2),
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
    with pytest.raises(ValueError):
        gf.field_of_order(1)
    # trial division stops at sqrt(q), about 3,200 steps for this prime
    assert gf.field_of_order(10000019).p == 10000019
    f3 = gf.field_of_order(3**5)
    assert (f3.p, f3.m) == (3, 5)


def test_construction_errors():
    with pytest.raises(ValueError):
        gf.field(4)
    with pytest.raises(ValueError, match="characteristic 4"):
        gf.field(4, 2)
    with pytest.raises(ValueError, match="at least 2"):
        gf.ExtensionField(5, 1)
    with pytest.raises(ValueError, match="table limit"):
        gf.field(2, 21)


def test_default_modulus_is_smallest():
    assert gf.default_modulus(2, 3) == (1, 1, 0, 1)
    assert gf.default_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert gf.field(3, 2).modulus == (1, 0, 1)


@pytest.mark.parametrize("f", [gf.field(2, 3), gf.field(3, 2), gf.field(2, 4), gf.field(3, 3)])
def test_mul_table_matches_polynomial_reduction(f):
    # every v-op in F_8, F_9, F_16 and F_27, exhaustively: vsubmul and vdot
    # on every triple of elements, and so the others on every pair
    assert f._mul_table is not None
    _check_v_ops(f, *_all_triples(f))


def test_known_products_f8():
    f = gf.field(2, 3)
    x, x2 = 2, 4
    assert f.vmul(x, x2) == 3  # x^3 = x + 1
    assert f.vmul(x2, x2) == f.vmul(x, f.vmul(x, x2))


@pytest.mark.parametrize("f", SMALL_FIELDS)
def test_field_axioms_exhaustive(f):
    els = np.arange(f.q, dtype=np.int64)
    assert np.array_equal(f.vadd(els, 0), els)
    assert np.array_equal(f.vmul(els, 1), els)
    assert not f.vmul(els, 0).any()
    assert not f.vadd(els, f.vneg(els)).any()
    assert np.all(f.vmul(els[1:], f.vinv(els[1:])) == 1)
    a, b, c = _all_triples(f)
    assert np.array_equal(f.vadd(a, b), f.vadd(b, a))
    assert np.array_equal(f.vmul(a, b), f.vmul(b, a))
    assert np.array_equal(f.vadd(f.vadd(a, b), c), f.vadd(a, f.vadd(b, c)))
    assert np.array_equal(f.vmul(f.vmul(a, b), c), f.vmul(a, f.vmul(b, c)))
    assert np.array_equal(f.vmul(a, f.vadd(b, c)), f.vadd(f.vmul(a, b), f.vmul(a, c)))


@pytest.mark.parametrize("f", SMALL_FIELDS)
def test_vector_ops_match_scalar(f):
    rng = np.random.default_rng(11)
    _check_v_ops(f, *f.random(rng, (3, 50)))


@pytest.mark.parametrize("p,m", [(2, 11), (3, 7)])
def test_vector_ops_past_the_table_size(p, m):
    # q > 1024: no product, sum or negation table, so vmul, vadd and vneg
    # take _vmul_logs, _vadd_digits and _vneg_digits
    f = gf.field(p, m)
    assert f._mul_table is None and f._add_table is None and f._neg_table is None
    a, b, c = f.random(np.random.default_rng([p, m]), (3, 400))
    a[:3], b[:3] = [0, 1, f.q - 1], [f.q - 1, 0, f.q - 1]
    _check_v_ops(f, a, b, c)


def test_zero_inverse_raises():
    for f in (gf.field(5), gf.field(2, 3), gf.field(2, 4),
              gf.field(2147483647)):
        for a in ([1, 0, 2], [[1, 2], [3, 0]], [0], 0):
            with pytest.raises(ZeroDivisionError):
                f.vinv(np.array(a))
        assert f.vinv(np.array([], dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("f", CODE_FIELDS + [gf.field(2147483647)], ids=repr)
def test_vsubmul_matches_vsub_of_vmul(f):
    # c - a*b in one call, elementwise and broadcast as in the elimination
    # and Berlekamp-Massey updates, with the extremes c = 0, a = b = q - 1;
    # 1,800 entries, so F_p reduces by floor division, and rows of 9 by %
    rng = np.random.default_rng(f.q % 1000)
    top = f.q - 1
    c = f.random(rng, (200, 9))
    a = f.random(rng, (200, 1))
    b = f.random(rng, (1, 9))
    c[0], a[:2], b[0, :2] = 0, top, top
    c[1, 0] = top
    for args in ((c, a, b), (c[:, 0], a[:, 0], b[0, 0]), (c[0], np.int64(top), b[0])):
        got = f.vsubmul(*args)
        want = f.vsub(args[0], f.vmul(args[1], args[2]))
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.min() >= 0 and got.max() < f.q


@pytest.mark.parametrize("f", [gf.field(5), gf.field(2, 3)])
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


@pytest.mark.parametrize("f", [gf.field(7), gf.field(3, 2)])
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


def solve_right_oracle(f, A, b):
    """The elimination of [A | b] itself, carrying every column of b through
    every pivot: the reference for the factor-once solve_right."""
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    single = b.ndim == 1
    b2 = b[:, None] if single else b
    ncols = A.shape[1]
    aug = np.concatenate([A, b2], axis=1)
    pivots = gf._eliminate(f, aug, ncols)
    zero_rows = ~np.any(aug[:, :ncols] != 0, axis=1)
    if zero_rows.any():
        ok = ~np.any(aug[zero_rows][:, ncols:] != 0, axis=0)
    else:
        ok = np.ones(b2.shape[1], dtype=bool)
    x = f.zeros((ncols, b2.shape[1]))
    for row, col in enumerate(pivots):
        x[col] = aug[row, ncols:]
    if single:
        return x[:, 0], bool(ok[0])
    return x, ok


@pytest.mark.parametrize("f", [gf.field(13), gf.field(3, 2)])
def test_solve_right_matches_oracle(f):
    # wide right-hand sides (columns >> rows), rank-deficient A, and columns
    # mixing consistent (b in the column space) and inconsistent ones
    rng = np.random.default_rng(19)
    seen_ok = seen_bad = 0
    for trial in range(60):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        A = gf.mat_mul(f, f.random(rng, (rows, rank)), f.random(rng, (rank, cols)))
        width = int(rng.integers(1, 300)) if trial % 2 else int(rng.integers(1, 4))
        b = gf.mat_mul(f, A, f.random(rng, (cols, width)))
        off = rng.random(width) < 0.5
        b[:, off] = f.vadd(b[:, off], f.random(rng, (rows, int(off.sum()))))
        x, ok = gf.solve_right(f, A, b)
        want_x, want_ok = solve_right_oracle(f, A, b)
        assert x.tobytes() == want_x.tobytes() and ok.tobytes() == want_ok.tobytes()
        assert ok.dtype == want_ok.dtype and x.shape == want_x.shape
        assert np.array_equal(gf.mat_mul(f, A, x)[:, ok], b[:, ok])
        seen_ok += int(ok.sum())
        seen_bad += int((~ok).sum())
        x1, ok1 = gf.solve_right(f, A, b[:, 0])
        want_x1, want_ok1 = solve_right_oracle(f, A, b[:, 0])
        assert x1.tobytes() == want_x1.tobytes() and ok1 is want_ok1
    assert seen_ok > 100 and seen_bad > 100


@pytest.mark.parametrize("f", [gf.field(5), gf.field(2, 2)])
def test_null_space(f):
    rng = np.random.default_rng(9)
    for _ in range(30):
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 6))
        A = f.random(rng, (rows, cols))
        N = gf.null_space(f, A)
        assert N.shape[0] == cols - gf.mat_rank(f, A)
        # the element-by-element fill from the RREF, as the reference
        R, pivots = gf.rref(f, A)
        ref = f.zeros((N.shape[0], cols))
        for i, fc in enumerate(c for c in range(cols) if c not in pivots):
            ref[i, fc] = 1
            for row, pc in enumerate(pivots):
                ref[i, pc] = neg_oracle(f, R[row, fc])
        assert np.array_equal(N, ref)
        if N.shape[0]:
            prod = gf.mat_mul(f, A, N.T)
            assert not np.any(prod)
            assert gf.mat_rank(f, N) == N.shape[0]


@pytest.mark.parametrize("f", [gf.field(5), gf.field(2, 3)])
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
                    acc = add_oracle(f, acc, mul_oracle(f, A[i, k], B[k, j]))
                assert int(got[i, j]) == acc


def test_frobenius_is_additive():
    # vfrob(a) is a^p, three of them a^(p^3), and the Frobenius map is additive
    f = gf.field(2, 4)
    arr = np.arange(16, dtype=np.int64)
    frob = f.vfrob(arr)
    assert frob.tolist() == [pow_oracle(f, v, 2) for v in arr]
    assert f.vfrob(f.vfrob(frob)).tolist() == [pow_oracle(f, v, 8) for v in arr]
    for a in elements(f):
        for b in elements(f):
            assert frob[add_oracle(f, a, b)] == add_oracle(f, frob[a], frob[b])


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


def mat_mul_oracle(f, A, B):
    """The int64 product over chunks of f.chunk columns with `%` between
    them, for a prime field: the reference for both mat_mul paths."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    c = f.chunk
    out = (A[:, :c] @ B[:c]) % f.p
    for i in range(c, A.shape[1], c):
        out = (out + (A[:, i : i + c] @ B[i : i + c]) % f.p) % f.p
    return out


def _edge_entries(f, rng, shape):
    """Entries drawn from 0, 1, p-2 (odd), p-1, their negatives and uniform
    elements, so every |x| < p."""
    p = f.p
    pool = np.array([0, 1, p - 2, p - 1, -1, -(p - 2), -(p - 1)], dtype=np.int64)
    pick = rng.integers(0, len(pool) + 1, size=shape)
    out = f.random(rng, shape)
    fixed = pick < len(pool)
    out[fixed] = pool[pick[fixed]]
    return out


# (rows, K, cols): multiply-adds on both sides of 4,096, with K on both sides
# of the exactness bound of the two large primes below
_SHAPES = [(63, 1, 65), (64, 1, 64), (23, 2, 89), (32, 2, 64), (35, 3, 39),
           (2, 3, 683), (300, 3, 40), (40, 47, 24), (1, 47, 3)]


@pytest.mark.parametrize("p,fchunk", [(29, 2**53 // 28**2), (67108859, 2),
                                      (94906249, 1), (2147483647, 0)])
def test_mat_mul_matches_int64_oracle(p, fchunk):
    f = gf.field(p)
    assert f.fchunk == fchunk
    rng = np.random.default_rng(p % 1000)
    for rows, k, cols in _SHAPES:
        A = _edge_entries(f, rng, (rows, k))
        B = _edge_entries(f, rng, (k, cols))
        # out[0, 0] is (p-2) ((p-2) + (k-1)(p-1)): odd, and above 2^53
        # once k exceeds the bound, so a float64 sum cannot hold it
        A[0] = p - 1
        A[0, 0] = p - 2
        B[:, 0] = p - 2
        got = gf.mat_mul(f, A, B)
        want = mat_mul_oracle(f, A, B)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_mat_mul_takes_float_path_from_threshold(monkeypatch):
    # with the exactness bound raised past the truth, the float64 path
    # shows itself by rounding: from 4,096 multiply-adds on, and not below
    f = gf.field(67108859)
    monkeypatch.setattr(f, "fchunk", 3)
    p = f.p
    for rows, cols, exact in [(35, 39, True), (2, 683, False)]:
        A = np.full((rows, 3), p - 1, dtype=np.int64)
        A[:, 0] = p - 2
        B = np.full((3, cols), p - 2, dtype=np.int64)
        same = gf.mat_mul(f, A, B).tobytes() == mat_mul_oracle(f, A, B).tobytes()
        assert same == exact


@pytest.mark.parametrize("p", [2, 5, 29, 67108859, 2147483647])
@pytest.mark.parametrize("size", [1, 1023, 1024, 5000])
def test_vector_ops_match_remainder_oracle(p, size):
    # the v-ops against their bodies with one `%`, on both sides of the
    # 1,024 elements where the reduction changes form, with negative inputs
    f = gf.field(p)
    rng = np.random.default_rng([p % 1000, size])
    a = _edge_entries(f, rng, (size,))
    b = _edge_entries(f, rng, (size,))
    cases = [
        (f.vadd(a, b), (a + b) % p),
        (f.vsub(a, b), (a - b) % p),
        (f.vmul(a, b), (a * b) % p),
        (f.vneg(a), (-a) % p),
    ]
    for got, want in cases:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # sums of products, the largest values the field's kernels reduce
    top = f.chunk * (p - 1) ** 2
    big = rng.integers(-top, top, size=size, dtype=np.int64, endpoint=True)
    big[:2] = [-top, top][:size]
    assert gf._mod(big, p).tobytes() == (big % p).tobytes()
    # vdot on rows of three, and along one long row
    A = _edge_entries(f, rng, (size, 3))
    B = _edge_entries(f, rng, (size, 3))
    want = [sum(int(x) * int(y) for x, y in zip(r, s)) % p for r, s in zip(A, B)]
    assert f.vdot(A, B).tolist() == want
    assert int(f.vdot(a, b)) == sum(int(x) * int(y) for x, y in zip(a, b)) % p


def test_reduction_form_switches_at_1024_elements():
    # the vectorised floor division takes over from `%` at 1,024 elements
    f = gf.field(29)
    seen = []

    class Spy(np.ndarray):
        def __mod__(self, other):
            seen.append("%")
            return super().__mod__(other)

        def __floordiv__(self, other):
            seen.append("//")
            return super().__floordiv__(other)

    for size, form in [(1023, "%"), (1024, "//")]:
        a = np.arange(size, dtype=np.int64).view(Spy)
        for op in (lambda: f.vadd(a, a), lambda: f.vsub(a, a),
                   lambda: f.vmul(a, a), lambda: f.vneg(a)):
            seen.clear()
            op()
            assert seen == [form]

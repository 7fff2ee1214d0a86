import itertools

import numpy as np
import pytest

from psmt import gf, mds, rankmetric
from helpers import (
    _berlekamp_massey_oracle,
    _poly_mul_oracle,
    contains,
    mul_oracle,
    neg_oracle,
    unique_decode,
    unique_decode_oracle,
)


def all_codewords(code):
    msgs = np.array(
        list(itertools.product(range(code.field.q), repeat=code.k)), dtype=np.int64
    )
    return code.encode(msgs)


def brute_nearest(code, y, table=None, radius=None):
    """Oracle: closest word of table (by default every codeword) within
    radius (by default the code's unique-decoding radius), else None."""
    if table is None:
        table = all_codewords(code)
    if radius is None:
        radius = code.radius
    dists = np.count_nonzero(table != np.asarray(y)[None, :], axis=1)
    i = int(np.argmin(dists))
    if dists[i] <= radius:
        return table[i]
    return None


def test_build_validation():
    f = gf.field(5)
    with pytest.raises(ValueError):
        mds.ReedSolomonCode(5, 2, f)  # needs 5 nonzero points, F_5 has 4
    with pytest.raises(ValueError):
        mds.ReedSolomonCode(3, 4, f)
    with pytest.raises(ValueError):
        mds.ReedSolomonCode(3, 0, f)


def test_encode_frozen_values():
    code = mds.ReedSolomonCode(3, 2, gf.field(5))
    assert np.array_equal(code.points, [1, 2, 3])
    assert np.array_equal(code.encode([1, 1]), [2, 3, 4])
    assert np.array_equal(code.encode([0, 1]), [1, 2, 3])
    assert np.array_equal(code.encode([[1, 0], [2, 3]]), [[1, 1, 1], [0, 3, 1]])


@pytest.mark.parametrize(
    "n,k,q",
    [(3, 2, 5), (4, 2, 5), (5, 3, 7), (5, 1, 7), (6, 3, 7), (3, 3, 5), (7, 4, 8)],
)
def test_parity_annihilates_and_min_distance(n, k, q):
    code = mds.ReedSolomonCode(n, k, gf.field_of_order(q))
    table = all_codewords(code)
    assert not np.any(code.syndrome(table))
    if k < n:
        weights = np.count_nonzero(table, axis=1)
        assert weights[np.any(table != 0, axis=1)].min() == n - k + 1
    assert code.d == n - k + 1


def test_syndrome_zero_iff_codeword():
    code = mds.ReedSolomonCode(4, 2, gf.field(5))
    cws = {tuple(map(int, c)) for c in all_codewords(code)}
    for y in itertools.product(range(5), repeat=4):
        word = np.array(y, dtype=np.int64)
        assert (not np.any(code.syndrome(word))) == (tuple(y) in cws)


def test_empty_parity_check():
    code = mds.ReedSolomonCode(3, 3, gf.field(5))
    assert code.H.shape == (0, 3)
    assert code.d == 1
    y = np.array([4, 0, 2], dtype=np.int64)
    x, e = unique_decode(code, y)
    assert np.array_equal(x, y) and not np.any(e)


def test_random_codeword_uniform():
    code = mds.ReedSolomonCode(3, 2, gf.field(5))
    rng = np.random.default_rng(42)
    draws = code.random_codeword(rng, 10000)
    keys = draws[:, 0] * 25 + draws[:, 1] * 5 + draws[:, 2]
    table = all_codewords(code)
    valid = set((table[:, 0] * 25 + table[:, 1] * 5 + table[:, 2]).tolist())
    counts = {}
    for v in keys.tolist():
        counts[v] = counts.get(v, 0) + 1
    assert set(counts) <= valid
    # each of the 25 codewords within 5 sigma of the uniform expectation
    p = 1 / 25
    sigma = (10000 * p * (1 - p)) ** 0.5
    for v in valid:
        assert abs(counts.get(v, 0) - 10000 * p) <= 5 * sigma


def test_unique_decode_all_single_errors():
    code = mds.ReedSolomonCode(5, 3, gf.field(7))
    assert code.radius == 1
    table = all_codewords(code)
    rng = np.random.default_rng(1)
    picks = rng.choice(len(table), size=60, replace=False)
    for ci in picks:
        c = table[ci]
        out = unique_decode(code, c)
        assert out is not None and np.array_equal(out[0], c)
        for pos in range(5):
            for val in range(1, 7):
                y = c.copy()
                y[pos] = (y[pos] + val) % 7
                x, e = unique_decode(code, y)
                assert np.array_equal(x, c)
                assert np.count_nonzero(e) == 1 and e[pos] == val


def test_unique_decode_matches_oracle_random_words():
    code = mds.ReedSolomonCode(5, 3, gf.field(7))
    table = all_codewords(code)
    rng = np.random.default_rng(2)
    words = rng.integers(0, 7, size=(500, 5)).astype(np.int64)
    X, E, ok = code.unique_decode_batch(words)
    for i, y in enumerate(words):
        want = brute_nearest(code, y, table)
        if want is None:
            assert not ok[i]
        else:
            assert ok[i]
            assert np.array_equal(X[i], want)
            assert np.array_equal(gf.field(7).vadd(X[i], E[i]) % 7, y)


def test_radius_zero_code():
    # [3,2] over F_5 has d = 2, radius 0: decode only exact codewords
    code = mds.ReedSolomonCode(3, 2, gf.field(5))
    table = all_codewords(code)
    cws = {tuple(map(int, c)) for c in table}
    for y in itertools.product(range(5), repeat=3):
        out = unique_decode(code, np.array(y, dtype=np.int64))
        if tuple(y) in cws:
            assert out is not None and np.array_equal(out[0], np.array(y))
        else:
            assert out is None


def test_decode_beyond_radius_never_lies():
    # whenever decoding succeeds the output is a codeword within the radius
    code = mds.ReedSolomonCode(7, 3, gf.field(11))
    rng = np.random.default_rng(3)
    words = rng.integers(0, 11, size=(400, 7)).astype(np.int64)
    X, E, ok = code.unique_decode_batch(words)
    for i in range(400):
        if ok[i]:
            assert not np.any(code.syndrome(X[i]))
            assert np.count_nonzero(E[i]) <= code.radius
            assert np.array_equal(code.field.vadd(X[i], E[i]), words[i])


def test_syndrome_injective_below_distance():
    # the syndrome map is injective on any subspace whose elements all have
    # weight < d; driver: nonzero words of weight < d never hit the kernel,
    # and words confined to a fixed support of size d-1 get distinct syndromes
    code = mds.ReedSolomonCode(5, 3, gf.field(7))
    for positions in itertools.combinations(range(5), 2):
        seen = set()
        for vals in itertools.product(range(7), repeat=2):
            e = np.zeros(5, dtype=np.int64)
            e[list(positions)] = vals
            s = tuple(map(int, code.syndrome(e)))
            assert s not in seen
            seen.add(s)
            if np.any(e != 0):
                assert any(s)


def test_privacy_pair_mask_relation():
    f = gf.field(5)
    pair = mds.PrivacyPair(mds.ReedSolomonCode, 3, 1, f)
    assert pair.code.n == 3 and pair.code.k == 2
    # for every parent codeword (x | last): h . x = -alpha * last
    parent_words = all_codewords(pair.parent)
    for w in parent_words:
        lhs = int(pair.mask(w[:3]))
        rhs = mul_oracle(f, neg_oracle(f, pair.alpha), w[3])
        assert lhs == rhs


@pytest.mark.parametrize("n,t,q", [(3, 1, 5), (5, 2, 7)])
def test_privacy_pair_mask_uniform_given_t_coords(n, t, q):
    # over a uniform codeword, the mask is uniform conditioned on any t
    # coordinates taking any particular values
    f = gf.field_of_order(q)
    pair = mds.PrivacyPair(mds.ReedSolomonCode, n, t, f)
    table = all_codewords(pair.code)
    masks = pair.mask(table)
    for coords in itertools.combinations(range(n), t):
        proj = table[:, list(coords)]
        groups = {}
        for i in range(len(table)):
            key = tuple(map(int, proj[i]))
            groups.setdefault(key, []).append(int(masks[i]))
        for vals in groups.values():
            counts = {}
            for v in vals:
                counts[v] = counts.get(v, 0) + 1
            assert set(counts) == set(range(q))
            assert len(set(counts.values())) == 1


def test_privacy_pair_needs_room():
    with pytest.raises(ValueError):
        mds.PrivacyPair(mds.ReedSolomonCode, 4, 1, gf.field(5))  # parent needs 5 points
    with pytest.raises(ValueError):
        mds.PrivacyPair(mds.ReedSolomonCode, 3, 3, gf.field(5))


def _words_at_weight(code, rng, weight, count):
    """count random codewords, each with weight random positions changed."""
    f = code.field
    words = code.random_codeword(rng, count)
    for row in words:
        pos = rng.choice(code.n, size=weight, replace=False)
        row[pos] = f.vadd(row[pos], 1 + rng.integers(0, f.q - 1, size=weight))
    return words


@pytest.mark.parametrize("n,k,q", [(7, 2, 16), (9, 3, 16), (8, 3, 27), (6, 2, 27)])
def test_decoder_matches_oracle_every_weight_extension_fields(n, k, q):
    # even and odd n - k, characteristic 2 and 3: the verdict and codeword
    # agree with the brute-force nearest codeword at every error weight
    code = mds.ReedSolomonCode(n, k, gf.field_of_order(q))
    f = code.field
    table = all_codewords(code)
    rng = np.random.default_rng([n, k, q])
    for weight in range(n + 1):
        words = _words_at_weight(code, rng, weight, 25)
        X, E, ok = code.unique_decode_batch(words)
        for i, y in enumerate(words):
            want = brute_nearest(code, y, table)
            if want is None:
                assert not ok[i] and np.array_equal(X[i], y) and not np.any(E[i])
            else:
                assert ok[i] and np.array_equal(X[i], want)
                assert np.array_equal(f.vadd(X[i], E[i]), y)
        if weight <= code.radius:
            assert ok.all()


@pytest.mark.parametrize("n,k,q", [(7, 2, 11), (7, 3, 16), (8, 2, 27), (6, 1, 7)])
def test_errata_decode_matches_punctured_reference(n, k, q):
    # decoding with the erased channels as erasures agrees with nearest-
    # codeword decoding of the punctured code on the channels that are left:
    # the full code's codewords restricted to them, which stay distinct since
    # n - s >= k, within radius (n - s - k) // 2
    code = mds.ReedSolomonCode(n, k, gf.field_of_order(q))
    f = code.field
    full = all_codewords(code)
    rng = np.random.default_rng([n, k, q, 1])
    for _ in range(12):
        s = int(rng.integers(0, n - k + 1))
        erased = sorted(int(c) for c in rng.choice(n, size=s, replace=False))
        keep = [i for i in range(n) if i not in erased]
        table = full[:, keep]
        assert len(np.unique(table, axis=0)) == len(table)
        words = np.concatenate([
            _words_at_weight(code, rng, weight, 4) for weight in range(n + 1)])
        words[:, erased] = f.random(rng, (len(words), s))
        X, E, ok = code.unique_decode_batch(words, erasures=erased)
        for i, y in enumerate(words):
            want = brute_nearest(code, y[keep], table, (n - s - k) // 2)
            if want is None:
                assert not ok[i]
            else:
                assert ok[i] and np.array_equal(X[i, keep], want)
                assert contains(code, X[i])
                assert np.array_equal(f.vadd(X[i], E[i]), y)


# three erasures exceed n - k = 2; the others are not positions of a length-5
# word (a negative one must not wrap round to the last channel)
@pytest.mark.parametrize("erasures", [[0, 1, 2], [-1], [5], [0, 7]])
def test_decoder_refuses_too_many_erasures(erasures):
    code = mds.ReedSolomonCode(5, 3, gf.field(7))
    with pytest.raises(ValueError):
        code.unique_decode_batch(np.zeros((1, 5), dtype=np.int64), erasures=erasures)


@pytest.mark.parametrize("k", [4, 7, 12])
def test_batch_decode_matches_row_by_row_at_benchmark_sizes(k):
    # n = 23 over F_29, the improved benchmark's code size: over a thousand
    # words per call, so the batch runs the float64 products and the
    # floor-division reduction, while each row alone runs the small paths
    f = gf.field(29)
    n = 23
    code = mds.ReedSolomonCode(n, k, f)
    rng = np.random.default_rng([n, k])
    for s in (0, 4, 11):
        erased = sorted(int(c) for c in rng.choice(n, size=s, replace=False))
        live = [i for i in range(n) if i not in erased]
        radius = (n - k - s) // 2
        per = -(-1000 // (radius + 2))
        blocks = []
        for weight in range(radius + 2):
            words = code.random_codeword(rng, per)
            for row in words:
                pos = rng.choice(live, size=weight, replace=False)
                row[pos] = f.vadd(row[pos], 1 + rng.integers(0, f.q - 1, size=weight))
            blocks.append(words)
        Y = np.concatenate(blocks)
        Y[:, erased] = f.random(rng, (len(Y), s))
        X, E, ok = code.unique_decode_batch(Y, erasures=erased)
        for i in range(len(Y)):
            x1, e1, ok1 = code.unique_decode_batch(Y[i:i + 1], erasures=erased)
            assert ok1[0] == ok[i]
            assert x1[0].tobytes() == X[i].tobytes() and e1[0].tobytes() == E[i].tobytes()
        assert ok[: per * (radius + 1)].all()
        # with every parity symbol erased, every word decodes
        assert ok.all() == (s == n - k)
        assert not np.any(code.syndrome(X[ok]))
        assert np.array_equal(f.vadd(X, E), Y)


@pytest.mark.parametrize("pair", [
    lambda: mds.PrivacyPair(mds.ReedSolomonCode, 47, 23, gf.field(53)),
    lambda: mds.PrivacyPair(mds.ReedSolomonCode, 11, 5, gf.field(67_108_859)),
    lambda: mds.PrivacyPair(mds.ReedSolomonCode, 7, 3, gf.field(2**31 - 1)),
    lambda: mds.PrivacyPair(rankmetric.GabidulinCode, 3, 1, gf.field(2, 4)),
    lambda: mds.PrivacyPair(rankmetric.GabidulinCode, 5, 2, gf.field(2, 6)),
], ids=["F53", "F67108859", "F2^31-1", "F16-gabidulin", "F64-gabidulin"])
def test_mask_matches_vdot(pair):
    # the mask is one matrix product; the row-wise inner product is its
    # oracle, on one word, a stack of words and a stack of stacks
    pair = pair()
    f, n = pair.field, pair.code.n
    rng = np.random.default_rng(n)
    for shape in ((n,), (2209, n), (3, 4, n)):
        words = f.random(rng, shape)
        words.reshape(-1)[:n] = f.q - 1
        got = pair.mask(words)
        assert got.shape == shape[:-1]
        assert np.array_equal(got, f.vdot(pair.h, words))


def _mixed_batch(code, rng, erased, per):
    """per codewords for each mix of errors: every weight outside the
    erasures up to the radius + 2, with none, one or all of the erased
    symbols changed too; then per words whose only nonzero syndrome is the
    last, which Berlekamp-Massey does not read when n - k - s is odd."""
    f, n = code.field, code.n
    live = [i for i in range(n) if i not in erased]
    radius = (n - code.k - len(erased)) // 2
    blocks = []
    for outside in range(min(radius + 2, len(live)) + 1):
        for inside in sorted({0, min(1, len(erased)), len(erased)}):
            words = code.random_codeword(rng, per)
            for row in words:
                for pool, weight in ((live, outside), (erased, inside)):
                    pos = rng.choice(pool, size=weight, replace=False) if weight else []
                    row[pos] = f.vadd(row[pos], 1 + rng.integers(0, f.q - 1, size=weight))
            blocks.append(words)
    last = f.zeros(n - code.k)
    last[-1] = 1
    tail, _ = gf.solve_right(f, code.H, last)
    blocks.append(f.vadd(code.random_codeword(rng, per), tail[None, :]))
    return np.concatenate(blocks)


@pytest.mark.parametrize("q,n,k,s", [
    *((29, 23, k, s) for k in (4, 7, 12) for s in sorted({0, 4, 11, 23 - k})),
    (2**31 - 1, 23, 7, 0), (2**31 - 1, 23, 7, 11),
    (16, 15, 5, 0), (16, 15, 5, 3), (16, 15, 5, 10),
    (27, 26, 8, 0), (27, 26, 8, 5), (27, 26, 8, 18),
])
def test_decoder_matches_reference_byte_for_byte(q, n, k, s):
    # the decoder against the frozen Berlekamp-Massey-on-every-word
    # reference, on batches that mix words whose errata all sit on the
    # erasures and words with errors outside them
    code = mds.ReedSolomonCode(n, k, gf.field_of_order(q))
    rng = np.random.default_rng([q % 1000, n, k, s])
    erased = sorted(int(c) for c in rng.choice(n, size=s, replace=False))
    Y = _mixed_batch(code, rng, erased, 8)
    got = code.unique_decode_batch(Y, erasures=erased)
    want = unique_decode_oracle(code, Y, erasures=erased)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert 0 < want[2].sum() < len(Y) or s == n - k


@pytest.mark.parametrize("q,rows,steps", [(29, 529, 10), (29, 66, 14), (16, 11, 10),
                                          (27, 40, 7), (2**31 - 1, 40, 12)])
def test_berlekamp_massey_matches_frozen_oracle(q, rows, steps):
    # connection polynomials and lengths byte for byte: random rows, rows
    # that are all zero, rows that are zero but for their last syndrome,
    # and rows of one geometric sequence (length 1)
    f = gf.field_of_order(q)
    rng = np.random.default_rng([q % 1000, rows, steps])
    S = f.random(rng, (rows, steps))
    S[:3] = 0
    S[3:5, -1] = 1 + rng.integers(0, f.q - 1, size=2)
    S[3:5, :-1] = 0
    ratio = np.int64(f.q - 1)
    S[5, 0] = 1
    for j in range(1, steps):
        S[5, j] = f.vmul(S[5, j - 1], ratio)
    got = mds._berlekamp_massey(f, S)
    want = _berlekamp_massey_oracle(f, S)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert list(got[1][:6]) == [0, 0, 0, steps, steps, 1]


@pytest.mark.parametrize("q", [29, 16, 27, 2**31 - 1])
def test_poly_mul_matches_loop_reference(q):
    # truncated row-wise products, with a longer or shorter than the
    # truncation and b shorter than it, against the frozen coefficient loop
    f = gf.field_of_order(q)
    rng = np.random.default_rng(q % 1000)
    for rows, na, nb, size in ((540, 6, 10, 5), (66, 6, 14, 10), (1, 3, 4, 4),
                               (5, 1, 3, 2), (3, 4, 2, 6), (7, 9, 9, 3)):
        a, b = f.random(rng, (rows, na)), f.random(rng, (rows, nb))
        a[0], b[-1] = f.q - 1, f.q - 1
        got = mds._poly_mul(f, a, b, size)
        want = _poly_mul_oracle(f, a, b, size)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

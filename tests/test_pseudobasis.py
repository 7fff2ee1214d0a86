import itertools

import numpy as np
import pytest

from psmt import gf, mds, pseudobasis
from psmt.channels import ProtocolViolation
from helpers import contains, inv_oracle, mul_oracle


def span_rank(f, rows):
    """Oracle: rank via from-scratch Gaussian elimination over f."""
    rows = [np.array(r, dtype=np.int64) for r in rows]
    basis = []
    for r in rows:
        r = r.copy()
        for b in basis:
            p = int(np.nonzero(b)[0][0])
            if r[p]:
                r = f.vsub(r, f.vmul(mul_oracle(f, r[p], inv_oracle(f, b[p])), b))
        if r.any():
            basis.append(r)
    return len(basis)


def in_span(f, rows, target):
    return span_rank(f, rows) == span_rank(f, list(rows) + [target])


def test_all_codewords_give_empty_pseudo_basis():
    code = mds.ReedSolomonCode(5, 3, gf.field(7))
    words = code.encode([[1, 2, 3], [0, 0, 0], [6, 6, 6], [4, 0, 2]])
    pb = pseudobasis.compute_pseudo_basis(code, words)
    assert len(pb) == 0
    assert pb.words.shape == (0, 5)


def test_dependent_error_directions_keep_first_word_only():
    code = mds.ReedSolomonCode(5, 3, gf.field(7))
    e = np.array([1, 0, 0, 0, 0], dtype=np.int64)
    assert not contains(code, e)
    x = code.encode([[1, 2, 3], [4, 5, 6]])
    words = np.stack([code.field.vadd(x[0], e),
                      code.field.vadd(x[1], code.field.vmul(np.int64(2), e))])
    pb = pseudobasis.compute_pseudo_basis(code, words)
    assert pb.indices == [0]
    assert np.array_equal(pb.words[0], words[0])


def test_three_words_two_independent_errors():
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f)
    e1 = np.array([1, 0, 0, 0, 0], dtype=np.int64)
    e2 = np.array([0, 1, 0, 0, 0], dtype=np.int64)
    x = code.encode([[1, 2, 3], [4, 5, 6], [2, 2, 2]])
    words = np.stack([f.vadd(x[0], e1), f.vadd(x[1], e2),
                      f.vadd(x[2], f.vadd(e1, e2))])
    pb = pseudobasis.compute_pseudo_basis(code, words)
    assert pb.indices == [0, 1]
    # kept syndromes span everything and are independent per the oracle
    assert span_rank(f, pb.syndromes) == 2
    for s in code.syndrome(words):
        assert in_span(f, pb.syndromes, s)


def test_selection_is_first_come_deterministic():
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f)
    rng = np.random.default_rng(3)
    words = f.random(rng, (6, 5))
    first = pseudobasis.compute_pseudo_basis(code, words)
    again = pseudobasis.compute_pseudo_basis(code, words)
    assert first.indices == again.indices
    assert np.array_equal(first.words, again.words)
    # reversing the input can change which words are kept, never how many
    rev = pseudobasis.compute_pseudo_basis(code, words[::-1])
    assert len(rev) == len(first) == span_rank(f, code.syndrome(words))


@pytest.mark.parametrize("n,k", [(5, 3), (7, 4), (11, 6)])
def test_cardinality_and_span_properties(n, k):
    f = gf.field(13)
    code = mds.ReedSolomonCode(n, k, f)
    rng = np.random.default_rng(n * 31 + k)
    for _ in range(25):
        words = f.random(rng, (rng.integers(0, 9), n))
        pb = pseudobasis.compute_pseudo_basis(code, words)
        assert len(pb) <= n - k
        assert span_rank(f, pb.syndromes) == len(pb)
        for s in code.syndrome(words):
            assert in_span(f, pb.syndromes, s)


def test_extract_empty():
    code = mds.ReedSolomonCode(5, 3, gf.field(7))
    pb = pseudobasis.compute_pseudo_basis(code, code.field.zeros((0, 5)))
    eb = pseudobasis.extract_error_basis(code, pb, code.field.zeros((0, 5)))
    assert len(eb) == 0
    assert eb.support.size == 0


def test_extract_support_example():
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f)
    e1 = np.array([1, 0, 0, 0, 0], dtype=np.int64)
    e2 = np.array([0, 1, 0, 0, 0], dtype=np.int64)
    x = code.encode([[1, 2, 3], [4, 5, 6], [2, 2, 2]])
    words = np.stack([f.vadd(x[0], e1), f.vadd(x[1], e2),
                      f.vadd(x[2], f.vadd(e1, e2))])
    pb = pseudobasis.compute_pseudo_basis(code, words)
    eb = pseudobasis.extract_error_basis(code, pb, x)
    assert np.array_equal(eb.errors, np.stack([e1, e2]))
    assert sorted(int(c) for c in eb.support) == [0, 1]


def test_support_at_least_basis_size():
    # m independent syndromes force at least m touched channels
    f = gf.field(13)
    code = mds.ReedSolomonCode(11, 6, f)
    rng = np.random.default_rng(5)
    for _ in range(30):
        chans = np.sort(rng.choice(11, size=5, replace=False))
        x = code.random_codeword(rng, 7)
        errors = f.zeros((7, 11))
        errors[:, chans] = f.random(rng, (7, 5))
        words = f.vadd(x, errors)
        pb = pseudobasis.compute_pseudo_basis(code, words)
        eb = pseudobasis.extract_error_basis(code, pb, x)
        assert len(eb.support) >= len(eb)
        assert set(int(c) for c in eb.support) <= set(int(c) for c in chans)


def test_extract_rejects_out_of_model_weight():
    # a "pseudo-basis word" at distance d from its original cannot be an
    # in-model error and must be flagged
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f)
    x = code.encode([[1, 2, 3]])
    bad = f.vadd(x[0], np.array([1, 2, 3, 0, 0], dtype=np.int64))
    pb = pseudobasis.PseudoBasis([0], bad[None, :], code.syndrome(bad[None, :]))
    with pytest.raises(ProtocolViolation):
        pseudobasis.extract_error_basis(code, pb, x)


def _basis_from(code, errors):
    f = code.field
    x = f.zeros((len(errors), code.n))
    if errors:
        x = code.encode([[i + 1, 0, 0] for i in range(len(errors))])
    words = f.vadd(x, np.stack(errors)) if errors else x
    pb = pseudobasis.compute_pseudo_basis(code, words)
    return pseudobasis.extract_error_basis(code, pb, x)


def test_recover_zero_syndrome():
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f)
    e1 = np.array([1, 0, 0, 0, 0], dtype=np.int64)
    e2 = np.array([0, 1, 0, 0, 0], dtype=np.int64)
    eb = _basis_from(code, [e1, e2])
    assert not pseudobasis.recover_error(code, eb, f.zeros(2)[None, :])[0].any()
    # empty basis also maps zero to zero
    empty = _basis_from(code, [])
    assert not pseudobasis.recover_error(code, empty, f.zeros(2)[None, :])[0].any()


def test_recover_combination():
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f)
    e1 = np.array([1, 0, 0, 0, 0], dtype=np.int64)
    e2 = np.array([0, 1, 0, 0, 0], dtype=np.int64)
    eb = _basis_from(code, [e1, e2])
    target = f.vadd(e1, f.vmul(np.int64(3), e2))
    got = pseudobasis.recover_error(code, eb, code.syndrome(target[None, :]))[0]
    assert np.array_equal(got, target)
    # batch form agrees with single calls
    targets = np.stack([target, e1, f.zeros(5)])
    batch = pseudobasis.recover_error(code, eb, code.syndrome(targets))
    for row, single in zip(batch, targets):
        assert np.array_equal(row, single)


def test_recover_outside_span_raises():
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f)
    e1 = np.array([1, 0, 0, 0, 0], dtype=np.int64)
    eb = _basis_from(code, [e1])
    outside = np.array([0, 0, 1, 0, 0], dtype=np.int64)
    with pytest.raises(ProtocolViolation):
        pseudobasis.recover_error(code, eb, code.syndrome(outside[None, :]))
    empty = _basis_from(code, [])
    with pytest.raises(ProtocolViolation):
        pseudobasis.recover_error(code, empty, code.syndrome(outside[None, :]))


def test_syndrome_injective_on_common_support():
    # errors confined to t = d-1 shared columns: distinct error, distinct
    # syndrome, checked over the whole spanned subspace
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f)
    rng = np.random.default_rng(11)
    for _ in range(6):
        cols = np.sort(rng.choice(5, size=2, replace=False))
        seen = {}
        for vals in itertools.product(range(7), repeat=2):
            e = f.zeros(5)
            e[cols] = vals
            key = code.syndrome(e[None, :])[0].tobytes()
            assert key not in seen or np.array_equal(seen[key], e)
            seen[key] = e
        assert len(seen) == 49


@pytest.mark.parametrize("n,t", [(5, 2), (7, 3), (11, 5)])
def test_round_trip_recovery(n, t):
    # adversary errors on <= t fixed channels: every word's error is
    # recoverable from its syndrome alone
    f = gf.field(gf.next_prime_above(n))
    code = mds.ReedSolomonCode(n, t + 1, f)
    rng = np.random.default_rng(n)
    for trial in range(40):
        chans = np.sort(rng.choice(n, size=rng.integers(0, t + 1), replace=False))
        num = int(rng.integers(1, 2 * t + 2))
        x = code.random_codeword(rng, num)
        errors = f.zeros((num, n))
        if len(chans):
            errors[:, chans] = f.random(rng, (num, len(chans)))
        words = f.vadd(x, errors)
        pb = pseudobasis.compute_pseudo_basis(code, words)
        eb = pseudobasis.extract_error_basis(code, pb, x)
        got = pseudobasis.recover_error(code, eb, code.syndrome(words))
        assert np.array_equal(got, errors)
        assert np.array_equal(f.vadd(x, got), words)


def greedy_pseudo_basis(code, words):
    """Oracle: the word-by-word greedy scan, reducing each syndrome against
    the kept ones in turn."""
    f = code.field
    words = np.asarray(words, dtype=np.int64)
    syns = code.syndrome(words)
    kept = []
    reduced = f.zeros((0, syns.shape[1]))
    pivots = []
    for i in range(words.shape[0]):
        row = syns[i].copy()
        for r, pc in enumerate(pivots):
            if row[pc]:
                row = f.vsub(row, f.vmul(row[pc:pc + 1], reduced[r]))
        nz = np.nonzero(row)[0]
        if nz.size == 0:
            continue
        pc = int(nz[0])
        row = f.vmul(row, f.vinv(row[pc:pc + 1]))
        reduced = np.vstack([reduced, row[None, :]])
        pivots.append(pc)
        kept.append(i)
    return kept, words[kept], syns[kept]


@pytest.mark.parametrize("q", [11, 16, 27])
def test_rounds_match_greedy_scan(q):
    # errors drawn from a few directions (rank-deficient), from none, and
    # freely on t channels, with clean words interleaved
    f = gf.field_of_order(q)
    n, t = 9, 4
    code = mds.ReedSolomonCode(n, t + 1, f)
    rng = np.random.default_rng(q)
    for trial in range(40):
        num = int(rng.integers(1, 30))
        chans = rng.choice(n, size=t, replace=False)
        dirs = f.zeros((int(rng.integers(0, t + 1)), n))
        dirs[:, chans] = f.random(rng, (len(dirs), t))
        if trial % 4 == 0:
            coeffs = f.random(rng, (num, t))
            errors = f.zeros((num, n))
            errors[:, chans] = coeffs
        else:
            coeffs = f.random(rng, (num, len(dirs)))
            errors = gf.mat_mul(f, coeffs, dirs)
        errors[rng.random(num) < 0.3] = 0
        words = f.vadd(code.random_codeword(rng, num), errors)
        _assert_greedy(code, words)
    # the nonzero syndromes go in windows of 2 (n - k) = 8 rows: long runs
    # of clean or dependent rows between independent ones, and bases that
    # fill on the last or the first row of a window
    layouts = [
        {0: "new", 13: "new", 30: "new", 39: "new"},
        {2: "new", 9: "new", 21: "new", 38: "new"} | {i: "dep" for i in range(3, 38, 2)},
        {1: "new", 3: "new", 5: "new", 7: "new"} | {i: "dep" for i in (0, 2, 4, 6)},
        {0: "new", 8: "new", 15: "new", 23: "new"} | {i: "dep" for i in range(9, 15)},
        {4: "new", 7: "dep", 19: "new", 24: "new", 33: "dep"},
        {},  # every syndrome zero: nothing to scan
        {44: "new"},  # one nonzero syndrome, after five windows' worth of zeros
    ]
    for layout in layouts:
        num = 45
        chans = rng.choice(n, size=t, replace=False)
        dirs = f.zeros((t, n))
        dirs[:, chans] = f.random(rng, (t, t))
        errors = f.zeros((num, n))
        used = 0
        for i, kind in sorted(layout.items()):
            if kind == "new":
                errors[i] = dirs[used]
                used += 1
            elif used:
                errors[i] = gf.mat_mul(f, f.random(rng, (1, used)), dirs[:used])[0]
        words = f.vadd(code.random_codeword(rng, num), errors)
        pb = _assert_greedy(code, words)
        assert pb.indices == [i for i, kind in sorted(layout.items()) if kind == "new"]


@pytest.mark.parametrize("w", [0, 1, 12, 23])
def test_n47_matches_greedy_scan(w):
    # the benchmark's basic size: n = 47 over F_53, t + l = 23 + 47^2 words,
    # errors from w directions on rare words, so the picks cross many windows
    f = gf.field(53)
    n, t = 47, 23
    code = mds.ReedSolomonCode(n, t + 1, f)
    rng = np.random.default_rng(47 + w)
    num = t + n * n
    chans = rng.choice(n, size=t, replace=False)
    dirs = f.zeros((w, n))
    dirs[:, chans] = f.random(rng, (w, t))
    errors = gf.mat_mul(f, f.random(rng, (num, w)), dirs)
    errors[rng.random(num) < 0.97] = 0
    words = f.vadd(code.random_codeword(rng, num), errors)
    pb = _assert_greedy(code, words)
    assert len(pb) == w


def _assert_greedy(code, words):
    pb = pseudobasis.compute_pseudo_basis(code, words)
    kept, want_words, want_syns = greedy_pseudo_basis(code, words)
    assert pb.indices == kept
    assert np.array_equal(pb.words, want_words)
    assert np.array_equal(pb.syndromes, want_syns)
    return pb


def test_recover_refuses_error_at_distance():
    # two weight-2 basis errors over F_7, n = 5, d = 3: the syndrome of their
    # sum lies in the span, but the error it names has weight 4 >= d
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f)
    errors = np.array([[1, 2, 0, 0, 0], [0, 0, 3, 4, 0]], dtype=np.int64)
    eb = pseudobasis.ErrorBasis([0, 1], errors, code.syndrome(errors),
                                np.array([0, 1, 2, 3], dtype=np.int64))
    with pytest.raises(ProtocolViolation, match="weight 4"):
        pseudobasis.recover_error(code, eb, code.syndrome(f.vadd(errors[0], errors[1]))[None, :])

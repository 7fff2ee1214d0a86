import collections
import itertools
import tracemalloc

import numpy as np
import pytest

from psmt import broadcast, gf, mds
from psmt.channels import ProtocolViolation
from helpers import contains, gen_broadcast_decode_oracle


def test_plain_encode_shapes():
    out = broadcast.broadcast_encode(5, [4])
    assert np.array_equal(out, [[4, 4, 4, 4, 4]])
    assert broadcast.broadcast_encode(5, []).shape == (0, 5)
    assert broadcast.broadcast_encode(7, [1, 2, 3]).shape == (3, 7)


def test_plain_decode_majority():
    assert broadcast.broadcast_decode([[4, 4, 4, 4, 4]], 2)[0] == 4
    assert broadcast.broadcast_decode([[4, 4, 4, 9, 9]], 2)[0] == 4
    assert broadcast.broadcast_decode([[9, 4, 9, 4, 4]], 2)[0] == 4
    with pytest.raises(ProtocolViolation):
        broadcast.broadcast_decode([[1, 2, 3]], 1)


def test_plain_decode_exhaustive_n3():
    # one rewrite can never displace the sent value
    for sent in range(5):
        for pos in range(3):
            for val in range(5):
                row = np.full(3, sent)
                row[pos] = val
                assert broadcast.broadcast_decode(row[None, :], 1)[0] == sent
    # all-distinct rows have no n - t majority and must raise
    for row in itertools.permutations(range(3)):
        with pytest.raises(ProtocolViolation):
            broadcast.broadcast_decode(np.array(row)[None, :], 1)


def test_plain_encode_is_a_read_only_repetition_view():
    # the n copies are a view: equal to np.repeat, and never writable, so
    # no layer can change a block after it is sent
    symbols = np.array([[3, 0], [6, 2]])
    out = broadcast.broadcast_encode(5, symbols)
    assert np.array_equal(out, np.repeat(symbols.reshape(-1)[:, None], 5, axis=1))
    assert out.strides[1] == 0 and not out.flags.writeable
    with pytest.raises(ValueError):
        out[0, 1] = 1
    # it holds its own copy of the symbols
    symbols[0, 0] = 4
    assert out[0].tolist() == [3] * 5


def _majority_oracle(row, need):
    """The value with at least need copies in row, or None."""
    value, count = collections.Counter(row.tolist()).most_common(1)[0] if len(row) else (0, 0)
    return value if count >= need else None


def _rows_with_majority(rng, num, n, need, high):
    """num rows of length n: each has a value with between need - 1 and n
    copies, the rest drawn from a pool of four values (ties) or from the
    whole range (mostly all distinct)."""
    copies = rng.integers(need - 1, n + 1, size=num)
    small = rng.integers(0, high, size=(num, 4))
    pool = np.take_along_axis(small, rng.integers(0, 4, size=(num, n)), axis=1)
    wide = rng.integers(0, high, size=(num, n))
    rows = np.where(rng.random(num)[:, None] < 0.5, pool, wide)
    rows[np.arange(n)[None, :] < copies[:, None]] = np.repeat(rows[:, 0], copies)
    return rng.permuted(rows, axis=1)


@pytest.mark.parametrize("n", [3, 5, 7, 47])
def test_plain_decode_matches_counter_oracle(n):
    # every row alone, with every t allowed at this n and random keep
    # subsets (some shorter than n - t): decode raises iff the oracle finds
    # no value with n - t copies, and otherwise returns that value
    rng = np.random.default_rng(n)
    for high in (7, 2**31 - 1):
        for t in range(1, (n - 1) // 2 + 1):
            need = n - t
            rows = _rows_with_majority(rng, 150, n, need, high)
            rows[0] = np.arange(n)  # every value differs
            rows[1] = np.append(np.resize([high - 1, high - 2], n - 1), 0)  # a tie
            for row in rows:
                keep = None
                if rng.random() < 0.3:
                    size = int(rng.integers(0, n + 1))
                    keep = np.sort(rng.choice(n, size=size, replace=False))
                kept = row if keep is None else row[keep]
                want = _majority_oracle(kept, need)
                if want is None:
                    with pytest.raises(ProtocolViolation):
                        broadcast.broadcast_decode(row[None, :], t, keep=keep)
                else:
                    got = broadcast.broadcast_decode(row[None, :], t, keep=keep)
                    assert got.dtype == np.int64 and got.tolist() == [want]


@pytest.mark.parametrize("high", [2**31 - 1, 2**40])
def test_plain_decode_large_block_matches_counter_oracle(high):
    # blocks past the int32 narrowing size, with symbols up to 2^31 - 2
    # (narrowed) or up to 2^40 (not): every row's majority when each row
    # has one, and a raise when one row has none
    n, t = 47, 23
    rng = np.random.default_rng(high % 1000)
    rows = _rows_with_majority(rng, 60_000, n, n - t, high)
    for keep in (None, np.arange(1, n)):
        want = [_majority_oracle(row, n - t) for row in (rows if keep is None else rows[:, keep])]
        good = np.array([w is not None for w in want])
        assert 50_000 <= good.sum() < len(rows)
        with pytest.raises(ProtocolViolation):
            broadcast.broadcast_decode(rows, t, keep=keep)
        got = broadcast.broadcast_decode(rows[good], t, keep=keep)
        assert got.tolist() == [w for w in want if w is not None]
        # negative symbols are never narrowed
        assert np.array_equal(broadcast.broadcast_decode(-rows[good], t, keep=keep), -got)


def _check_against_oracle(block, t, keep, need):
    """decode raises iff some row has no value with need copies among the
    kept channels, and otherwise returns every row's value."""
    rows = block if keep is None else block[:, keep]
    want = [_majority_oracle(row, need) for row in rows]
    if None in want:
        with pytest.raises(ProtocolViolation):
            broadcast.broadcast_decode(block, t, keep=keep)
    else:
        got = broadcast.broadcast_decode(block, t, keep=keep)
        assert got.dtype == np.int64 and got.tolist() == want


@pytest.mark.parametrize("n", [11, 47])
def test_plain_decode_whole_channels_matches_counter_oracle(n, monkeypatch):
    # broadcasts of at least _NARROW_MIN kept symbols as they arrive: the
    # sent block with 0..t channels rewritten, row-major, channel-major (the
    # transpose of a C array) and, unrewritten, as the repetition view, each
    # with and without a keep subset.  Where whole channels settle the
    # majority no row is sorted, so the int32 guard is never read
    t = (n - 1) // 2
    need = n - t
    sorted_blocks = []
    guard = broadcast._outside
    monkeypatch.setattr(broadcast, "_outside",
                        lambda arr, q: sorted_blocks.append(arr.shape) or guard(arr, q))
    rng = np.random.default_rng(n + 300)
    for high in (7, 2**40):
        for rewritten in range(t + 1):
            for keep in (None, np.sort(rng.choice(n, size=int(rng.integers(1, n)),
                                                  replace=False))):
                kept = n if keep is None else len(keep)
                rows = -(-broadcast._NARROW_MIN // kept)
                sent = broadcast.broadcast_encode(n, rng.integers(0, high, size=rows))
                block = np.array(sent)
                bad = rng.choice(n, size=rewritten, replace=False)
                block[:, bad] = rng.integers(0, high, size=(rows, rewritten))
                layouts = [block, np.ascontiguousarray(block.T).T]
                if rewritten == 0:
                    layouts.append(sent)
                for arrays in layouts:
                    del sorted_blocks[:]
                    _check_against_oracle(arrays, t, keep, need)
                    if keep is None and rewritten == 0:
                        assert sorted_blocks == []


def test_plain_decode_whole_channel_near_misses():
    # need - 1 identical channels do not settle the block: the sort path
    # decodes it, here to per-row majorities that no channel holds whole,
    # and raises on a block whose row 0 has a majority but a later row none
    n, t = 47, 23
    need = n - t
    rows = 2 * broadcast._NARROW_MIN // n
    rng = np.random.default_rng(17)
    values = rng.integers(0, 2**20, size=rows)
    block = rng.integers(2**20, 2**21, size=(rows, n))
    block[:, : need - 1] = values[:, None]
    block[np.arange(rows), need - 1 + np.arange(rows) % (n - need + 1)] = values
    for arrays in (block, np.ascontiguousarray(block.T).T):
        for keep in (None, np.arange(n - 1)):
            _check_against_oracle(arrays, t, keep, need)
        assert broadcast.broadcast_decode(arrays, t).tolist() == values.tolist()
    late = np.repeat(values[:, None], n, axis=1)
    late[rows // 2, need - 1 :] = 2**21 + np.arange(n - need + 1)
    for arrays in (late, np.ascontiguousarray(late.T).T):
        _check_against_oracle(arrays, t, None, need)
        with pytest.raises(ProtocolViolation):
            broadcast.broadcast_decode(arrays, t)


@pytest.mark.parametrize("n", [3, 11, 47])
def test_plain_decode_repetition_view_matches_counter_oracle(n):
    # an untouched broadcast arrives as the read-only repetition view: it
    # decodes to its symbols with no keep and with keep subsets of every
    # size, and raises with fewer than n - t kept channels, unless the block
    # is empty and so has no row to refuse (an empty block keeps at least one)
    t = (n - 1) // 2
    rng = np.random.default_rng(n + 500)
    for rows in (0, 1, 5, -(-broadcast._NARROW_MIN // n) + 1):
        sent = broadcast.broadcast_encode(n, rng.integers(0, 2**40, size=rows))
        for size in [None] + list(range(0 if rows else 1, n + 1)):
            keep = None if size is None else np.sort(rng.choice(n, size=size, replace=False))
            _check_against_oracle(sent, t, keep, n - t)
        got = broadcast.broadcast_decode(sent, t)
        assert got.flags.writeable and not np.shares_memory(got, sent)


def test_plain_decode_repetition_view_copies_no_kept_channels():
    # the answer is the only block the decode allocates: the kept channels
    # of a repetition view are never copied out
    n, t, rows = 47, 23, 20_000
    sent = broadcast.broadcast_encode(n, np.arange(rows))
    for keep in (None, np.arange(1, n), list(range(t, n))):
        tracemalloc.start()
        try:
            got = broadcast.broadcast_decode(sent, t, keep=keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == list(range(rows))
        assert peak < 2 * rows * 8


def test_gen_encode_m0_is_repetition():
    f = gf.field(7)
    c0 = mds.ReedSolomonCode(5, 1, f)
    sym = np.array([3, 0, 6])
    assert np.array_equal(broadcast.gen_broadcast_encode(c0, sym),
                          broadcast.broadcast_encode(5, sym))


def test_gen_encode_chunking():
    f = gf.field(7)
    c2 = mds.ReedSolomonCode(5, 3, f)
    one = broadcast.gen_broadcast_encode(c2, [1, 2, 3])
    assert one.shape == (1, 5)
    assert contains(c2, one[0])
    two = broadcast.gen_broadcast_encode(c2, [1, 2, 3, 4])
    assert two.shape == (2, 5)
    assert np.array_equal(two[1], c2.encode([4, 0, 0]))
    # wire cost is exactly ceil(s / (m+1)) arrays of n symbols
    for s in range(1, 12):
        sent = broadcast.gen_broadcast_encode(c2, np.arange(s) % 7)
        assert sent.size == -(-s // 3) * 5


def test_gen_decode_roundtrip_no_errors():
    f = gf.field(7)
    for m in range(3):
        code = mds.ReedSolomonCode(5, m + 1, f)
        payload = np.array([1, 2, 3, 4, 5, 6])
        sent = broadcast.gen_broadcast_encode(code, payload)
        got = broadcast.gen_broadcast_decode(code, 2, sent, list(range(m)))
        assert np.array_equal(got[:6], payload)


def test_gen_decode_known_bad_only():
    # both corrupted channels known: erased entirely, values irrelevant
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f)
    payload = np.array([5, 1, 0])
    sent = broadcast.gen_broadcast_encode(code, payload)
    for bad in itertools.combinations(range(5), 2):
        for vals in itertools.product(range(7), repeat=2):
            recv = sent.copy()
            recv[0, list(bad)] = vals
            got = broadcast.gen_broadcast_decode(code, 2, recv, bad)
            assert np.array_equal(got, payload)


def test_gen_decode_one_known_one_unknown():
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 2, f)
    payload = np.array([4, 2])
    sent = broadcast.gen_broadcast_encode(code, payload)
    for known in range(5):
        for unknown in range(5):
            if unknown == known:
                continue
            for kv in range(7):
                for uv in range(7):
                    recv = sent.copy()
                    recv[0, known] = kv
                    recv[0, unknown] = uv
                    got = broadcast.gen_broadcast_decode(code, 2, recv, [known])
                    assert np.array_equal(got, payload)


def test_gen_decode_argument_validation():
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f)
    sent = broadcast.gen_broadcast_encode(code, [1, 2, 3])
    with pytest.raises(ValueError):
        broadcast.gen_broadcast_decode(code, 2, sent, [0])  # fewer than m known
    with pytest.raises(ProtocolViolation):
        broadcast.gen_broadcast_decode(code, 2, sent, [0, 1, 2])  # more than t
    # with t past (n - 1) / 2, more erasures than parity symbols, and words
    # of the wrong length, refused as the decoder refuses them
    for t, arrays, known in [(4, sent, [0, 1, 2]), (2, sent[:, :4], [0, 1]),
                             (2, np.hstack([sent, sent]), [0, 1])]:
        got = _decode_outcome(broadcast.gen_broadcast_decode, code, t, arrays, known)
        assert got[0] is ValueError
        assert got == _decode_outcome(gen_broadcast_decode_oracle, code, t, arrays, known)


def test_gen_decode_refuses_channels_out_of_range():
    # for every m, the plain broadcast's m = 0 included
    for k, cases in [(3, ([-1, 0], [0, 5])), (1, ([-1], [5, 9]))]:
        code = mds.ReedSolomonCode(5, k, gf.field(7))
        sent = broadcast.gen_broadcast_encode(code, [1, 2, 3])
        for known in cases:
            with pytest.raises(ValueError, match=r"erasures must be positions 0\.\.4, got "):
                broadcast.gen_broadcast_decode(code, 2, sent, known)


def test_gen_decode_out_of_model_raises_or_is_caught():
    # m=2 with an unknown error on top of two known channels exceeds the
    # model; the decode must not silently return a wrong payload
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f)
    payload = np.array([5, 1, 0])
    sent = broadcast.gen_broadcast_encode(code, payload)
    recv = sent.copy()
    recv[0, [0, 1]] = [6, 6]
    recv[0, 2] = (recv[0, 2] + 1) % 7
    try:
        got = broadcast.gen_broadcast_decode(code, 2, recv, [0, 1])
        assert not np.array_equal(got, payload)
    except ProtocolViolation:
        pass


def _decode_outcome(decode, code, t, arrays, known_bad):
    """What a decode returns, as dtype, shape and bytes, or the type and
    message of its refusal."""
    try:
        out = decode(code, t, arrays, known_bad)
    except (ValueError, ProtocolViolation) as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


def _with_errors(f, rng, words, channels, count):
    """words with count symbols on each row changed, at channels drawn from
    the given ones."""
    out = words.copy()
    for row, e in zip(out, count):
        at = rng.choice(channels, size=e, replace=False)
        row[at] = f.vadd(row[at], rng.integers(1, f.q, size=e))
    return out


@pytest.mark.parametrize("n", [5, 7, 11, 23])
def test_gen_decode_matches_decode_everything_oracle(n, monkeypatch):
    # every m in 1..t and s in m..t: blocks that mix rows with errors only
    # on the erasures and rows with 1..radius errors outside them decode to
    # the sent payload, the decoder seeing only the second kind; blocks with
    # rows past the radius raise exactly where the oracle does.  Outputs
    # match the oracle byte for byte, refusals by type and message
    t = (n - 1) // 2
    calls = []
    decode = mds.ReedSolomonCode.unique_decode_batch

    def counted(code, Y, erasures=()):
        calls.append(len(Y))
        return decode(code, Y, erasures)

    monkeypatch.setattr(mds.ReedSolomonCode, "unique_decode_batch", counted)
    rng = np.random.default_rng(n + 700)
    fields = [gf.field(gf.next_prime_above(n))] + ([gf.field(2, 3)] if n <= 7 else [])
    for f in fields:
        for m in range(1, t + 1):
            code = mds.ReedSolomonCode(n, m + 1, f)
            for s in range(m, t + 1):
                radius = (n - m - 1 - s) // 2
                for _ in range(3):
                    bad = np.sort(rng.choice(n, size=s, replace=False))
                    clean = np.delete(np.arange(n), bad)
                    payload = f.random(rng, 12 * (m + 1))
                    recv = broadcast.gen_broadcast_encode(code, payload)
                    recv[:, bad] = f.random(rng, (12, s))
                    outside = rng.integers(0, radius + 1, size=12)
                    mixed = _with_errors(f, rng, recv, clean, outside)
                    past = _with_errors(f, rng, mixed, clean,
                                        np.where(rng.random(12) < 0.3,
                                                 rng.integers(radius + 1, len(clean) + 1, size=12),
                                                 0))
                    for arrays in (recv, mixed, mixed[:0], past):
                        del calls[:]
                        got = _decode_outcome(broadcast.gen_broadcast_decode, code, t, arrays, bad)
                        if arrays is recv or arrays is mixed:
                            assert got[2] == payload.tobytes()
                            wrong = int(np.count_nonzero(outside)) if arrays is mixed else 0
                            assert calls == ([wrong] if wrong else [])
                        assert got == _decode_outcome(gen_broadcast_decode_oracle, code, t,
                                                      arrays, bad), (f, m, s)
            # the refusals: too few or too many known channels, and channels
            # that do not exist
            sent = broadcast.gen_broadcast_encode(code, f.random(rng, m + 1))
            for known in (list(range(m - 1)), list(range(t + 1)), [-1] + list(range(m - 1)),
                          list(range(m - 1)) + [n]):
                got = _decode_outcome(broadcast.gen_broadcast_decode, code, t, sent, known)
                assert got[0] in (ValueError, ProtocolViolation)
                assert got == _decode_outcome(gen_broadcast_decode_oracle, code, t, sent, known)


def _in_model_cases(n, t, rng, num):
    """(known_bad, error_channels) pairs with |K| <= t and the rest within
    budget, for randomized sweeps."""
    for _ in range(num):
        kk = int(rng.integers(0, t + 1))
        known = list(np.sort(rng.choice(n, size=kk, replace=False)))
        free = [c for c in range(n) if c not in known]
        extra = int(rng.integers(0, t - kk + 1))
        errs = list(rng.choice(free, size=extra, replace=False))
        yield known, errs


@pytest.mark.parametrize("n", [5, 7, 9])
def test_gen_roundtrip_in_model_sweep(n):
    t = (n - 1) // 2
    f = gf.field(gf.next_prime_above(n))
    rng = np.random.default_rng(n)
    for m in range(t + 1):
        code = mds.ReedSolomonCode(n, m + 1, f)
        for known, errs in _in_model_cases(n, t, rng, 60):
            if len(known) < m:
                continue
            payload = f.random(rng, int(rng.integers(1, 8)))
            sent = broadcast.gen_broadcast_encode(code, payload)
            recv = sent.copy()
            touched = list(known) + list(errs)
            if touched:
                recv[:, touched] = f.random(rng, (recv.shape[0], len(touched)))
            got = broadcast.gen_broadcast_decode(code, t, recv, known)
            assert np.array_equal(got[: len(payload)], payload)


def test_decode_with_erasures_matches_plain_when_m0():
    # m = 0 with known bad channels: majority over the kept columns only
    f = gf.field(7)
    code = mds.ReedSolomonCode(5, 1, f)
    sent = broadcast.gen_broadcast_encode(code, [6])
    recv = sent.copy()
    recv[0, [0, 1]] = [1, 2]
    assert broadcast.gen_broadcast_decode(code, 2, recv, [0, 1])[0] == 6

import itertools

import numpy as np
import pytest

from psmt import broadcast, gf, mds
from psmt.channels import ProtocolViolation
from helpers import contains


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


def test_gen_decode_refuses_channels_out_of_range():
    code = mds.ReedSolomonCode(5, 3, gf.field(7))
    sent = broadcast.gen_broadcast_encode(code, [1, 2, 3])
    for known in ([-1, 0], [0, 5]):
        with pytest.raises(ValueError):
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

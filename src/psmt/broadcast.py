"""Broadcast over n = 2t+1 channels.

Plain broadcast repeats each symbol on every channel; with at most t rewrites
the sent value is the only one that can appear n - t times, so majority
decoding is exact.  Generalized broadcast packs m+1 symbols per transmission
as a codeword of an [n, m+1] code; a receiver who can already point at m (or
more) corrupted channels decodes with those channels erased, and the
errors-and-erasures radius covers every remaining in-model error.
"""

import numpy as np

from . import gf
from .channels import ProtocolViolation


def broadcast_encode(n, symbols):
    """Each symbol becomes one length-n array of n copies."""
    symbols = np.asarray(symbols, dtype=np.int64).reshape(-1)
    return np.repeat(symbols[:, None], n, axis=1)


def broadcast_decode(arrays, t, keep=None):
    """Majority value of each array; keep optionally restricts to a column
    subset (used when erasing known-bad channels).

    A value occupying more than half the counted columns must cover the
    middle of the sorted row; the count is then verified so an out-of-model
    adversary raises instead of corrupting the result.
    """
    arrays = np.asarray(arrays, dtype=np.int64)
    n = arrays.shape[1]
    if keep is not None:
        arrays = arrays[:, keep]
    kept = arrays.shape[1]
    need = n - t
    s = np.sort(arrays, axis=1)
    cand = s[:, kept // 2]
    counts = np.count_nonzero(arrays == cand[:, None], axis=1)
    if np.any(counts < need):
        raise ProtocolViolation("no channel-majority value; more than t rewrites")
    return cand


def gen_broadcast_encode(code, symbols):
    """Pack symbols into codewords of code = [n, m+1], zero-padding the tail.

    Returns a (ceil(len / (m+1)), n) stack; the receiver knows the payload
    length from public parameters, so no length header is sent.
    """
    symbols = np.asarray(symbols, dtype=np.int64).reshape(-1)
    k = code.k
    pad = (-len(symbols)) % k
    if pad:
        symbols = np.concatenate([symbols, np.zeros(pad, dtype=np.int64)])
    return code.encode(symbols.reshape(-1, k))


def gen_broadcast_decode(code, t, arrays, known_bad):
    """Recover the packed payload given at least m known corrupted channels.

    known_bad may list more than m channels (never more than t); they are all
    erased, and the at most t-s errors that can remain are within the
    errors-and-erasures radius of the code.  Returns the flat payload
    including padding.
    """
    f = code.field
    n, m = code.n, code.k - 1
    known_bad = sorted(set(int(c) for c in known_bad))
    s = len(known_bad)
    if s < m:
        raise ValueError("need at least %d known corrupted channels, got %d" % (m, s))
    if s > t:
        raise ProtocolViolation("more than t channels flagged as corrupted")
    arrays = np.asarray(arrays, dtype=np.int64)
    if m == 0:
        keep = [i for i in range(n) if i not in known_bad]
        return broadcast_decode(arrays, t, keep=keep)
    X, _, ok = code.unique_decode_batch(arrays, erasures=known_bad)
    if not np.all(ok):
        raise ProtocolViolation("generalized broadcast failed to decode")
    msgs = gf.mat_mul(f, X[:, : code.k], _msg_matrix(code))
    return msgs.reshape(-1)


def _msg_matrix(code):
    """Inverse of the first k generator columns: codeword[:k] @ M = message."""
    if not hasattr(code, "_minv"):
        eye = np.eye(code.k, dtype=np.int64)
        minv, ok = gf.solve_right(code.field, code.G[:, : code.k], eye)
        if not np.all(ok):
            raise AssertionError("Vandermonde block not invertible (unreachable)")
        code._minv = minv
    return code._minv

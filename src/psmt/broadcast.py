"""Broadcast over n = 2t+1 channels.

Plain broadcast repeats each symbol on every channel; with at most t rewrites
the sent value is the only one that can appear n - t times, so majority
decoding is exact.  The n copies are never written out: a plain broadcast is
sent as a read-only (arrays, n) view with column stride 0 over the symbols,
and since no layer writes into a sent block (the adversary's rewrites go into
a channel-major copy), the ledger, the transcript and her view all read the
same logical block of n copies.  Every honest channel delivers the sent
column whole, so a large block is decoded by whole channels: when n - t kept
channels agree in every row, one of them is the answer.  A small block, or
one where they do not agree, has its rows sorted.

Generalized broadcast packs m+1 symbols per transmission as a codeword of an
[n, m+1] code; a receiver who can already point at m (or more) corrupted
channels decodes with those channels erased, and the errors-and-erasures
radius covers every remaining in-model error.
"""

import numpy as np

from . import gf
from .channels import ProtocolViolation, _outside

# From this many kept symbols on, broadcast_decode first tries whole
# channels, and a block they do not settle has its rows sorted as int32 when
# every symbol fits.  numpy 2.4.6 on a 2-vCPU x86-64 virtual machine, at row
# length 3 to 47: at 4,096 symbols the whole-channel rule takes 9-31 us
# against 12-58 us for the sort, while at 1,024 it loses from row length 11
# on; a (53016, 47) block with 23 channels rewritten decodes in 0.8 ms against
# 6.1 ms.  That block sorts in 3.7 ms as int32 against 7.0 ms as int64; at
# 4,096 symbols the cast and its guard cost at most 1 us more than they save,
# at row length 3 to 15.
_NARROW_MIN = 4096


def broadcast_encode(n, symbols):
    """Each symbol becomes one length-n array of n copies: a read-only view
    with column stride 0 over a private copy of the symbols."""
    symbols = np.array(symbols, dtype=np.int64).reshape(-1)
    symbols.flags.writeable = False
    return np.ndarray((len(symbols), n), np.int64, buffer=symbols, strides=(8, 0))


def broadcast_decode(arrays, t, keep=None):
    """Majority value of each array; keep optionally restricts to a column
    subset (used when erasing known-bad channels).

    A block of at least _NARROW_MIN kept symbols is first tried by whole
    channels.  Take the first kept channel that holds the middle sorted
    entry of both the first and the last row (by row 0 alone, 4% of
    random-noise sessions at n = 47 over F_53 picked a rewritten channel);
    if need = n - t kept channels equal it in every row, every row holds at
    least need copies of its value, and since need > kept / 2 that is the
    one value the sort below would return.

    Otherwise each row is sorted once, into S, and its candidate is the
    middle entry S[mid], mid = kept // 2.  The candidate's copies are one
    run of S that covers mid, so there are at least need = n - t of them iff
    a window of need entries inside the row that covers mid is constant: iff
    S[j] == S[j + need - 1] for some j with max(0, mid - need + 1) <= j <=
    min(mid, kept - need).  With n >= 2t + 1, need > kept / 2, so every
    window inside the row covers mid, and a row has a value with need copies
    iff its candidate is one; with kept < need there is no window at all.
    A block with a row that has none raises ProtocolViolation instead of
    returning a wrong value.
    """
    arrays = np.asarray(arrays, dtype=np.int64)
    n = arrays.shape[1]
    if keep is not None:
        arrays = arrays[:, keep]
    kept = arrays.shape[1]
    need = n - t
    mid = kept // 2
    large = arrays.size >= _NARROW_MIN
    if large:
        ends = arrays[[0, -1]]
        middle = np.sort(ends, axis=1)[:, mid : mid + 1]
        channel = arrays[:, int(np.argmax((ends == middle).all(axis=0)))]
        if np.count_nonzero((arrays == channel[:, None]).all(axis=0)) >= need:
            return channel.copy()
    lo = max(0, mid - need + 1)
    width = max(0, min(mid, kept - need) - lo + 1)
    narrow = large and not _outside(arrays, 2**31)
    s = arrays.astype(np.int32 if narrow else np.int64)
    s.sort(axis=1)
    runs = s[:, lo : lo + width] == s[:, lo + need - 1 : lo + need - 1 + width]
    if not runs.any(axis=1).all():
        raise ProtocolViolation("no channel-majority value; more than t rewrites")
    return s[:, mid].astype(np.int64)


def gen_broadcast_encode(code, rows):
    """Pack each row of symbols (a 1-D input is one row), zero-padded to a
    multiple of m+1, into codewords of code = [n, m+1], all in one stack.
    The receiver knows the row length from public parameters, so no length
    header is sent."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    k = code.k
    padded = np.zeros((rows.shape[0], -(-rows.shape[1] // k) * k), dtype=np.int64)
    padded[:, : rows.shape[1]] = rows
    return code.encode(padded.reshape(-1, k))


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

"""Broadcast over n = 2t+1 channels.

Plain broadcast repeats each symbol on every channel; with at most t rewrites
the sent value is the only one that can appear n - t times, so majority
decoding is exact.  The n copies are never written out: a plain broadcast is
sent as a read-only (arrays, n) view with column stride 0 over the symbols,
and since no layer writes into a sent block (the adversary's rewrites go into
a channel-major copy), the ledger, the transcript and her view all read the
same logical block of n copies; her taps of it are a view of its one column,
and nothing copies them.  A block no one rewrote arrives as that
view, and its one column is the answer.  Every honest channel delivers the
sent column whole, so a large rewritten block is decoded by whole channels:
when n - t kept channels agree in every row, one of them is the answer.  A
small block, or one where they do not agree, has its rows sorted.

Generalized broadcast packs m+1 symbols per transmission as a codeword of an
[n, m+1] code; a receiver who can already point at m (or more) corrupted
channels decodes with those channels erased, and the errors-and-erasures
radius covers every remaining in-model error.  Each row is first
interpolated from m+1 clean channels and checked against the rest; only a
row with an error outside the erasures runs the errors-and-erasures decoder.
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

    A repetition view (column stride 0), as every broadcast arrives that no
    one rewrote, holds one column n times: with at least need = n - t kept
    channels that column is the answer, read without copying the kept ones.

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
    need = n - t
    if arrays.strides[1] == 0 and (n if keep is None else len(np.arange(n)[keep])) >= need:
        return arrays[:, 0].copy()
    if keep is not None:
        arrays = arrays[:, keep]
    kept = arrays.shape[1]
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
    errors-and-erasures radius (n - k - s) // 2 of the code [n, k = m+1].
    Returns the flat payload including padding.

    For m >= 1 every row is interpolated from the first k clean (not erased)
    channels and re-encoded onto the others.  A row that arrived as that
    re-encoding on every clean channel has no error outside the erasures; any
    two codewords within the radius of a row differ in at most s + 2 * radius
    <= n - k < d places, so its codeword is the one the errors-and-erasures
    decoder returns.  Only the other rows go to the decoder, and their
    codewords are read on the same k channels.
    """
    f = code.field
    n, k = code.n, code.k
    m = k - 1
    known_bad = sorted(set(int(c) for c in known_bad))
    s = len(known_bad)
    if s < m:
        raise ValueError("need at least %d known corrupted channels, got %d" % (m, s))
    if s > t:
        raise ProtocolViolation("more than t channels flagged as corrupted")
    if known_bad and (known_bad[0] < 0 or known_bad[-1] >= n):
        raise ValueError("erasures must be positions 0..%d, got %s" % (n - 1, known_bad))
    arrays = np.asarray(arrays, dtype=np.int64)
    if m == 0:
        keep = [i for i in range(n) if i not in known_bad]
        return broadcast_decode(arrays, t, keep=keep)
    # the decoder's refusals, which a block that verifies never reaches
    if s > n - k:
        raise ValueError("%d erasures exceed the %d parity symbols" % (s, n - k))
    if arrays.shape[-1] != n:
        raise ValueError("word length must be %d" % n)
    clean = np.delete(np.arange(n), known_bad)
    first, rest = clean[:k], clean[k:]
    inv, ok = gf.solve_right(f, code.G[:, first], np.eye(k, dtype=np.int64))
    if not np.all(ok):
        raise AssertionError("Vandermonde block not invertible (unreachable)")
    # one product gives each row's message and its re-encoding on rest
    out = gf.mat_mul(f, arrays[:, first],
                     np.concatenate([inv, gf.mat_mul(f, inv, code.G[:, rest])], axis=1))
    msgs = out[:, :k]
    miss = np.nonzero(np.any(out[:, k:] != arrays[:, rest], axis=1))[0]
    if miss.size:
        X, _, ok = code.unique_decode_batch(arrays[miss], erasures=known_bad)
        if not np.all(ok):
            raise ProtocolViolation("generalized broadcast failed to decode")
        msgs[miss] = gf.mat_mul(f, X[:, first], inv)
    return msgs.reshape(-1)

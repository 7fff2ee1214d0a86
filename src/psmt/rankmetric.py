"""Gabidulin codes and transmission against generalized adversaries.

Here the adversary does not sit on t fixed channels: she fixes t eavesdrop
vectors and t tamper vectors in F_q^n, reads the corresponding F_q-linear
combinations of every transmitted array, and adds sum_i delta_i * mu^(i) with
fresh delta_i from F_{q^m} per transmission.  Every injected error then has
rank at most t as an m x n matrix over F_q, so Hamming machinery is replaced
by the rank metric: Gabidulin codes (evaluations of linearized polynomials at
F_q-independent points) are MRD when m >= n, a rank privacy pair comes from
puncturing, and the single broadcast channel is replaced by the [n, 1] rank
code, decoded exactly by a vote over the p^n F_p-combinations of each
received word (rank_broadcast_decode; the field order is capped, which bounds
its q x n candidate table and (rows, q) vote counts).

The protocol is protocols.run_basic itself: RankParams.context() gives a
RankContext (the Gabidulin privacy pair and the rank broadcast), which
run_basic and privacy_audit use in place of ProtocolContext.  The syndrome
map is injective on spans all of whose elements have rank below the code
distance; pseudobasis checks that bound on every extracted and recovered
error, in the code's own metric.

The rest is shared with the Hamming setting too: GabidulinCode is an
mds.LinearCode with the rank as its weight, transmissions run over
channels.ChannelSession (GeneralizedAdversary keeps channels.Adversary's
contract, with the taps arrays . lambda^T, deltas as her reply, and the
injection delta . mu), the privacy pair is
mds.PrivacyPair(GabidulinCode, n, t, f), and
privacy_audit(params, run_rank_protocol, adversary)
audits this setting, running the secret-independent prefix once per choice
of codewords.  The improved protocol has no rank variant yet.
"""

import types

import numpy as np

from . import gf
from .channels import Adversary, ChannelSession, ProtocolViolation, first_tap
from .mds import LinearCode, PrivacyPair
from .protocols import SessionParams, run_basic

DECODE_TABLE_LIMIT = 1 << 16


# Largest number of entries any one array of the combination helpers holds;
# longer batches go in row chunks.
_CHUNK_ENTRIES = 1 << 20


def _combinations(f, words):
    """Every F_p-combination of each word's entries, (B, n) -> (B, p^n):
    column sum_j v_j p^j holds sum_j v_j * words[:, j], so column 0 is 0."""
    acc = np.zeros((words.shape[0], 1), dtype=np.int64)
    for j in range(words.shape[1]):
        parts = [acc]  # acc + v_j * words[:, j] for v_j = 0, 1, ..., p - 1
        for _ in range(f.p - 1):
            parts.append(f.vadd(parts[-1], words[:, j : j + 1]))
        acc = np.concatenate(parts, axis=1)
    return acc


def _by_chunks(fn, rows, width):
    """fn over chunks of rows, each small enough that a (chunk, width) array
    stays within _CHUNK_ENTRIES; results concatenated."""
    step = max(1, _CHUNK_ENTRIES // width)
    return np.concatenate([fn(rows[i : i + step]) for i in range(0, max(len(rows), 1), step)])


def rank_of_batch(f, words):
    """Ranks of a stack of words, shape (B, n) -> (B,).

    A word of rank r has p^(n - r) combinations equal to zero (the kernel of
    v -> word . v on F_p^n), so the rank is n - log_p of that count.  A code
    word has n <= deg, so p^n <= q, within _CHUNK_ENTRIES; longer words are
    refused."""
    words = np.asarray(words, dtype=np.int64)
    n = words.shape[1]
    span = f.p**n
    if span > _CHUNK_ENTRIES:
        raise ValueError("%d^%d combinations per word exceed %d, the cap on one chunk"
                         % (f.p, n, _CHUNK_ENTRIES))
    zeros = _by_chunks(lambda w: np.count_nonzero(_combinations(f, w) == 0, axis=1),
                       words, span)
    return n - np.searchsorted(f.p ** np.arange(n + 1, dtype=np.int64), zeros)


class GabidulinCode(LinearCode):
    """[n, k] evaluations of polynomials sum a_i z^(q^i), i < k, at the
    first n monomial basis elements, which are F_q-independent.  MRD with
    rank distance n - k + 1 when the extension degree is >= n.  Encoding
    and syndromes are LinearCode's; weights are ranks."""

    def __init__(self, n, k, f):
        _check_shape(n, k, f)
        points = _monomials(n, f)
        self.n = n
        self.k = k
        self.field = f
        self.points = points
        self.d = n - k + 1
        G = f.zeros((k, n))
        row = points.copy()
        for i in range(k):
            G[i] = row
            row = f.vfrob(row)
        self.G = G
        self.H = gf.null_space(f, G)

    def weights(self, words):
        """Ranks of a stack of words."""
        return rank_of_batch(self.field, words)


def _check_shape(n, k, f):
    """Refuses an [n, k] rank code that F_q^n cannot hold: a prime field, k
    outside [1, n], or more F_q-independent points than the degree allows."""
    if not isinstance(f, gf.ExtensionField):
        raise ValueError("rank codes need an extension field")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n, got k=%d n=%d" % (k, n))
    if n > f.deg:
        raise ValueError("length %d exceeds extension degree %d" % (n, f.deg))


def _monomials(n, f):
    """The first n monomial basis elements 1, z, ..., z^(n-1), F_q-independent."""
    return np.array([f.p**i for i in range(n)], dtype=np.int64)


def _check_decode_cap(f):
    """Refuses a field past DECODE_TABLE_LIMIT, which bounds the rank
    broadcast's q x n candidate table and its (rows, q) vote counts."""
    if f.q > DECODE_TABLE_LIMIT:
        raise ValueError("field order %d exceeds %d, the cap on the rank broadcast's "
                         "q x n candidate table and (rows, q) vote counts"
                         % (f.q, DECODE_TABLE_LIMIT))


def rank_broadcast_code(n, f):
    """The [n, 1] rank code: one symbol c spread as c * g, g the first n
    monomials (GabidulinCode(n, 1, f)'s points), rank distance n.  Only what
    the rank broadcast reads is built: its words c * g for every c, and the
    vote's inverses.

    Independence makes g . v nonzero for every nonzero v in F_p^n, so the
    decoder's votes (r . v) / (g . v) are defined; the inverses 1 / (g . v)
    are kept here, in the column order of _combinations minus the zero
    column."""
    _check_decode_cap(f)
    _check_shape(n, 1, f)
    points = _monomials(n, f)
    return types.SimpleNamespace(
        n=n, field=f, points=points,
        cand_words=f.vmul(np.arange(f.q, dtype=np.int64)[:, None], points[None, :]),
        inv_gv=f.vinv(_combinations(f, points[None, :])[0, 1:]),
        # small enough (as at the audit sizes), a table per radius t holds every
        # word's decoded symbol (or -1), indexed by the word read as a base-q number
        places=f.q ** np.arange(n, dtype=np.int64) if f.q**n <= DECODE_TABLE_LIMIT else None,
        decode_tables={})


def rank_broadcast_encode(bcode, symbols):
    symbols = np.asarray(symbols, dtype=np.int64).reshape(-1)
    return bcode.cand_words[symbols]


def _vote_decode(bcode, t, arrays):
    """The symbol c with rank(r - c * g) <= t for each received row r, or -1
    where no symbol or several qualify.

    For v in F_p^n, (r - c * g) . v = 0 exactly when c = (r . v) / (g . v),
    so every nonzero v votes for one symbol, and c collects
    |ker(r - c * g)| - 1 = p^(n - rank(r - c * g)) - 1 votes: rank <= t
    exactly when c holds at least p^(n - t) - 1 of them.  This is the
    closest-codeword verdict of trying all q symbols, with p^n field
    operations per row and no rank computation."""
    f = bcode.field
    need = f.p ** (bcode.n - t) - 1

    def chunk(rows):
        votes = f.vmul(_combinations(f, rows)[:, 1:], bcode.inv_gv)
        votes += f.q * np.arange(len(rows), dtype=np.int64)[:, None]
        counts = np.bincount(votes.ravel(), minlength=len(rows) * f.q).reshape(-1, f.q)
        within = counts >= need
        return np.where(within.sum(axis=1) == 1, np.argmax(within, axis=1), -1)

    return _by_chunks(chunk, arrays, max(f.p**bcode.n, f.q))


def rank_broadcast_decode(bcode, t, arrays):
    """Closest codeword in rank distance, by the kernel vote of _vote_decode;
    with at most t rank of tampering the sent symbol is the unique candidate
    within radius t, and any row without one raises ProtocolViolation."""
    f = bcode.field
    arrays = np.asarray(arrays, dtype=np.int64)
    if bcode.places is None:
        out = _vote_decode(bcode, t, arrays)
    else:
        table = bcode.decode_tables.get(t)
        if table is None:
            words = np.arange(f.q**bcode.n, dtype=np.int64)[:, None] // bcode.places % f.q
            table = bcode.decode_tables[t] = _vote_decode(bcode, t, words)
        out = table[arrays @ bcode.places]
    if np.any(out < 0):
        raise ProtocolViolation("rank broadcast not uniquely decodable")
    return out


class GeneralizedAdversary(Adversary):
    """Fixed eavesdrop vectors lambda^(i) and tamper vectors mu^(i) in F_q^n.

    Her taps are the lambda-combinations of every array, (num_arrays, t);
    her reply is deltas of that shape, and the channel adds
    sum_i delta[b, i] * mu^(i) to array b.  Subclasses choose the deltas."""

    name = "rank-passive"

    def __init__(self, lambdas, mus, f):
        self.lambdas = np.asarray(lambdas, dtype=np.int64)
        self.mus = np.asarray(mus, dtype=np.int64)
        self.field = f
        if self.lambdas.ndim != 2 or self.mus.ndim != 2:
            raise ValueError("lambda and mu must be (t, n) arrays")
        for vecs, what in ((self.lambdas, "eavesdrop"), (self.mus, "tamper")):
            if vecs.size and (vecs.min() < 0 or vecs.max() >= f.p):
                raise ValueError("%s vectors live in the base field" % what)

    @property
    def t(self):
        return self.lambdas.shape[0]

    def check_length(self, n):
        if self.lambdas.shape[1] != n or self.mus.shape != self.lambdas.shape:
            raise ValueError("lambda and mu must both be (t, %d) arrays" % n)

    def tap(self, arrays):
        return gf.mat_mul(self.field, arrays, self.lambdas.T)

    def inject(self, arrays, taps, reply):
        return self.field.vadd(arrays, gf.mat_mul(self.field, reply, self.mus))


class RankPassiveAdversary(GeneralizedAdversary):
    pass


class RankFixedTamperAdversary(GeneralizedAdversary):
    """Constant deltas every transmission: delta_i = i + 1."""

    name = "rank-fixed-tamper"

    def tamper(self, direction, phase, taps, view):
        out = np.zeros(taps.shape, dtype=np.int64)
        out[:] = np.arange(1, taps.shape[1] + 1) % self.field.q
        return out


class RankTapReplayAdversary(GeneralizedAdversary):
    """Delivers her first transmission as sent, then replays its taps, the
    first in her view, as deltas (view-dependent, so the tampering varies
    with what was actually sent)."""

    name = "rank-tap-replay"

    def tamper(self, direction, phase, taps, view):
        first = first_tap(view)
        return None if taps is first else np.resize(first, taps.shape)


class RankNoiseAdversary(GeneralizedAdversary):
    """Uniform deltas from a private seeded stream."""

    name = "rank-noise"

    def __init__(self, lambdas, mus, f, seed):
        super().__init__(lambdas, mus, f)
        self.seed = seed
        self.reset()

    def reset(self):
        self.rng = np.random.default_rng(self.seed)

    def tamper(self, direction, phase, taps, view):
        return self.field.random(self.rng, taps.shape)


def random_generalized_adversary(n, t, f, rng):
    """Random nonzero lambda and mu vectors with uniform per-round deltas."""
    lam = rng.integers(0, f.p, size=(t, n)).astype(np.int64)
    mu = rng.integers(0, f.p, size=(t, n)).astype(np.int64)
    for arr in (lam, mu):
        for i in range(t):
            if not arr[i].any():
                arr[i, int(rng.integers(0, n))] = 1 + int(rng.integers(0, f.p - 1))
    return RankNoiseAdversary(lam, mu, f, int(rng.integers(0, 2**63 - 1)))


# The rank setting runs over the one ChannelSession.  The name stays because
# the benchmark's tracer wraps vars(rankmetric.RankChannelSession)["transmit"];
# it goes with the next change to the benchmark.
RankChannelSession = ChannelSession


class RankParams(SessionParams):
    """SessionParams over an extension field of degree at least n+1 (so the
    [n+1, t+1] Gabidulin parent exists) of order at most DECODE_TABLE_LIMIT,
    the rank broadcast's cap."""

    def _check_field(self):
        if not isinstance(self.field, gf.ExtensionField):
            raise ValueError("the rank protocol needs an extension field")
        if self.field.deg < self.n + 1:
            raise ValueError("extension degree %d too small for n=%d (need n+1)"
                             % (self.field.deg, self.n))
        _check_decode_cap(self.field)

    def context(self):
        """The rank setting: Gabidulin codes, the [n, 1] rank broadcast."""
        return RankContext(self)


class RankContext:
    """The rank counterpart of protocols.ProtocolContext: the Gabidulin
    privacy pair, and the [n, 1] rank code as the broadcast."""

    def __init__(self, params):
        self.params = params
        self.pair = PrivacyPair(GabidulinCode, params.n, params.t, params.field)
        self.code = self.pair.code
        self.bcast = rank_broadcast_code(params.n, params.field)

    def broadcast_encode(self, symbols):
        return rank_broadcast_encode(self.bcast, symbols)

    def broadcast_decode(self, arrays):
        return rank_broadcast_decode(self.bcast, self.params.t, arrays)


# RankParams choose the rank setting, so the rank protocol is run_basic.  The
# name stays: it is public API, and the benchmark's workloads call it and its
# tracer wraps vars(rankmetric)["run_rank_protocol"].
run_rank_protocol = run_basic


def rank_audit_adversaries(params):
    """Deterministic strategies for the rank privacy audit: passive, constant
    tamper, and tap replay, with weight-2 lambda and mu vectors."""
    f = params.field
    n, t = params.n, params.t
    lam = np.zeros((t, n), dtype=np.int64)
    mu = np.zeros((t, n), dtype=np.int64)
    for i in range(t):
        lam[i, i % n] = 1
        lam[i, (i + 1) % n] = 1
        mu[i, (i + 1) % n] = 1
        mu[i, (i + 2) % n] = 1
    return [
        RankPassiveAdversary(lam, mu, f),
        RankFixedTamperAdversary(lam, mu, f),
        RankTapReplayAdversary(lam, mu, f),
    ]

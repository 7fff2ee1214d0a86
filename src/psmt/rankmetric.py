"""Gabidulin codes and transmission against generalized adversaries.

Here the adversary does not sit on t fixed channels: she fixes t eavesdrop
vectors and t tamper vectors in F_q^n, reads the corresponding F_q-linear
combinations of every transmitted array, and adds sum_i delta_i * mu^(i) with
fresh delta_i from F_{q^m} per transmission.  Every injected error then has
rank at most t as an m x n matrix over F_q, so Hamming machinery is replaced
by the rank metric: Gabidulin codes (evaluations of linearized polynomials at
F_q-independent points) are MRD when m >= n, a rank privacy pair comes from
puncturing, and the single broadcast channel is replaced by the [n, 1] rank
code decoded by brute-force closest-codeword search (field size is capped so
this stays cheap).

The protocol is the two-round skeleton of protocols.run_basic, with
RankContext (the Gabidulin privacy pair and the rank broadcast) in place of
ProtocolContext.  The syndrome map is injective on spans all of whose
elements have rank below the code distance; pseudobasis checks that bound on
every extracted and recovered error, in the code's own metric.

The rest is shared with the Hamming setting too: transmissions run over
channels.ChannelSession (GeneralizedAdversary supplies the taps arrays .
lambda^T and the injection delta . mu), the privacy pair is an
mds.PrivacyPair, and rank_privacy_audit uses the enumeration of
privacy_audit, running the secret-independent prefix once per choice of
codewords for replay_safe strategies.
"""

import numpy as np

from . import gf
from .channels import ChannelSession, ProtocolViolation
from .mds import PrivacyPair
from .protocols import (
    DEFAULT_AUDIT_BUDGET,
    SessionParams,
    _exhaustive_audit,
    _run,
    _runner_step,
    _shared_prefix_step,
)

DECODE_TABLE_LIMIT = 1 << 16


def _base_field(f):
    if not hasattr(f, "_base_prime_field"):
        f._base_prime_field = gf.PrimeField(f.p)
    return f._base_prime_field


def rank_of(f, word):
    """Rank over F_q of the deg x n coefficient matrix of a word."""
    return int(rank_of_batch(f, np.asarray(word, dtype=np.int64)[None, :])[0])


def rank_of_batch(f, words):
    """Ranks of a stack of words, shape (B, n) -> (B,)."""
    words = np.asarray(words, dtype=np.int64)
    nb, n = words.shape
    if f.p == 2 and f.q <= 64 and (nb << n) <= (1 << 22):
        # span size over F_2 is the number of distinct XOR combinations,
        # counted as bits of an unsigned 64-bit mask
        acc = np.zeros((nb, 1), dtype=np.uint64)
        for j in range(n):
            acc = np.concatenate([acc, acc ^ words[:, j : j + 1].astype(np.uint64)], axis=1)
        masks = np.bitwise_or.reduce(np.uint64(1) << acc, axis=1)
        counts = np.bitwise_count(masks).astype(np.int64)
        return np.rint(np.log2(counts)).astype(np.int64)
    base = _base_field(f)
    out = np.zeros(nb, dtype=np.int64)
    for i in range(nb):
        mat = np.array([f.decode(int(v)) for v in words[i]], dtype=np.int64).T
        out[i] = gf.mat_rank(base, mat)
    return out


class GabidulinCode:
    """[n, k] evaluations of polynomials sum a_i z^(q^i), i < k, at n
    F_q-independent points (by default the first n monomial basis elements).
    MRD with rank distance n - k + 1 when the extension degree is >= n."""

    def __init__(self, n, k, f, points=None):
        if not isinstance(f, gf.ExtensionField):
            raise ValueError("rank codes need an extension field")
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n, got k=%d n=%d" % (k, n))
        if n > f.deg:
            raise ValueError("length %d exceeds extension degree %d" % (n, f.deg))
        if points is None:
            points = np.array([f.p**i for i in range(n)], dtype=np.int64)
        else:
            points = np.asarray(points, dtype=np.int64)
            if points.shape != (n,):
                raise ValueError("expected %d evaluation points" % n)
            if int(rank_of(f, points)) != n:
                raise ValueError("evaluation points must be F_q-independent")
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

    def encode(self, msg):
        msg = np.asarray(msg, dtype=np.int64)
        if msg.shape[-1] != self.k:
            raise ValueError("message length must be %d" % self.k)
        flat = msg.reshape(-1, self.k)
        out = gf.mat_mul(self.field, flat, self.G)
        return out.reshape(msg.shape[:-1] + (self.n,))

    def syndrome(self, word):
        word = np.asarray(word, dtype=np.int64)
        if word.shape[-1] != self.n:
            raise ValueError("word length must be %d" % self.n)
        flat = word.reshape(-1, self.n)
        out = gf.mat_mul(self.field, flat, self.H.T)
        return out.reshape(word.shape[:-1] + (self.n - self.k,))

    def random_codeword(self, rng, count=None):
        shape = (self.k,) if count is None else (count, self.k)
        return self.encode(self.field.random(rng, shape))

    def weights(self, words):
        """Ranks of a stack of words."""
        return rank_of_batch(self.field, words)


def rank_privacy_pair(n, t, f):
    """Needs extension degree >= n+1 so the [n+1, t+1] parent exists."""
    if t < 0 or t + 1 > n:
        raise ValueError("need 0 <= t <= n-1, got t=%d n=%d" % (t, n))
    parent = GabidulinCode(n + 1, t + 1, f)
    code = GabidulinCode(n, t + 1, f)
    for row in parent.H:
        if row[n]:
            return PrivacyPair(code, parent, row[:n].copy(), int(row[n]))
    # all parity rows ending in zero would put a rank-1 word in the parent
    raise AssertionError("no usable parity row (unreachable for d > 1)")


def rank_broadcast_code(n, f):
    """The [n, 1] rank code: one symbol spread as c * points, rank distance n."""
    if f.q > DECODE_TABLE_LIMIT:
        raise ValueError("field too large for brute-force broadcast decoding")
    code = GabidulinCode(n, 1, f)
    code.cand_words = f.vmul(np.arange(f.q, dtype=np.int64)[:, None], code.points[None, :])
    # small enough (as at the audit sizes), a table holds every word's rank,
    # indexed by the word read as a base-q number
    code.word_ranks = None
    if f.q**n <= DECODE_TABLE_LIMIT:
        code.places = f.q ** np.arange(n, dtype=np.int64)
        code.word_ranks = rank_of_batch(f, np.arange(f.q**n)[:, None] // code.places % f.q)
    return code


def rank_broadcast_encode(bcode, symbols):
    symbols = np.asarray(symbols, dtype=np.int64).reshape(-1)
    return bcode.cand_words[symbols]


def rank_broadcast_decode(bcode, t, arrays):
    """Brute-force closest codeword in rank distance; with at most t rank of
    tampering the sent symbol is the unique candidate within radius t."""
    f = bcode.field
    arrays = np.asarray(arrays, dtype=np.int64)
    nb = arrays.shape[0]
    diffs = f.vsub(arrays[:, None, :], bcode.cand_words[None, :, :])
    if bcode.word_ranks is not None:
        ranks = bcode.word_ranks[diffs @ bcode.places]
    else:
        ranks = rank_of_batch(f, diffs.reshape(nb * f.q, -1)).reshape(nb, f.q)
    within = ranks <= t
    if np.any(within.sum(axis=1) != 1):
        raise ProtocolViolation("rank broadcast not uniquely decodable")
    return np.argmax(within, axis=1).astype(np.int64)


class GeneralizedAdversary:
    """Fixed eavesdrop vectors lambda^(i) and tamper vectors mu^(i) in F_q^n.

    Per transmission she sees the lambda-combinations of every array and
    answers with delta values; the channel adds sum_i delta[b, i] * mu^(i) to
    array b.  Subclasses choose deltas.

    replay_safe marks strategies whose deltas() never mutates internal state
    after the first transmission of a session.  The privacy audit exploits it
    to share all secret-independent traffic between secret values; leave it
    False for anything with a stream or counter."""

    name = "rank-passive"
    replay_safe = False

    def __init__(self, lambdas, mus, f):
        self.lambdas = np.asarray(lambdas, dtype=np.int64)
        self.mus = np.asarray(mus, dtype=np.int64)
        self.field = f
        if self.lambdas.ndim != 2 or self.mus.ndim != 2:
            raise ValueError("lambda and mu must be (t, n) arrays")
        if self.lambdas.size and int(self.lambdas.max()) >= f.p:
            raise ValueError("eavesdrop vectors live in the base field")
        if self.mus.size and int(self.mus.max()) >= f.p:
            raise ValueError("tamper vectors live in the base field")

    @property
    def t(self):
        return self.lambdas.shape[0]

    def check_length(self, n):
        if self.lambdas.shape[1] != n or self.mus.shape != self.lambdas.shape:
            raise ValueError("lambda and mu must both be (t, %d) arrays" % n)

    def reset(self):
        pass

    def tap(self, arrays):
        return gf.mat_mul(self.field, arrays, self.lambdas.T)

    def reply(self, direction, phase, taps, view):
        return self.deltas(direction, phase, taps, view)

    def inject(self, arrays, taps, reply):
        if not reply.any():
            return arrays
        return self.field.vadd(arrays, gf.mat_mul(self.field, reply, self.mus))

    def deltas(self, direction, phase, taps, view):
        return np.zeros(taps.shape, dtype=np.int64)


class RankPassiveAdversary(GeneralizedAdversary):
    replay_safe = True


class RankFixedTamperAdversary(GeneralizedAdversary):
    """Constant deltas every transmission: delta_i = i + 1."""

    name = "rank-fixed-tamper"
    replay_safe = True

    def deltas(self, direction, phase, taps, view):
        out = np.zeros(taps.shape, dtype=np.int64)
        out[:] = np.arange(1, taps.shape[1] + 1) % self.field.q
        return out


class RankTapReplayAdversary(GeneralizedAdversary):
    """Replays her own recorded taps as deltas (view-dependent, so the
    tampering varies with what was actually sent)."""

    name = "rank-tap-replay"
    replay_safe = True

    def __init__(self, lambdas, mus, f):
        super().__init__(lambdas, mus, f)
        self.memory = None

    def reset(self):
        self.memory = None

    def deltas(self, direction, phase, taps, view):
        if self.memory is None:
            self.memory = taps.copy()
            return np.zeros(taps.shape, dtype=np.int64)
        flat = self.memory.reshape(-1)
        idx = np.arange(taps.size) % flat.size
        return flat[idx].reshape(taps.shape)


class RankNoiseAdversary(GeneralizedAdversary):
    """Uniform deltas from a private seeded stream."""

    name = "rank-noise"

    def __init__(self, lambdas, mus, f, seed):
        super().__init__(lambdas, mus, f)
        self.seed = seed
        self.reset()

    def reset(self):
        self.rng = np.random.default_rng(self.seed)

    def deltas(self, direction, phase, taps, view):
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
    [n+1, t+1] Gabidulin parent exists) small enough for brute-force rank
    broadcast decoding."""

    def _check_field(self):
        if not isinstance(self.field, gf.ExtensionField):
            raise ValueError("the rank protocol needs an extension field")
        if self.field.deg < self.n + 1:
            raise ValueError("extension degree %d too small for n=%d (need n+1)"
                             % (self.field.deg, self.n))
        if self.field.q > DECODE_TABLE_LIMIT:
            raise ValueError("field order %d exceeds the broadcast decode cap"
                             % self.field.q)


class RankContext:
    """The rank counterpart of protocols.ProtocolContext: the Gabidulin
    privacy pair, and the [n, 1] rank code as the broadcast."""

    def __init__(self, params):
        self.params = params
        self.pair = rank_privacy_pair(params.n, params.t, params.field)
        self.code = self.pair.code
        self.bcast = rank_broadcast_code(params.n, params.field)

    def broadcast_encode(self, symbols):
        return rank_broadcast_encode(self.bcast, symbols)

    def broadcast_decode(self, arrays):
        return rank_broadcast_decode(self.bcast, self.params.t, arrays)


def run_rank_protocol(params, secrets, adversary=None, rng=None, bob_words=None,
                      context=None, record_transcript=False):
    """The two-round skeleton of protocols.run_basic against a generalized
    adversary: random Gabidulin codewords down; pseudo-basis, then per secret
    a (syndrome || masked value) row back, every return symbol spread over
    the [n, 1] rank code."""
    ctx = context if context is not None else RankContext(params)
    return _run(ctx, secrets, adversary, rng, bob_words, record_transcript)


def rank_audit_adversaries(params, seed=0):
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


def rank_privacy_audit(params, adversary, budget=DEFAULT_AUDIT_BUDGET):
    """Exhaustive perfect-privacy check of run_rank_protocol against one
    deterministic generalized strategy; same enumeration and verdicts as the
    coordinate-model audit."""
    ctx = RankContext(params)
    if getattr(adversary, "replay_safe", False) and adversary.t > 0:
        step = _shared_prefix_step(params, run_rank_protocol, adversary, ctx)
    else:
        step = _runner_step(params, run_rank_protocol, adversary, ctx)
    return _exhaustive_audit(ctx.code, params.t + params.l, params.l, step, budget)

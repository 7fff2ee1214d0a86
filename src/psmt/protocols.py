"""Two-round transmission of secrets over n = 2t+1 channels.

Round 1 is Bob's: he sends uniformly random codewords of the [n, t+1] code
down the channels.  Round 2 is Alice's, entirely by broadcast: she publishes
a pseudo-basis of what she received, plus per secret a syndrome and the
secret masked with h . y, where (code, h) is a privacy pair, so t taps reveal
nothing about the mask.  Bob recovers each masked word's error from the
published data, rebuilds Alice's received word, and strips the mask.

The params choose the setting: SessionParams.context() gives a
ProtocolContext (Reed-Solomon codes, repetition broadcast), and
rankmetric.RankParams.context() a RankContext (Gabidulin codes, the rank
broadcast).  run_basic, run_improved and privacy_audit build their context
there unless one built for the params is given (another is refused);
rankmetric.run_rank_protocol is run_basic.

Every protocol runs on one skeleton, _run: _prefix (round one, the
pseudo-basis phase, the masked phase's secret-independent part) then
_deliver (the one broadcast that depends on the secrets).  A Protocol
description holds the rest: the round-one words beyond t+l, whether Alice
unique-decodes her words, a pseudo-basis pair (Alice's sender, Bob's
receiver) and the masked phase (an optional prefix step, payload, unmask).
The three pairs open alike, with the count and indices: plain (the words in
full, w n^2 symbols), packed (a special word exposing corrupted channels,
then the words in generalized broadcast, at most 4n^2 symbols) and the
incremental warm-up.  BASIC is plain with one (syndrome || masked secret)
row per secret, run by run_basic in either setting.  IMPROVED, run by
run_improved in the Hamming setting only, adds one word, Alice's one unique
decoding of her pseudo-basis and masked words, the packed pair, packed
syndromes and a double mask: 5n + O(n^2 / l) symbols per secret.  A
runner's protocol attribute names its description; privacy_audit reads the
word count there and runs the secret-independent prefix once per choice of
codewords.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import broadcast, gf, mds, pseudobasis
from .channels import (
    ALICE_TO_BOB,
    BOB_TO_ALICE,
    PHASE_MASKED,
    PHASE_PB_OVERHEAD,
    PHASE_PSEUDO_BASIS,
    PHASE_ROUND1,
    ChannelSession,
    PassiveAdversary,
    ProtocolViolation,
    RandomNoiseAdversary,
    ReplayAdversary,
    TargetedSyndromeAdversary,
    view_bytes,
)


@dataclass
class SessionParams:
    n: int
    t: int
    l: int
    field: object

    def __post_init__(self):
        if self.t < 1 or self.n != 2 * self.t + 1:
            raise ValueError("need n = 2t+1 with t >= 1, got n=%d t=%d" % (self.n, self.t))
        if self.l < 1:
            raise ValueError("need at least one secret, got l=%d" % self.l)
        self._check_field()

    def context(self):
        """The Hamming setting: Reed-Solomon codes, repetition broadcast."""
        return ProtocolContext(self)

    def _check_field(self):
        if self.field.q <= self.n + 1:
            raise ValueError("field order %d must exceed n+1=%d: the privacy pair "
                             "needs n+1 distinct nonzero evaluation points"
                             % (self.field.q, self.n + 1))


class ProtocolContext:
    """Codes reused across runs with identical parameters, and the broadcast
    of the Hamming setting: repetition on every channel, majority vote.  The
    broadcast functions are looked up on their module at every call, so a
    wrapper installed there sees each one."""

    def __init__(self, params):
        self.params = params
        self.pair = mds.PrivacyPair(mds.ReedSolomonCode, params.n, params.t, params.field)
        self.code = self.pair.code
        self.m_syn = (params.t + 1) // 2
        self._bcast = {}

    def bcast_code(self, m):
        if m not in self._bcast:
            self._bcast[m] = mds.ReedSolomonCode(self.params.n, m + 1, self.params.field)
        return self._bcast[m]

    def broadcast_encode(self, symbols):
        return broadcast.broadcast_encode(self.params.n, symbols)

    def broadcast_decode(self, arrays):
        return broadcast.broadcast_decode(arrays, self.params.t)


class RunResult:
    """What a run delivered: the secrets, the cost ledger, the transcript (or
    None), its stats, and view_key, canonical bytes of everything the
    adversary saw (b"" without an adversary).  Only audits read view_key,
    so a run's result builds it from the run's session on first access."""

    def __init__(self, secrets, ledger, transcript, stats, view_key=b""):
        self.secrets = secrets
        self.ledger = ledger
        self.transcript = transcript
        self.stats = stats
        self._view_key = view_key
        self._session = None

    @classmethod
    def _from_session(cls, session, secrets, stats):
        result = cls(secrets, session.ledger, session.transcript, stats)
        if session.adversary is not None:
            result._session = session
        return result

    @property
    def view_key(self):
        if self._session is not None:
            self._view_key = self._session.view_key()
            self._session = None
        return self._view_key


def _index_width(count, q):
    """Digits of base q needed to name words 0 .. count-1."""
    d = 1
    while q**d < count:
        d += 1
    return d


def _encode_indices(indices, width, q):
    """Each index as width base-q digits, least significant first."""
    return np.array([(v // q**j) % q for v in indices for j in range(width)],
                    dtype=np.int64)


def _decode_indices(symbols, width, q):
    return [sum(int(symbols[i + j]) * q**j for j in range(width))
            for i in range(0, len(symbols), width)]


def _masked_indices(num_words, pb_indices, l):
    """First l word indices outside the pseudo-basis, in order; there are
    always l, since a pseudo-basis has at most t of the t+l or more words."""
    inside = set(pb_indices)
    return [i for i in range(num_words) if i not in inside][:l]


def _check_secrets(params, secrets):
    """The l secrets as a flat int64 array, refusing any other count or
    out-of-field values."""
    secrets = params.field.check_array(secrets).reshape(-1)
    if secrets.shape != (params.l,):
        raise ValueError("expected %d secrets" % params.l)
    return secrets


def _round_one_words(code, num_words, rng, bob_words):
    """Bob's round-one codewords: the given ones, or fresh random ones."""
    if bob_words is None:
        if rng is None:
            rng = np.random.default_rng()
        return code.random_codeword(rng, num_words)
    X = np.asarray(bob_words)
    if X.shape != (num_words, code.n):
        raise ValueError("expected bob_words of shape (%d, %d), got %s"
                         % (num_words, code.n, X.shape))
    X = code.field.check_array(X)
    if code.syndrome(X).any():
        raise ValueError("bob_words must be codewords of the [%d, %d] code" % (code.n, code.k))
    return X


def _publish(session, arrays, phase):
    """Alice's round-two transmission, public to the adversary."""
    return session.transmit(ALICE_TO_BOB, arrays, phase, public=True)


# The pseudo-basis pairs.  Alice's sender (ctx, session, pb, width, decoded)
# publishes her pseudo-basis and returns what was delivered; decoded is her
# unique decoding of the pseudo-basis words, or None in a protocol where she
# decodes nothing.  Bob's receiver (ctx, delivered, originals, width) turns
# that into his error basis and the run's pseudo-basis stats.  width is the
# number of base-q digits per word index.

def _announce(ctx, session, pb, width, extra=None):
    """Every pair's opening: the count w, then, if w > 0, the w indices and
    any extra symbols, all in plain broadcast."""
    delivered = {"marker": _publish(session, ctx.broadcast_encode([len(pb)]),
                                    PHASE_PB_OVERHEAD)}
    if len(pb):
        head = _encode_indices(pb.indices, width, ctx.params.field.q)
        if extra is not None:
            head = np.concatenate([head, extra])
        delivered["head"] = _publish(session, ctx.broadcast_encode(head), PHASE_PB_OVERHEAD)
    return delivered


def _read_announcement(ctx, delivered, num_words, width):
    """Bob's side of _announce: the indices and the extra symbols.  Refuses
    what no in-model run can produce: more than t words, or indices that
    repeat or name no word."""
    w = int(ctx.broadcast_decode(delivered["marker"])[0])
    if w > min(ctx.params.t, num_words):
        raise ProtocolViolation("announced pseudo-basis larger than t")
    if not w:
        return [], None
    head = ctx.broadcast_decode(delivered["head"])
    idx = _decode_indices(head[:w * width], width, ctx.params.field.q)
    if len(set(idx)) != w or max(idx) >= num_words:
        raise ProtocolViolation("pseudo-basis indices out of range")
    return idx, head[w * width:]


def _error_basis(code, idx, words, originals):
    """Bob's error basis from the pseudo-basis words he received."""
    pb = pseudobasis.PseudoBasis(idx, words, code.syndrome(words))
    return pseudobasis.extract_error_basis(code, pb, originals)


def send_plain(ctx, session, pb, width, decoded):
    """The basic pair's sender: the words in plain broadcast, w n^2 symbols."""
    delivered = _announce(ctx, session, pb, width)
    if len(pb):
        delivered["words"] = _publish(session, ctx.broadcast_encode(pb.words.reshape(-1)),
                                      PHASE_PSEUDO_BASIS)
    return delivered


def receive_plain(ctx, delivered, originals, width):
    """Bob decodes the broadcast words."""
    idx, _ = _read_announcement(ctx, delivered, originals.shape[0], width)
    stats = {"w": len(idx), "pb_indices": idx}
    if not idx:
        return pseudobasis.empty_error_basis(ctx.code), stats
    words = ctx.broadcast_decode(delivered["words"]).reshape(len(idx), ctx.params.n)
    return _error_basis(ctx.code, idx, words, originals), stats


def special_word_search(f, words, decoded, t):
    """A broadcast-worthy combination of the w pseudo-basis words whose true
    error weight is at least min(w, t/3).

    decoded is Alice's unique decoding of the words, (codewords, errors, ok)
    as unique_decode_batch returns it; the search decodes nothing itself.
    Tries, in order: a word that fails unique decoding; a word whose decoded
    error already has weight > t/3; an accumulated combination sum lambda_i *
    y^(i) whose accumulated decoded error passes weight t/3, choosing each
    lambda as the smallest nonzero value that keeps every previously hit
    coordinate nonzero; and finally the full accumulated combination.

    Returns (word, mu) with mu the coefficient vector over the words' order.
    """
    w = len(words)
    _, E, ok = decoded
    single = np.nonzero(~ok)[0]
    if not single.size:
        single = np.nonzero(3 * np.count_nonzero(E, axis=1) > t)[0]
    if single.size:
        mu = f.zeros(w)
        mu[single[0]] = 1
        return words[single[0]].copy(), mu
    mu = f.zeros(w)
    mu[0] = 1
    acc_err = E[0].copy()
    acc_word = words[0].copy()
    for i in range(1, w):
        if 3 * np.count_nonzero(acc_err) > t:
            break
        # the lambdas that would cancel a hit coordinate
        both = (acc_err != 0) & (E[i] != 0)
        banned = set(f.vmul(f.vneg(acc_err[both]), f.vinv(E[i][both])).tolist())
        lam = 1
        while lam in banned:
            lam += 1
        mu[i] = lam
        acc_err = f.vadd(acc_err, f.vmul(np.int64(lam), E[i]))
        acc_word = f.vadd(acc_word, f.vmul(np.int64(lam), words[i]))
    return acc_word, mu


def send_packed(ctx, session, pb, width, decoded):
    """The improved pair's sender: the combination coefficients after the
    indices, the special word in plain broadcast, then the words packed
    m-fold with m = min(w, floor(t/3)), each costing ceil(n / (m+1))
    arrays."""
    t, f = ctx.params.t, ctx.params.field
    w = len(pb)
    if not w:
        return _announce(ctx, session, pb, width)
    special, mu = special_word_search(f, pb.words, decoded, t)
    delivered = _announce(ctx, session, pb, width, mu)
    delivered["special"] = _publish(session, ctx.broadcast_encode(special), PHASE_PSEUDO_BASIS)
    m = min(w, t // 3)
    delivered["blocks"] = _publish(
        session, broadcast.gen_broadcast_encode(ctx.bcast_code(m), pb.words), PHASE_PSEUDO_BASIS)
    return delivered


def receive_packed(ctx, delivered, originals, width):
    """Bob decodes the special word, takes the channels it exposes as
    erasures, and decodes the packed words."""
    n, t, f = ctx.params.n, ctx.params.t, ctx.params.field
    idx, mu = _read_announcement(ctx, delivered, originals.shape[0], width)
    w = len(idx)
    if not w:
        return pseudobasis.empty_error_basis(ctx.code), {"w": 0, "special_weight": None,
                                                         "pb_indices": []}
    special = ctx.broadcast_decode(delivered["special"])
    expected = gf.mat_mul(f, mu[None, :], originals[idx])[0]
    bad = np.nonzero(f.vsub(special, expected))[0]
    if 3 * len(bad) < min(3 * w, t):
        raise ProtocolViolation("special word exposes too few corrupted channels")
    if len(bad) > t:
        raise ProtocolViolation("special word exposes more than t channels")
    m = min(w, t // 3)
    flat = broadcast.gen_broadcast_decode(ctx.bcast_code(m), t, delivered["blocks"], bad)
    words = flat.reshape(w, -(-n // (m + 1)) * (m + 1))[:, :n]
    stats = {"w": w, "special_weight": len(bad), "pb_indices": idx}
    return _error_basis(ctx.code, idx, words, originals), stats


def send_incremental(ctx, session, pb, width, decoded):
    """A warm-up sender: the i-th word (1-based) goes out packed (i-1)-fold,
    costing ceil(n/i) arrays, since Bob will know i-1 corrupted channels by
    then."""
    delivered = _announce(ctx, session, pb, width)
    delivered["blocks"] = [
        _publish(session, broadcast.gen_broadcast_encode(ctx.bcast_code(i), word),
                 PHASE_PSEUDO_BASIS)
        for i, word in enumerate(pb.words)]
    return delivered


def receive_incremental(ctx, delivered, originals, width):
    """Bob decodes word i erasing the channels exposed by words 1 .. i-1,
    whose independent-syndrome errors must cover at least i-1 channels."""
    n, t, f = ctx.params.n, ctx.params.t, ctx.params.field
    idx, _ = _read_announcement(ctx, delivered, originals.shape[0], width)
    stats = {"w": len(idx), "pb_indices": idx}
    if not idx:
        return pseudobasis.empty_error_basis(ctx.code), stats
    known = set()
    words = f.zeros((len(idx), n))
    for i, blocks in enumerate(delivered["blocks"]):
        words[i] = broadcast.gen_broadcast_decode(ctx.bcast_code(i), t, blocks,
                                                  sorted(known))[:n]
        known.update(int(c) for c in np.nonzero(f.vsub(words[i], originals[idx[i]]))[0])
        if len(known) < i:
            raise ProtocolViolation("pseudo-basis words expose too few channels")
        if len(known) > t:
            raise ProtocolViolation("more than t channels exposed")
    return _error_basis(ctx.code, idx, words, originals), stats


# What the prefix leaves for the masked phase: Alice's masked words, their
# syndromes and masks, her unique decoding of them (or None), Bob's codewords
# sent at his masked indices, his error basis, the stats, and what the masked
# phase's prefix step added.
_Prefix = namedtuple("_Prefix", "words syndromes mask decoded originals eb stats extra")


def _payload(ctx, state, secrets):
    """The basic masked phase, Alice's side, for secrets of shape (..., l):
    per secret a (syndrome || secret + mask) row of t+1 symbols."""
    t = ctx.params.t
    z = ctx.params.field.vadd(secrets, state.mask)
    rows = np.empty(z.shape + (t + 1,), dtype=np.int64)
    rows[..., :t] = state.syndromes
    rows[..., t] = z
    return rows.reshape(-1)


def _unmask(ctx, state, symbols):
    """Bob's side of _payload, for one or more secret vectors: recovers each
    masked word's error from its syndrome, rebuilds Alice's received word and
    strips the mask.  Returns the secrets, one row per secret vector."""
    n, t, l, f = ctx.params.n, ctx.params.t, ctx.params.l, ctx.params.field
    rows = symbols.reshape(-1, l, t + 1)
    errors = pseudobasis.recover_error(ctx.code, state.eb, rows[..., :t].reshape(-1, t))
    y = f.vadd(state.originals, errors.reshape(-1, l, n))
    return f.vsub(rows[..., t], ctx.pair.mask(y))


def _pack_syndromes(ctx, session, state):
    """The improved masked phase's prefix step.  Alice publishes her masked
    words' syndromes packed ceil(t/2)-fold and takes her second masks from
    their unique decoding, state.decoded, which the prefix made together
    with her pseudo-basis words' decoding; Bob's branch follows from the
    channels his error basis exposes."""
    blocks = _publish(session, broadcast.gen_broadcast_encode(ctx.bcast_code(ctx.m_syn),
                                                              state.syndromes), PHASE_MASKED)
    decoded, _, ok = state.decoded
    state.stats["support_size"] = len(state.eb.support)
    state.stats["branch"] = "syndromes" if 2 * len(state.eb.support) >= ctx.params.t else "direct"
    return state._replace(extra=(blocks, ctx.pair.mask(decoded), ok))


def _double_payload(ctx, state, secrets):
    """Per secret z1 = secret + the mask of Alice's word and z2 = secret +
    the mask of its unique decoding, or 0 where that failed."""
    f = ctx.params.field
    _, mask2, ok = state.extra
    z1 = f.vadd(secrets, state.mask)
    z2 = np.where(ok, f.vadd(secrets, mask2), 0)
    return np.stack([z1, z2], axis=-1).reshape(-1)


def _double_unmask(ctx, state, symbols):
    """With at least t/2 exposed channels Bob decodes the packed syndromes,
    rebuilds Alice's words and strips z1; otherwise every masked word had so
    few errors that Alice's decoding was right, and z2 against his sent
    codeword does it."""
    t, l, f = ctx.params.t, ctx.params.l, ctx.params.field
    zz = symbols.reshape(-1, l, 2)
    if state.stats["branch"] == "direct":
        return f.vsub(zz[..., 1], ctx.pair.mask(state.originals))
    flat = broadcast.gen_broadcast_decode(ctx.bcast_code(ctx.m_syn), t, state.extra[0],
                                          state.eb.support)
    errors = pseudobasis.recover_error(ctx.code, state.eb, flat.reshape(l, -1)[:, :t])
    return f.vsub(zz[..., 0], ctx.pair.mask(f.vadd(state.originals, errors)))


# A protocol: the round-one words it sends beyond t+l, whether Alice
# unique-decodes her pseudo-basis and masked words, its pseudo-basis pair,
# and its masked phase as an optional prefix step (ctx, session, state) ->
# state, payload(ctx, state, secrets) and unmask(ctx, state, symbols).
Protocol = namedtuple("Protocol", "extra_words decodes send receive prepare payload unmask")
BASIC = Protocol(0, False, send_plain, receive_plain, None, _payload, _unmask)
IMPROVED = Protocol(1, True, send_packed, receive_packed, _pack_syndromes, _double_payload,
                    _double_unmask)


def _prefix(ctx, proto, session, X):
    """Round one, the pseudo-basis phase and the masked phase's prefix step.
    Nothing here depends on the secrets, so an audit can run it once for
    many of them."""
    l = ctx.params.l
    num_words = X.shape[0]
    width = _index_width(num_words, ctx.params.field.q)

    # round 1: Bob -> Alice
    Y = session.transmit(BOB_TO_ALICE, X, PHASE_ROUND1)

    # round 2 opens with Alice's pseudo-basis; Bob learns the errors on its words
    pb = pseudobasis.compute_pseudo_basis(ctx.code, Y)
    masked = _masked_indices(num_words, pb.indices, l)
    pb_decoded = decoded = None
    if proto.decodes:
        # Alice's one decoder call: her pseudo-basis words, then her masked words
        both = ctx.code.unique_decode_batch(Y[pb.indices + masked])
        pb_decoded = tuple(a[:len(pb)] for a in both)
        decoded = tuple(a[len(pb):] for a in both)
    eb, stats = proto.receive(ctx, proto.send(ctx, session, pb, width, pb_decoded), X, width)
    stats["masked_indices"] = masked
    words = Y[masked]
    state = _Prefix(words, pb.all_syndromes[masked], ctx.pair.mask(words), decoded,
                    X[_masked_indices(num_words, eb.indices, l)], eb, stats, None)
    return proto.prepare(ctx, session, state) if proto.prepare else state


def _deliver(ctx, proto, session, state, secrets):
    """The masked phase's one broadcast, the only transmission whose content
    depends on the secrets.  Returns what Bob recovers."""
    got = _publish(session, ctx.broadcast_encode(proto.payload(ctx, state, secrets)),
                   PHASE_MASKED)
    return proto.unmask(ctx, state, ctx.broadcast_decode(got))[0]


def _check_setting(ctx, proto):
    """Refuses a protocol the context's setting has no variant of: over a
    RankContext only BASIC runs."""
    if proto is not BASIC and not isinstance(ctx, ProtocolContext):
        raise ValueError("only the basic protocol has a rank-metric variant")


def _run(ctx, proto, secrets, adversary, rng, bob_words, record_transcript):
    """The two-round skeleton: protocol proto over ctx's code, privacy pair
    and broadcast."""
    _check_setting(ctx, proto)
    params = ctx.params
    secrets = _check_secrets(params, secrets)
    session = ChannelSession(params.n, params.t, params.field, adversary, record_transcript)
    X = _round_one_words(ctx.code, params.t + params.l + proto.extra_words, rng, bob_words)
    state = _prefix(ctx, proto, session, X)
    out = _deliver(ctx, proto, session, state, secrets)
    return RunResult._from_session(session, out, state.stats)


def _context(params, context):
    """params.context(), or the given context if it was built for params:
    for the very object (every library caller) or an equal one."""
    if context is None:
        return params.context()
    if context.params is not params and context.params != params:
        raise ValueError("context built for %r, not for %r" % (context.params, params))
    return context


def run_basic(params, secrets, adversary=None, rng=None, bob_words=None,
              context=None, record_transcript=False):
    """The plain two-round protocol: pseudo-basis words broadcast in full, in
    the setting of params unless a context built for them is given."""
    return _run(_context(params, context), BASIC, secrets, adversary, rng, bob_words,
                record_transcript)


def run_improved(params, secrets, adversary=None, rng=None, bob_words=None,
                 context=None, record_transcript=False):
    """The 5n + O(n^2/l) protocol: special word, packed pseudo-basis, packed
    syndromes, and the double mask.  Hamming setting only."""
    return _run(_context(params, context), IMPROVED, secrets, adversary, rng, bob_words,
                record_transcript)


# functools.wraps copies these; a runner without one counts as basic
run_basic.protocol = BASIC
run_improved.protocol = IMPROVED


class AuditBudgetExceeded(RuntimeError):
    def __init__(self, required, budget):
        super().__init__(
            "audit needs %d protocol runs, budget allows %d" % (required, budget))
        self.required = required
        self.budget = budget


def _distinguishing_view(base, other, views):
    """Hex of the smallest view, in byte order, whose multiplicity separates
    two secret values; the counters hold indices into views."""
    differ = [views[i] for i in base.keys() | other.keys() if base.get(i, 0) != other.get(i, 0)]
    return min(differ).hex()[:120] if differ else "<none>"


@dataclass
class AuditReport:
    passed: bool
    runs: int
    num_views: int
    detail: str


DEFAULT_AUDIT_BUDGET = 1 << 22


def _runner_step(params, runner, adversary, ctx, X, secrets, first):
    """Audit step that calls the runner afresh for every secret value."""
    for s in secrets:
        result = runner(params, s, adversary, bob_words=X, context=ctx)
        yield result.secrets, result.view_key


def _shared_prefix_step(params, runner, adversary, ctx, X, secrets, first):
    """Audit step for a runner naming its protocol: _shared_runs, checked on
    the first choice against the runner's own runs by secrets, view key and
    the masked block their transcript delivered, the adversary's reply."""
    outs, keys, blocks = _shared_runs(ctx, runner.protocol, adversary, X, secrets)
    for s in range(secrets.shape[0]):
        yield outs[s], keys[s]
        if first:
            ref = runner(params, secrets[s], adversary, bob_words=X, context=ctx,
                         record_transcript=True)
            if (ref.view_key != keys[s] or not np.array_equal(ref.secrets, outs[s])
                    or not np.array_equal(ref.transcript.records[-1][4], blocks[s])):
                raise RuntimeError("shared-prefix audit path diverged from a fresh run")


def _shared_runs(ctx, proto, adversary, X, secrets):
    """Runs of proto on Bob's codewords X, one per row of secrets, sharing
    one _prefix.  Each row gets only the masked phase, on the view cut back
    to where the prefix left it and with the adversary put back in her state
    of then, so it is exactly the fresh run.  Returns, per row, the secrets
    Bob recovers, the view key and the masked block delivered."""
    n, t, f = ctx.params.n, ctx.params.t, ctx.params.field
    session = ChannelSession(n, t, f, adversary)
    state = _prefix(ctx, proto, session, X)
    view = session.eve_view
    base = len(view)
    prefix = view_bytes(view)
    num = secrets.shape[0]
    sent = ctx.broadcast_encode(proto.payload(ctx, state, secrets))
    if session.active:
        restore = _snapshot(adversary)
        taps = adversary.tap(sent).reshape(num, -1, adversary.t)
    sent = sent.reshape(num, -1, n)
    blocks, keys = [], []
    for s in range(num):
        del view[base:]
        block = sent[s]
        if session.active:
            restore()
            block = session.intercept(ALICE_TO_BOB, PHASE_MASKED, block, taps[s])
        view.append(("public", ALICE_TO_BOB, PHASE_MASKED, sent[s]))
        blocks.append(block)
        keys.append(b"" if adversary is None else prefix + view_bytes(view[base:]))
    outs = proto.unmask(ctx, state, ctx.broadcast_decode(np.concatenate(blocks)))
    return outs, keys, blocks


def _snapshot(adversary):
    """A function putting the adversary back in her present state: a shallow
    copy of her attributes, for state she reassigns (a replay memory), and
    the state of each numpy Generator among them (her noise)."""
    attrs = dict(vars(adversary))
    gens = [(g, g.bit_generator.state) for g in attrs.values() if isinstance(g, np.random.Generator)]

    def restore():
        adversary.__dict__ = dict(attrs)
        for g, state in gens:
            g.bit_generator.state = state

    return restore


def privacy_audit(params, runner, adversary, budget=DEFAULT_AUDIT_BUDGET):
    """Exhaustive perfect-privacy check against one deterministic strategy,
    in the setting of params.

    Enumerates every choice of Bob's random codewords and every secret vector,
    runs the protocol, and compares the multiset of adversary views across
    secret values: perfect privacy holds iff the multisets coincide.  Every
    run is also required to deliver its secrets exactly, and the audit stops
    at the first delivery failure.  Raises AuditBudgetExceeded (reporting the
    exact need) rather than sampling.  A runner that names its protocol
    (run_basic, run_improved, a functools.wraps wrapper of either) runs one
    shared prefix per choice of codewords and is checked against itself on
    the first choice only; any other runner counts as basic and is called
    for every run."""
    ctx = params.context()
    proto = getattr(runner, "protocol", BASIC)
    _check_setting(ctx, proto)
    # per choice of codewords, a step lazily yields (secrets delivered, view
    # key) for each row of secrets in turn, so a failure stops it there
    step = _shared_prefix_step if hasattr(runner, "protocol") else _runner_step
    code, l, q = ctx.code, params.l, params.field.q
    num_words = params.t + l + proto.extra_words
    nmsg = q**code.k
    choices = nmsg**num_words
    num_secrets = q**l
    required = choices * num_secrets
    if required > budget:
        raise AuditBudgetExceeded(required, budget)
    views = {}  # view bytes -> index, one table for all secret values
    counters = [dict() for _ in range(num_secrets)]
    secrets = _encode_indices(range(num_secrets), l, q).reshape(num_secrets, l)
    word_table = code.encode(_encode_indices(range(nmsg), code.k, q).reshape(nmsg, code.k))
    runs = 0
    for choice in range(choices):
        X = word_table[_encode_indices([choice], num_words, nmsg)]
        first = choice == 0
        for s, (out, key) in enumerate(step(params, runner, adversary, ctx, X, secrets, first)):
            runs += 1
            if not np.array_equal(out, secrets[s]):
                return AuditReport(False, runs, 0,
                                   "reliability failure at secrets=%s" % secrets[s])
            i = views.setdefault(key, len(views))
            counters[s][i] = counters[s].get(i, 0) + 1
    base = counters[0]
    for s in range(1, num_secrets):
        if counters[s] != base:
            return AuditReport(
                False, runs, len(base),
                "view multisets differ between secrets 0 and %d; "
                "distinguishing view (hex) %s"
                % (s, _distinguishing_view(base, counters[s], list(views))))
    return AuditReport(True, runs, len(base), "all %d secret values give identical "
                       "view multisets" % num_secrets)


def audit_adversaries(params, seed=0):
    """The deterministic strategies privacy is audited against: passive,
    targeted-syndrome, replay, and noise from a pinned seed, all on the first
    t channels."""
    f = params.field
    chans = tuple(range(params.t))
    return [
        PassiveAdversary(chans, f),
        TargetedSyndromeAdversary(chans, f),
        ReplayAdversary(chans, f),
        RandomNoiseAdversary(chans, f, seed=seed + 12345),
    ]

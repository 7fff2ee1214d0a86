"""Two-round transmission of secrets over n = 2t+1 channels.

Round 1 is Bob's: he sends uniformly random codewords of the [n, t+1] code
down the channels.  Round 2 is Alice's, entirely by broadcast: she publishes
a pseudo-basis of what she received, plus per secret a syndrome and the
secret masked with h . y, where (code, h) is a privacy pair, so t taps reveal
nothing about the mask.  Bob recovers each masked word's error from the
published data, rebuilds Alice's received word, and strips the mask.

run_basic broadcasts the pseudo-basis words plainly (w * n^2 symbols).  It
is one skeleton, _prefix (round one, the pseudo-basis phase) then _deliver
(one broadcast of a (syndrome || masked secret) row per secret), over the
codes and broadcast of its context; rankmetric.run_rank_protocol runs the
same skeleton with Gabidulin codes and the rank broadcast.
run_improved sends a "special word" exposing many corrupted channels first
and then uses generalized broadcast, capping the phase at 4n^2 symbols and
the total at 5n + O(n^2 / l) per secret.
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
        self.pair = mds.build_privacy_pair(params.n, params.t, params.field)
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
    """First l word indices outside the pseudo-basis, in order."""
    inside = set(pb_indices)
    out = [i for i in range(num_words) if i not in inside][:l]
    if len(out) < l:
        raise ProtocolViolation("pseudo-basis too large to leave %d masked words" % l)
    return out


def _check_pseudo_basis(w, t, num_words, indices=None):
    """Refuses an announced pseudo-basis no in-model run can produce: more
    than t words, or (once decoded) indices that repeat or name no word."""
    if w > min(t, num_words):
        raise ProtocolViolation("announced pseudo-basis larger than t")
    if indices is not None and (len(set(indices)) != w or max(indices) >= num_words):
        raise ProtocolViolation("pseudo-basis indices out of range")


def _check_secrets(params, secrets):
    """The l secrets as a flat int64 array, refusing any other count or
    out-of-field values."""
    secrets = params.field.check_array(np.asarray(secrets, dtype=np.int64).reshape(-1))
    if secrets.shape != (params.l,):
        raise ValueError("expected %d secrets" % params.l)
    return secrets


def _round_one_words(code, num_words, rng, bob_words):
    """Bob's round-one codewords: the given ones, or fresh random ones."""
    if bob_words is None:
        if rng is None:
            rng = np.random.default_rng()
        return code.random_codeword(rng, num_words)
    X = np.asarray(bob_words, dtype=np.int64)
    if X.shape != (num_words, code.n):
        raise ValueError("expected bob_words of shape (%d, %d), got %s"
                         % (num_words, code.n, X.shape))
    return X


# What _prefix leaves for the masked phase: Alice's syndromes and masks of her
# masked words, Bob's codewords sent at his masked indices and his error basis.
_Prefix = namedtuple("_Prefix", "syndromes mask originals eb stats")


def _prefix(ctx, session, X):
    """Round one, the pseudo-basis phase and Bob's error basis.  Nothing here
    depends on the secrets, so an audit can run it once for many of them."""
    n, t, l, f = ctx.params.n, ctx.params.t, ctx.params.l, ctx.params.field
    code = ctx.code
    num_words = t + l
    width = _index_width(num_words, f.q)

    # round 1: Bob -> Alice
    Y = session.transmit(BOB_TO_ALICE, X, PHASE_ROUND1)

    # round 2 opens with Alice's pseudo-basis, broadcast in full
    pb = pseudobasis.compute_pseudo_basis(code, Y)
    w = len(pb)
    masked = _masked_indices(num_words, pb.indices, l)
    got_marker = session.transmit(
        ALICE_TO_BOB, ctx.broadcast_encode([w]), PHASE_PB_OVERHEAD, public=True)
    if w:
        got_idx = session.transmit(
            ALICE_TO_BOB, ctx.broadcast_encode(_encode_indices(pb.indices, width, f.q)),
            PHASE_PB_OVERHEAD, public=True)
        got_words = session.transmit(
            ALICE_TO_BOB, ctx.broadcast_encode(pb.words.reshape(-1)),
            PHASE_PSEUDO_BASIS, public=True)

    # Bob learns the errors on the pseudo-basis words
    w_bob = int(ctx.broadcast_decode(got_marker)[0])
    _check_pseudo_basis(w_bob, t, num_words)
    if w_bob:
        idx_bob = _decode_indices(ctx.broadcast_decode(got_idx), width, f.q)
        _check_pseudo_basis(w_bob, t, num_words, idx_bob)
        words_bob = ctx.broadcast_decode(got_words).reshape(w_bob, n)
        pb_bob = pseudobasis.PseudoBasis(idx_bob, words_bob, code.syndrome(words_bob))
        eb = pseudobasis.extract_error_basis(code, pb_bob, X)
    else:
        idx_bob = []
        eb = pseudobasis.empty_error_basis(code)
    masked_bob = _masked_indices(num_words, idx_bob, l)
    stats = {"w": w, "pb_indices": list(pb.indices), "masked_indices": masked}
    return _Prefix(code.syndrome(Y[masked]), ctx.pair.mask(Y[masked]), X[masked_bob],
                   eb, stats)


def _payload(ctx, state, secrets):
    """Alice's masked-phase symbols for secrets of shape (..., l): per secret
    a (syndrome || secret + mask) row of t+1 symbols."""
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


def _deliver(ctx, session, state, secrets):
    """The masked phase: one broadcast carrying the l payload rows, the only
    transmission whose content depends on the secrets.  Returns what Bob
    recovers."""
    got = session.transmit(ALICE_TO_BOB, ctx.broadcast_encode(_payload(ctx, state, secrets)),
                           PHASE_MASKED, public=True)
    return _unmask(ctx, state, ctx.broadcast_decode(got))[0]


def _run(ctx, secrets, adversary, rng, bob_words, record_transcript):
    """The two-round skeleton over ctx's code, privacy pair and broadcast."""
    params = ctx.params
    secrets = _check_secrets(params, secrets)
    session = ChannelSession(params.n, params.t, params.field, adversary, record_transcript)
    X = _round_one_words(ctx.code, params.t + params.l, rng, bob_words)
    state = _prefix(ctx, session, X)
    out = _deliver(ctx, session, state, secrets)
    return RunResult._from_session(session, out, state.stats)


def run_basic(params, secrets, adversary=None, rng=None, bob_words=None,
              context=None, record_transcript=False):
    """The plain two-round protocol: pseudo-basis words broadcast in full."""
    ctx = context if context is not None else ProtocolContext(params)
    return _run(ctx, secrets, adversary, rng, bob_words, record_transcript)


def special_word_search(code, pb, t):
    """A broadcast-worthy combination of pseudo-basis words whose true error
    weight is at least min(w, t/3).

    Tries, in order: a word that fails unique decoding; a word whose decoded
    error already has weight > t/3; an accumulated combination sum lambda_i *
    y^(i) whose accumulated decoded error passes weight t/3, choosing each
    lambda as the smallest nonzero value that keeps every previously hit
    coordinate nonzero; and finally the full accumulated combination.

    Returns (word, mu) with mu the coefficient vector over pb order.
    """
    f = code.field
    w = len(pb)
    X, E, ok = code.unique_decode_batch(pb.words)
    single = np.nonzero(~ok)[0]
    if not single.size:
        single = np.nonzero(3 * np.count_nonzero(E, axis=1) > t)[0]
    if single.size:
        mu = f.zeros(w)
        mu[single[0]] = 1
        return pb.words[single[0]].copy(), mu
    mu = f.zeros(w)
    mu[0] = 1
    acc_err = E[0].copy()
    acc_word = pb.words[0].copy()
    for i in range(1, w):
        if 3 * np.count_nonzero(acc_err) > t:
            break
        support = np.nonzero(acc_err)[0]
        banned = set()
        for j in support:
            if E[i][j]:
                banned.add(f.div(f.neg(int(acc_err[j])), int(E[i][j])))
        lam = 1
        while lam in banned:
            lam += 1
        mu[i] = lam
        acc_err = f.vadd(acc_err, f.vmul(np.int64(lam), E[i]))
        acc_word = f.vadd(acc_word, f.vmul(np.int64(lam), pb.words[i]))
    return acc_word, mu


def send_pseudo_basis_fast(ctx, session, pb, width):
    """Alice's side of the improved pseudo-basis phase.

    Broadcasts the count, then (if nonempty) indices and combination
    coefficients, the special word in plain broadcast, and the words packed
    m-fold with m = min(w, floor(t/3)).  Returns the delivered arrays for the
    receiver plus the special word data."""
    n, t, f = ctx.params.n, ctx.params.t, ctx.params.field
    w = len(pb)
    out = {"w": w}
    out["marker"] = session.transmit(
        ALICE_TO_BOB, ctx.broadcast_encode([w]), PHASE_PB_OVERHEAD, public=True)
    if w == 0:
        return out
    special, mu = special_word_search(ctx.code, pb, t)
    m = min(w, t // 3)
    head = np.concatenate([_encode_indices(pb.indices, width, f.q), mu])
    out["head"] = session.transmit(
        ALICE_TO_BOB, ctx.broadcast_encode(head), PHASE_PB_OVERHEAD, public=True)
    out["special"] = session.transmit(
        ALICE_TO_BOB, ctx.broadcast_encode(special), PHASE_PSEUDO_BASIS, public=True)
    # chunk per word: each one costs exactly ceil(n / (m+1)) arrays
    padded = f.zeros((w, -(-n // (m + 1)) * (m + 1)))
    padded[:, :n] = pb.words
    out["blocks"] = session.transmit(
        ALICE_TO_BOB, ctx.bcast_code(m).encode(padded.reshape(-1, m + 1)),
        PHASE_PSEUDO_BASIS, public=True)
    out["m"] = m
    return out


def receive_pseudo_basis_fast(ctx, delivered, originals, width):
    """Bob's side: decode the special word, learn corrupted channels from it,
    then decode the packed words.  Returns (error basis, stats)."""
    n, t, f = ctx.params.n, ctx.params.t, ctx.params.field
    code = ctx.code
    num_words = originals.shape[0]
    w = int(ctx.broadcast_decode(delivered["marker"])[0])
    _check_pseudo_basis(w, t, num_words)
    if w == 0:
        return pseudobasis.empty_error_basis(code), {"w": 0, "special_weight": None,
                                                     "pb_indices": []}
    head = ctx.broadcast_decode(delivered["head"])
    idx = _decode_indices(head[: w * width], width, f.q)
    mu = head[w * width:]
    _check_pseudo_basis(w, t, num_words, idx)
    special = ctx.broadcast_decode(delivered["special"])
    expected = gf.mat_mul(f, mu[None, :], originals[idx])[0]
    e_special = f.vsub(special, expected)
    bad = np.nonzero(e_special)[0]
    m = min(w, t // 3)
    if 3 * len(bad) < min(3 * w, t):
        raise ProtocolViolation("special word exposes too few corrupted channels")
    if len(bad) > t:
        raise ProtocolViolation("special word exposes more than t channels")
    flat = broadcast.gen_broadcast_decode(ctx.bcast_code(m), t, delivered["blocks"], bad)
    per_word = -(-n // (m + 1)) * (m + 1)
    words = flat.reshape(w, per_word)[:, :n]
    pb = pseudobasis.PseudoBasis(idx, words, code.syndrome(words))
    eb = pseudobasis.extract_error_basis(code, pb, originals)
    stats = {"w": w, "special_weight": int(len(bad)), "pb_indices": idx}
    return eb, stats


def send_masked_secrets(ctx, session, secrets, Y, masked):
    """Alice's per-secret broadcasts: the syndrome of the carrying word packed
    ceil(t/2)-fold, then the two masked values z1 (against her received word)
    and z2 (against her unique-decode of it, or 0 when that failed)."""
    t, f = ctx.params.t, ctx.params.field
    code, pair = ctx.code, ctx.pair
    l = len(masked)
    words = Y[masked]
    syns = code.syndrome(words)
    bsyn = -(-t // (ctx.m_syn + 1))
    padded = f.zeros((l, bsyn * (ctx.m_syn + 1)))
    padded[:, :t] = syns
    blocks = ctx.bcast_code(ctx.m_syn).encode(padded.reshape(-1, ctx.m_syn + 1))
    got_blocks = session.transmit(ALICE_TO_BOB, blocks, PHASE_MASKED, public=True)
    z1 = f.vadd(secrets, pair.mask(words))
    dec, derr, dok = code.unique_decode_batch(words)
    z2 = np.where(dok, f.vadd(secrets, pair.mask(dec)), 0)
    zz = np.stack([z1, z2], axis=1).reshape(-1)
    got_z = session.transmit(ALICE_TO_BOB, ctx.broadcast_encode(zz),
                             PHASE_MASKED, public=True)
    return {"blocks": got_blocks, "z": got_z, "bsyn": bsyn}


def receive_masked_secrets(ctx, delivered, originals, masked, eb):
    """Bob's unmasking.  With at least t/2 exposed channels he decodes the
    packed syndromes, rebuilds Alice's received words, and uses z1; otherwise
    every masked word had so few errors that Alice's own decoding was
    certainly correct, and z2 against his sent codeword does it."""
    t, f = ctx.params.t, ctx.params.field
    code, pair = ctx.code, ctx.pair
    l = len(masked)
    support = eb.support
    zz = ctx.broadcast_decode(delivered["z"]).reshape(l, 2)
    if 2 * len(support) >= t:
        flat = broadcast.gen_broadcast_decode(
            ctx.bcast_code(ctx.m_syn), t, delivered["blocks"], support)
        syns = flat.reshape(l, -1)[:, :t]
        errors = pseudobasis.recover_error(code, eb, syns)
        y = f.vadd(originals[masked], errors)
        return f.vsub(zz[:, 0], pair.mask(y)), "syndromes"
    return f.vsub(zz[:, 1], pair.mask(originals[masked])), "direct"


def run_improved(params, secrets, adversary=None, rng=None, bob_words=None,
                 context=None, record_transcript=False):
    """The 5n + O(n^2/l) protocol: special word, packed pseudo-basis, packed
    syndromes, and the double mask."""
    ctx = context if context is not None else ProtocolContext(params)
    n, t, l, f = params.n, params.t, params.l, params.field
    code = ctx.code
    secrets = _check_secrets(params, secrets)
    session = ChannelSession(n, t, f, adversary, record_transcript)
    num_words = t + l + 1
    width = _index_width(num_words, f.q)

    X = _round_one_words(code, num_words, rng, bob_words)
    Y = session.transmit(BOB_TO_ALICE, X, PHASE_ROUND1)

    pb = pseudobasis.compute_pseudo_basis(code, Y)
    masked = _masked_indices(num_words, pb.indices, l)
    pb_delivered = send_pseudo_basis_fast(ctx, session, pb, width)
    masks_delivered = send_masked_secrets(ctx, session, secrets, Y, masked)

    eb, stats = receive_pseudo_basis_fast(ctx, pb_delivered, X, width)
    masked_bob = _masked_indices(num_words, eb.indices, l)
    out, branch = receive_masked_secrets(ctx, masks_delivered, X, masked_bob, eb)

    stats["masked_indices"] = masked
    stats["support_size"] = int(len(eb.support))
    stats["branch"] = branch
    return RunResult._from_session(session, out, stats)


def send_pseudo_basis_incremental(ctx, session, pb, width):
    """Warm-up sender: the i-th pseudo-basis word (1-based) goes out packed
    (i-1)-fold, costing ceil(n/i) arrays, since the receiver will know i-1
    corrupted channels by then.  Returns the delivered arrays."""
    f = ctx.params.field
    w = len(pb)
    out = {"w": w}
    out["marker"] = session.transmit(
        ALICE_TO_BOB, ctx.broadcast_encode([w]), PHASE_PB_OVERHEAD, public=True)
    if w == 0:
        return out
    out["head"] = session.transmit(
        ALICE_TO_BOB, ctx.broadcast_encode(_encode_indices(pb.indices, width, f.q)),
        PHASE_PB_OVERHEAD, public=True)
    out["blocks"] = []
    for i in range(w):
        code_i = ctx.bcast_code(i)
        out["blocks"].append(session.transmit(
            ALICE_TO_BOB, broadcast.gen_broadcast_encode(code_i, pb.words[i]),
            PHASE_PSEUDO_BASIS, public=True))
    return out


def receive_pseudo_basis_incremental(ctx, delivered, originals, width):
    """Warm-up receiver: decodes word i erasing the channels already exposed
    by words 1 .. i-1, whose independent-syndrome errors must cover at least
    i-1 channels.  Returns the reconstructed error basis."""
    n, t, f = ctx.params.n, ctx.params.t, ctx.params.field
    code = ctx.code
    num_words = originals.shape[0]
    w = int(ctx.broadcast_decode(delivered["marker"])[0])
    _check_pseudo_basis(w, t, num_words)
    if w == 0:
        return pseudobasis.empty_error_basis(code)
    idx = _decode_indices(ctx.broadcast_decode(delivered["head"]), width, f.q)
    _check_pseudo_basis(w, t, num_words, idx)
    known = set()
    words = f.zeros((w, n))
    for i in range(w):
        flat = broadcast.gen_broadcast_decode(ctx.bcast_code(i), t,
                                              delivered["blocks"][i], sorted(known))
        words[i] = flat[:n]
        err = f.vsub(words[i], originals[idx[i]])
        known.update(int(c) for c in np.nonzero(err)[0])
        if len(known) < i:
            raise ProtocolViolation("pseudo-basis words expose too few channels")
        if len(known) > t:
            raise ProtocolViolation("more than t channels exposed")
    pb = pseudobasis.PseudoBasis(idx, words, code.syndrome(words))
    return pseudobasis.extract_error_basis(code, pb, originals)


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


def privacy_audit(params, runner, adversary, budget=DEFAULT_AUDIT_BUDGET):
    """Exhaustive perfect-privacy check against one deterministic strategy.

    Enumerates every choice of Bob's random codewords and every secret vector,
    runs the protocol, and compares the multiset of adversary views across
    secret values: perfect privacy holds iff the multisets coincide.  Every
    run is also required to deliver its secrets exactly.  Raises
    AuditBudgetExceeded (reporting the exact need) rather than sampling."""
    ctx = ProtocolContext(params)
    num_words = params.t + params.l + (1 if runner is run_improved else 0)
    return _exhaustive_audit(ctx.code, num_words, params.l,
                            _runner_step(params, runner, adversary, ctx), budget)


def _runner_step(params, runner, adversary, ctx):
    """Audit step that runs the protocol afresh for every secret value."""

    def step(X, secrets, first):
        for s in secrets:
            result = runner(params, s, adversary, bob_words=X, context=ctx)
            yield result.secrets, result.view_key

    return step


def _shared_prefix_step(params, runner, adversary, ctx):
    """Audit step for a strategy whose state stays put after the first
    transmission (a replay_safe one).  _prefix runs once per choice of
    codewords; each secret value then gets only the masked phase, on the view
    restored to where the prefix left it, so the strategy sees exactly what it
    would in a fresh run.  Payloads and unmasking take one batched call each.
    On the first choice every secret is also checked against a fresh run."""
    n, t, f = params.n, params.t, params.field

    def step(X, secrets, first):
        session = ChannelSession(n, t, f, adversary)
        state = _prefix(ctx, session, X)
        view = session.eve_view
        base = len(view)
        prefix = view_bytes(view)
        num = secrets.shape[0]
        enc = ctx.broadcast_encode(_payload(ctx, state, secrets))
        taps = adversary.tap(enc).reshape(num, -1, adversary.t)
        enc = enc.reshape(num, -1, n)
        delivered, keys = [], []
        for s in range(num):
            del view[base:]
            delivered.append(session.intercept(ALICE_TO_BOB, PHASE_MASKED, enc[s], taps[s]))
            view.append(("public", ALICE_TO_BOB, PHASE_MASKED, enc[s]))
            keys.append(prefix + view_bytes(view[base:]))
        outs = _unmask(ctx, state, ctx.broadcast_decode(np.concatenate(delivered)))
        for s in range(num):
            yield outs[s], keys[s]
            if first:
                ref = runner(params, secrets[s], adversary, bob_words=X, context=ctx)
                if ref.view_key != keys[s] or not np.array_equal(ref.secrets, outs[s]):
                    raise RuntimeError("shared-round audit path diverged from a fresh run")

    return step


def _exhaustive_audit(code, num_words, l, step, budget):
    """The enumeration behind both privacy audits.

    For each choice X of num_words codewords of code, step(X, secrets, first)
    yields, one secret value at a time and in the order of the rows of
    secrets, the secrets delivered and the adversary's view key; first is
    True on the first choice only.  Stops at the first delivery failure, so
    a lazy step runs nothing past it."""
    f = code.field
    choices = (f.q**code.k) ** num_words
    num_secrets = f.q**l
    required = choices * num_secrets
    if required > budget:
        raise AuditBudgetExceeded(required, budget)
    views = {}  # view bytes -> index, one table for all secret values
    counters = [dict() for _ in range(num_secrets)]
    secrets = np.array([[(s // f.q**j) % f.q for j in range(l)]
                        for s in range(num_secrets)], dtype=np.int64)
    word_table = _all_codewords(code)
    nmsg = word_table.shape[0]
    digits = np.zeros(num_words, dtype=np.int64)
    runs = 0
    for choice in range(choices):
        v = choice
        for i in range(num_words):
            digits[i] = v % nmsg
            v //= nmsg
        X = word_table[digits]
        for s, (out, key) in enumerate(step(X, secrets, choice == 0)):
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


def _all_codewords(code):
    """Stack of every codeword, message index varying fastest in digit 0."""
    f = code.field
    nmsg = f.q**code.k
    msgs = np.zeros((nmsg, code.k), dtype=np.int64)
    for j in range(code.k):
        msgs[:, j] = (np.arange(nmsg) // f.q**j) % f.q
    return code.encode(msgs)


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

"""Two-round transmission of secrets over n = 2t+1 channels.

Round 1 is Bob's: he sends uniformly random codewords of the [n, t+1] code
down the channels.  Round 2 is Alice's, entirely by broadcast: she publishes
a pseudo-basis of what she received, plus per secret a syndrome and the
secret masked with h . y, where (code, h) is a privacy pair, so t taps reveal
nothing about the mask.  Bob recovers each masked word's error from the
published data, rebuilds Alice's received word, and strips the mask.

run_basic broadcasts the pseudo-basis words plainly (w * n^2 symbols);
run_improved sends a "special word" exposing many corrupted channels first
and then uses generalized broadcast, capping the phase at 4n^2 symbols and
the total at 5n + O(n^2 / l) per secret.
"""

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
    ChannelBundle,
    ChannelSession,
    PassiveAdversary,
    ProtocolViolation,
    RandomNoiseAdversary,
    ReplayAdversary,
    TargetedSyndromeAdversary,
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
        if self.field.q <= self.n + 1:
            raise ValueError("field order %d must exceed n+1=%d: the privacy pair "
                             "needs n+1 distinct nonzero evaluation points"
                             % (self.field.q, self.n + 1))


class ProtocolContext:
    """Codes reused across runs with identical parameters."""

    def __init__(self, params):
        self.params = params
        self.pair = mds.build_privacy_pair(params.n, params.t, params.field)
        self.code = self.pair.code
        self.m_syn = (params.t + 1) // 2
        self._bcast = {}

    def bcast_code(self, m):
        if m not in self._bcast:
            self._bcast[m] = mds.rs_build(self.params.n, m + 1, self.params.field)
        return self._bcast[m]


@dataclass
class RunResult:
    secrets: np.ndarray
    ledger: object
    transcript: object
    stats: dict
    view_key: bytes = b""


def _index_width(count, q):
    """Digits of base q needed to name words 0 .. count-1."""
    d = 1
    while q**d < count:
        d += 1
    return d


def _encode_indices(indices, width, q):
    out = []
    for v in indices:
        for _ in range(width):
            out.append(v % q)
            v //= q
    return np.array(out, dtype=np.int64)


def _decode_indices(symbols, width, q):
    vals = []
    for i in range(0, len(symbols), width):
        v = 0
        for j in range(width - 1, -1, -1):
            v = v * q + int(symbols[i + j])
        vals.append(v)
    return vals


def _masked_indices(num_words, pb_indices, l):
    """First l word indices outside the pseudo-basis, in order."""
    inside = set(pb_indices)
    out = []
    for i in range(num_words):
        if i not in inside:
            out.append(i)
            if len(out) == l:
                break
    if len(out) < l:
        raise ProtocolViolation("pseudo-basis too large to leave %d masked words" % l)
    return out


def _session(params, adversary, record_transcript):
    corrupted = adversary.corrupted if adversary is not None else ()
    bundle = ChannelBundle(params.n, params.t, corrupted, params.field)
    return ChannelSession(bundle, adversary, record_transcript)


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


def run_basic(params, secrets, adversary=None, rng=None, bob_words=None,
              context=None, record_transcript=False):
    """The plain two-round protocol: pseudo-basis words broadcast in full."""
    ctx = context if context is not None else ProtocolContext(params)
    n, t, l, f = params.n, params.t, params.l, params.field
    code, pair = ctx.code, ctx.pair
    secrets = f.check_array(np.asarray(secrets, dtype=np.int64).reshape(-1))
    if secrets.shape != (l,):
        raise ValueError("expected %d secrets" % l)
    session = _session(params, adversary, record_transcript)
    num_words = t + l
    width = _index_width(num_words, f.q)

    # round 1: Bob -> Alice
    X = _round_one_words(code, num_words, rng, bob_words)
    Y = session.transmit(BOB_TO_ALICE, X, PHASE_ROUND1)

    # round 2: Alice broadcasts everything
    pb = pseudobasis.compute_pseudo_basis(code, Y)
    w = len(pb)
    masked = _masked_indices(num_words, pb.indices, l)
    z = f.vadd(secrets, pair.mask(Y[masked]))
    syns = code.syndrome(Y[masked])

    sent_marker = session.transmit(
        ALICE_TO_BOB, broadcast.broadcast_encode(n, [w]), PHASE_PB_OVERHEAD, public=True)
    got_idx = None
    got_words = None
    if w:
        got_idx = session.transmit(
            ALICE_TO_BOB,
            broadcast.broadcast_encode(n, _encode_indices(pb.indices, width, f.q)),
            PHASE_PB_OVERHEAD, public=True)
        got_words = session.transmit(
            ALICE_TO_BOB, broadcast.broadcast_encode(n, pb.words.reshape(-1)),
            PHASE_PSEUDO_BASIS, public=True)
    per_secret = np.concatenate([syns, z[:, None]], axis=1)
    got_masked = session.transmit(
        ALICE_TO_BOB, broadcast.broadcast_encode(n, per_secret.reshape(-1)),
        PHASE_MASKED, public=True)

    # Bob decodes
    w_bob = int(broadcast.broadcast_decode(sent_marker, t)[0])
    if w_bob > min(t, num_words):
        raise ProtocolViolation("announced pseudo-basis larger than t")
    if w_bob:
        idx_bob = _decode_indices(broadcast.broadcast_decode(got_idx, t), width, f.q)
        if len(set(idx_bob)) != w_bob or max(idx_bob) >= num_words:
            raise ProtocolViolation("pseudo-basis indices out of range")
        words_bob = broadcast.broadcast_decode(got_words, t).reshape(w_bob, n)
        pb_bob = pseudobasis.PseudoBasis(idx_bob, words_bob, code.syndrome(words_bob))
        eb = pseudobasis.extract_error_basis(code, pb_bob, X)
    else:
        idx_bob = []
        eb = pseudobasis.ErrorBasis([], f.zeros((0, n)), f.zeros((0, n - code.k)),
                                    np.array([], dtype=np.int64))
    masked_bob = _masked_indices(num_words, idx_bob, l)
    flat = broadcast.broadcast_decode(got_masked, t).reshape(l, t + 1)
    errors = pseudobasis.recover_error(code, eb, flat[:, :t])
    y_bob = f.vadd(X[masked_bob], errors)
    out = f.vsub(flat[:, t], pair.mask(y_bob))

    stats = {"w": w, "pb_indices": list(pb.indices), "masked_indices": masked}
    vk = session.view_key() if adversary is not None else b""
    return RunResult(out, session.ledger, session.transcript, stats, vk)


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
    for i in range(w):
        if not ok[i]:
            mu = f.zeros(w)
            mu[i] = 1
            return pb.words[i].copy(), mu
    for i in range(w):
        if 3 * np.count_nonzero(E[i]) > t:
            mu = f.zeros(w)
            mu[i] = 1
            return pb.words[i].copy(), mu
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
        ALICE_TO_BOB, broadcast.broadcast_encode(n, [w]), PHASE_PB_OVERHEAD, public=True)
    if w == 0:
        return out
    special, mu = special_word_search(ctx.code, pb, t)
    m = min(w, t // 3)
    head = np.concatenate([_encode_indices(pb.indices, width, f.q), mu])
    out["head"] = session.transmit(
        ALICE_TO_BOB, broadcast.broadcast_encode(n, head), PHASE_PB_OVERHEAD, public=True)
    out["special"] = session.transmit(
        ALICE_TO_BOB, broadcast.broadcast_encode(n, special), PHASE_PSEUDO_BASIS, public=True)
    # chunk per word: each one costs exactly ceil(n / (m+1)) arrays
    padded = f.zeros((w, -(-n // (m + 1)) * (m + 1)))
    padded[:, :n] = pb.words
    out["blocks"] = session.transmit(
        ALICE_TO_BOB,
        ctx.bcast_code(m).encode(padded.reshape(-1, m + 1)),
        PHASE_PSEUDO_BASIS, public=True)
    out["m"] = m
    return out


def receive_pseudo_basis_fast(ctx, delivered, originals, width):
    """Bob's side: decode the special word, learn corrupted channels from it,
    then decode the packed words.  Returns (error basis, stats)."""
    n, t, f = ctx.params.n, ctx.params.t, ctx.params.field
    code = ctx.code
    num_words = originals.shape[0]
    w = int(broadcast.broadcast_decode(delivered["marker"], t)[0])
    if w > min(t, num_words):
        raise ProtocolViolation("announced pseudo-basis larger than t")
    if w == 0:
        eb = pseudobasis.ErrorBasis([], f.zeros((0, n)), f.zeros((0, n - code.k)),
                                    np.array([], dtype=np.int64))
        return eb, {"w": 0, "special_weight": None}
    head = broadcast.broadcast_decode(delivered["head"], t)
    idx = _decode_indices(head[: w * width], width, f.q)
    mu = head[w * width:]
    if len(set(idx)) != w or max(idx) >= num_words:
        raise ProtocolViolation("pseudo-basis indices out of range")
    special = broadcast.broadcast_decode(delivered["special"], t)
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
    n, t, f = ctx.params.n, ctx.params.t, ctx.params.field
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
    got_z = session.transmit(ALICE_TO_BOB, broadcast.broadcast_encode(n, zz),
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
    zz = broadcast.broadcast_decode(delivered["z"], t).reshape(l, 2)
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
    secrets = f.check_array(np.asarray(secrets, dtype=np.int64).reshape(-1))
    if secrets.shape != (l,):
        raise ValueError("expected %d secrets" % l)
    session = _session(params, adversary, record_transcript)
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
    vk = session.view_key() if adversary is not None else b""
    return RunResult(out, session.ledger, session.transcript, stats, vk)


def send_pseudo_basis_incremental(ctx, session, pb, width):
    """Warm-up sender: the i-th pseudo-basis word (1-based) goes out packed
    (i-1)-fold, costing ceil(n/i) arrays, since the receiver will know i-1
    corrupted channels by then.  Returns the delivered arrays."""
    n, f = ctx.params.n, ctx.params.field
    w = len(pb)
    out = {"w": w}
    out["marker"] = session.transmit(
        ALICE_TO_BOB, broadcast.broadcast_encode(n, [w]), PHASE_PB_OVERHEAD, public=True)
    if w == 0:
        return out
    out["head"] = session.transmit(
        ALICE_TO_BOB,
        broadcast.broadcast_encode(n, _encode_indices(pb.indices, width, f.q)),
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
    w = int(broadcast.broadcast_decode(delivered["marker"], t)[0])
    if w > min(t, num_words):
        raise ProtocolViolation("announced pseudo-basis larger than t")
    if w == 0:
        return pseudobasis.ErrorBasis([], f.zeros((0, n)), f.zeros((0, n - code.k)),
                                      np.array([], dtype=np.int64))
    idx = _decode_indices(broadcast.broadcast_decode(delivered["head"], t), width, f.q)
    if len(set(idx)) != w or max(idx) >= num_words:
        raise ProtocolViolation("pseudo-basis indices out of range")
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


def _distinguishing_view(base, other):
    """Hex of the first view whose multiplicity separates two secret values."""
    for key in sorted(set(base) | set(other)):
        if base.get(key, 0) != other.get(key, 0):
            return key.hex()[:120]
    return "<none>"


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
    f = params.field
    ctx = ProtocolContext(params)
    k = ctx.code.k
    num_words = params.t + params.l + (1 if runner is run_improved else 0)
    choices = (f.q**k) ** num_words
    num_secrets = f.q**params.l
    required = choices * num_secrets
    if required > budget:
        raise AuditBudgetExceeded(required, budget)
    counters = [dict() for _ in range(num_secrets)]
    secret_vecs = [
        np.array([(s // f.q**j) % f.q for j in range(params.l)], dtype=np.int64)
        for s in range(num_secrets)
    ]
    word_table = _all_codewords(ctx.code)
    nmsg = word_table.shape[0]
    digits = np.zeros(num_words, dtype=np.int64)
    runs = 0
    for choice in range(choices):
        v = choice
        for i in range(num_words):
            digits[i] = v % nmsg
            v //= nmsg
        X = word_table[digits]
        for s in range(num_secrets):
            result, key = _audit_run(params, runner, secret_vecs[s], adversary, X, ctx)
            runs += 1
            if not np.array_equal(result.secrets, secret_vecs[s]):
                return AuditReport(False, runs, 0,
                                   "reliability failure at secrets=%s" % secret_vecs[s])
            counters[s][key] = counters[s].get(key, 0) + 1
    base = counters[0]
    for s in range(1, num_secrets):
        if counters[s] != base:
            return AuditReport(
                False, runs, len(base),
                "view multisets differ between secrets 0 and %d; "
                "distinguishing view (hex) %s"
                % (s, _distinguishing_view(base, counters[s])))
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


def _audit_run(params, runner, secrets, adversary, X, ctx):
    result = runner(params, secrets, adversary, bob_words=X, context=ctx)
    return result, result.view_key


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

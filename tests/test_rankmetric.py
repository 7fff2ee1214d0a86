import hashlib
import io
import itertools

import numpy as np
import pytest

from psmt import gf, rankmetric
from psmt.mds import PrivacyPair
from psmt.channels import (
    ALICE_TO_BOB,
    BOB_TO_ALICE,
    PHASE_MASKED,
    PHASE_PB_OVERHEAD,
    PHASE_PSEUDO_BASIS,
    PHASE_ROUND1,
    AdversaryFault,
    AdversaryStrategy,
    ChannelSession,
    builtin_adversaries,
    view_bytes,
)
from psmt.pseudobasis import compute_pseudo_basis, extract_error_basis, recover_error
from psmt.protocols import (
    AuditBudgetExceeded,
    ProtocolContext,
    ProtocolViolation,
    SessionParams,
    _index_width,
    _shared_runs,
    audit_adversaries,
    privacy_audit,
    run_basic,
    run_improved,
)
from psmt.rankmetric import (
    GabidulinCode,
    GeneralizedAdversary,
    RankContext,
    RankFixedTamperAdversary,
    RankParams,
    RankPassiveAdversary,
    RankTapReplayAdversary,
    random_generalized_adversary,
    rank_audit_adversaries,
    rank_broadcast_code,
    rank_broadcast_decode,
    rank_broadcast_encode,
    rank_of_batch,
    run_rank_protocol,
)

from helpers import RankTapReplayOracle, assert_same_run


def _rref_rank(p, mat):
    """Row-reduction rank oracle, no shared code with the library."""
    rows = [list(map(int, r)) for r in mat]
    if not rows:
        return 0
    rank = 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] % p:
                fac = rows[r][c]
                rows[r] = [(a - fac * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _word_rank_oracle(f, word):
    return _rref_rank(f.p, [f.decode(int(v)) for v in word])


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3)])
def test_rank_of_matches_row_reduction(p, m):
    f = gf.field(p, m)
    rng = np.random.default_rng(7)
    words = f.random(rng, (200, 5))
    got = rank_of_batch(f, words)
    for i in range(200):
        assert got[i] == _word_rank_oracle(f, words[i])
        assert rank_of_batch(f, words[i : i + 1])[0] == got[i]


def test_rank_of_outer_products():
    f = gf.field(2, 4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = 1 + int(rng.integers(0, f.q - 1))
        v = rng.integers(0, 2, size=6)
        v[int(rng.integers(0, 6))] = 1
        word = f.vmul(np.int64(c), v.astype(np.int64))
        assert rank_of_batch(f, word[None, :])[0] == 1
    # two coordinate-split rank-1 pieces stack to rank 2
    word = np.array([3, 0, 0, 7, 7, 0], dtype=np.int64)
    assert rank_of_batch(f, word[None, :])[0] == 2
    assert rank_of_batch(f, f.zeros((1, 6)))[0] == 0


@pytest.mark.parametrize("p,m", [(2, 3), (2, 4)])
@pytest.mark.parametrize("k", [1, 2])
def test_gabidulin_is_mrd_exhaustive(p, m, k):
    f = gf.field(p, m)
    n = 3
    code = GabidulinCode(n, k, f)
    msgs = np.array(list(itertools.product(range(f.q), repeat=k)), dtype=np.int64)
    words = code.encode(msgs)
    ranks = rank_of_batch(f, words[1:])  # row 0 is the zero message
    assert int(ranks.min()) == n - k + 1
    assert np.all(code.syndrome(words) == 0)


def test_gabidulin_validation():
    f = gf.field(2, 3)
    with pytest.raises(ValueError):
        GabidulinCode(4, 1, f)  # length exceeds the extension degree
    with pytest.raises(ValueError):
        GabidulinCode(3, 0, f)
    with pytest.raises(ValueError):
        GabidulinCode(3, 4, f)
    with pytest.raises(ValueError):
        GabidulinCode(3, 1, gf.field(7))


def test_privacy_pair_joint_uniformity():
    # every single eavesdrop vector sees (tap, mask) exactly once per value
    # pair when the codeword runs over the whole [3, 2] code
    f = gf.field(2, 4)
    pair = PrivacyPair(GabidulinCode, 3, 1, f)
    msgs = np.array(list(itertools.product(range(16), repeat=2)), dtype=np.int64)
    words = pair.code.encode(msgs)
    masks = pair.mask(words)
    for lam in itertools.product(range(2), repeat=3):
        if not any(lam):
            continue
        taps = gf.mat_mul(f, words, np.array([lam], dtype=np.int64).T)[:, 0]
        assert len(set(zip(taps.tolist(), masks.tolist()))) == 256


def test_privacy_pair_mask_tracks_parent():
    f = gf.field(2, 4)
    pair = PrivacyPair(GabidulinCode, 3, 1, f)
    msgs = np.array(list(itertools.product(range(16), repeat=2)), dtype=np.int64)
    parent_words = pair.parent.encode(msgs)
    lhs = pair.mask(parent_words[:, :3])
    rhs = f.vmul(np.int64(pair.alpha), parent_words[:, 3])
    assert np.all(f.vadd(lhs, rhs) == 0)
    with pytest.raises(ValueError):
        PrivacyPair(GabidulinCode, 3, 3, f)


def test_rank_broadcast_rank_one_errors_exhaustive():
    f = gf.field(2, 4)
    bcode = rank_broadcast_code(3, f)
    errors = np.array(list(itertools.product(range(16), repeat=3)), dtype=np.int64)
    light = errors[rank_of_batch(f, errors) <= 1]
    assert len(light) > 16  # sanity: plenty of nonzero rank-1 patterns
    for s in range(16):
        sent = rank_broadcast_encode(bcode, [s])[0]
        got = rank_broadcast_decode(bcode, 1, f.vadd(light, sent))
        assert np.all(got == s)


def test_rank_broadcast_rank_two_breaks():
    f = gf.field(2, 4)
    bcode = rank_broadcast_code(3, f)
    sent = rank_broadcast_encode(bcode, [5])
    bad = 0
    for e in ([1, 2, 0], [3, 0, 12], [0, 6, 1]):
        e = np.array([e], dtype=np.int64)
        assert rank_of_batch(f, e)[0] == 2
        try:
            got = rank_broadcast_decode(bcode, 1, f.vadd(sent, e))
        except ProtocolViolation:
            bad += 1
        else:
            if got[0] != 5:
                bad += 1
    assert bad == 3


def test_large_field_caps():
    f = gf.field(2, 17)
    with pytest.raises(ValueError):
        rank_broadcast_code(3, f)
    with pytest.raises(ValueError):
        RankParams(3, 1, 1, f)


def test_decode_cap_messages():
    # F_{5^7}: q = 78,125, just past the 2^16 cap, degree 7 >= n + 1
    f = gf.field(5, 7)
    want = ("field order 78125 exceeds 65536, the cap on the rank broadcast's "
            "q x n candidate table and (rows, q) vote counts")
    with pytest.raises(ValueError) as built:
        rank_broadcast_code(3, f)
    with pytest.raises(ValueError) as params:
        RankParams(3, 1, 1, f)
    assert str(built.value) == str(params.value) == want


def test_rank_params_validation():
    f = gf.field(2, 4)
    with pytest.raises(ValueError):
        RankParams(4, 1, 1, f)
    with pytest.raises(ValueError):
        RankParams(3, 1, 0, f)
    with pytest.raises(ValueError):
        RankParams(3, 1, 1, gf.field(17))
    with pytest.raises(ValueError):
        RankParams(3, 1, 1, gf.field(2, 3))  # degree 3 < n + 1


def test_rank_pseudo_basis_and_recovery():
    # compute_pseudo_basis is F_{q^m}-linear, so it serves Gabidulin codes too
    f = gf.field(2, 4)
    code = GabidulinCode(3, 1, f)
    rng = np.random.default_rng(11)
    x = code.random_codeword(rng, 4)
    assert len(compute_pseudo_basis(code, x)) == 0

    e1 = np.array([9, 0, 0], dtype=np.int64)
    e2 = np.array([0, 4, 0], dtype=np.int64)
    words = x.copy()
    words[1] = f.vadd(words[1], e1)
    words[3] = f.vadd(words[3], e2)
    pb = compute_pseudo_basis(code, words)
    assert list(pb.indices) == [1, 3]
    eb = extract_error_basis(code, pb, x)
    assert np.array_equal(eb.errors, np.stack([e1, e2]))
    # a fresh word hit by e1 + e2 decomposes in the span
    syn = code.syndrome(f.vadd(x[0], f.vadd(e1, e2)))
    rec = recover_error(code, eb, f.vsub(syn, code.syndrome(x[0]))[None, :])[0]
    assert np.array_equal(rec, f.vadd(e1, e2))


def test_rank_extract_rejects_heavy_basis():
    f = gf.field(2, 4)
    code = GabidulinCode(3, 2, f)  # rank distance 2
    rng = np.random.default_rng(1)
    x = code.random_codeword(rng, 2)
    words = x.copy()
    words[0] = f.vadd(words[0], np.array([1, 2, 0], dtype=np.int64))  # rank 2
    pb = compute_pseudo_basis(code, words)
    with pytest.raises(ProtocolViolation):
        extract_error_basis(code, pb, x)


def test_generalized_adversary_validation():
    f = gf.field(2, 4)
    with pytest.raises(ValueError):
        GeneralizedAdversary(np.zeros(3, dtype=np.int64), np.zeros((1, 3), dtype=np.int64), f)
    with pytest.raises(ValueError):
        GeneralizedAdversary(np.full((1, 3), 2), np.ones((1, 3)), f)
    with pytest.raises(ValueError):
        GeneralizedAdversary(np.ones((1, 3)), np.full((1, 3), 3), f)
    with pytest.raises(ValueError):
        ChannelSession(3, 1, f, GeneralizedAdversary(
            np.ones((2, 3)), np.ones((2, 3)), f))
    # negative entries would index the field's tables from the end
    with pytest.raises(ValueError, match="eavesdrop vectors"):
        GeneralizedAdversary([[-1, 1, 0]], np.ones((1, 3)), f)
    with pytest.raises(ValueError, match="tamper vectors"):
        GeneralizedAdversary(np.ones((1, 3)), [[0, -1, 1]], f)


def test_session_taps_and_unit_tamper():
    f = gf.field(2, 4)
    lam = np.array([[1, 0, 0]], dtype=np.int64)
    mu = np.array([[0, 0, 1]], dtype=np.int64)
    adv = RankFixedTamperAdversary(lam, mu, f)
    session = ChannelSession(3, 1, f, adv)
    arrays = np.array([[5, 6, 7], [1, 2, 3]], dtype=np.int64)
    delivered = session.transmit(ALICE_TO_BOB, arrays, PHASE_ROUND1)
    kind, direction, phase, taps = session.eve_view[0]
    assert (kind, direction, phase) == ("tap", ALICE_TO_BOB, PHASE_ROUND1)
    assert np.array_equal(taps, arrays[:, :1])
    # constant delta 1 on the mu = e_2 direction flips only column 2
    assert np.array_equal(delivered[:, :2], arrays[:, :2])
    assert np.array_equal(delivered[:, 2], f.vadd(arrays[:, 2], np.int64(1)))


def rank_params():
    return RankParams(3, 1, 1, gf.field(2, 4))


def test_rank_protocol_reliability():
    p = rank_params()
    ctx = RankContext(p)
    for adv in [None] + rank_audit_adversaries(p):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            secrets = p.field.random(rng, 1)
            res = run_rank_protocol(p, secrets, adversary=adv, rng=rng, context=ctx)
            assert np.array_equal(res.secrets, secrets)
            assert set(res.stats) == {"w", "pb_indices", "masked_indices"}
    p2 = RankParams(3, 1, 2, gf.field(2, 4))
    ctx2 = RankContext(p2)
    for seed in range(100):
        rng = np.random.default_rng([41, seed])
        adv = random_generalized_adversary(3, 1, p2.field, rng)
        secrets = p2.field.random(rng, 2)
        res = run_rank_protocol(p2, secrets, adversary=adv, rng=rng, context=ctx2)
        assert np.array_equal(res.secrets, secrets), seed


@pytest.mark.parametrize("n", [3, 5])
def test_tap_replay_matches_memory_keeping_oracle(n):
    # the tap-replay strategy reads her first taps from her view; the
    # strategy that kept them in a memory of her own must give the same runs,
    # byte for byte, over random eavesdrop and tamper vectors.  Each object
    # runs twice, so the oracle's reset counts too
    p = RankParams(n, (n - 1) // 2, n, gf.field(2, n + 1))
    ctx = RankContext(p)
    for seed in range(4):
        rng = np.random.default_rng([23, seed])
        vecs = random_generalized_adversary(n, p.t, p.field, rng)
        advs = [cls(vecs.lambdas, vecs.mus, p.field)
                for cls in (RankTapReplayAdversary, RankTapReplayOracle)]
        for trial in range(2):
            secrets = p.field.random(rng, p.l)
            new, old = (run_rank_protocol(p, secrets, adversary=adv, context=ctx,
                                          rng=np.random.default_rng([seed, trial]),
                                          record_transcript=True) for adv in advs)
            assert np.array_equal(new.secrets, secrets)
            assert_same_run(new, old)


def test_rank_ledger_closed_forms():
    p = rank_params()
    n, t, l = p.n, p.t, p.l
    ctx = RankContext(p)
    width = _index_width(t + l, p.field.q)
    for adv in [None] + rank_audit_adversaries(p):
        rng = np.random.default_rng(9)
        res = run_rank_protocol(p, [13], adversary=adv, rng=rng, context=ctx)
        w = res.stats["w"]
        led = res.ledger.counts
        assert led[(PHASE_ROUND1, BOB_TO_ALICE)] == (t + l) * n
        assert led.get((PHASE_PB_OVERHEAD, ALICE_TO_BOB), 0) == (1 + w * width) * n
        assert led.get((PHASE_PSEUDO_BASIS, ALICE_TO_BOB), 0) == w * n * n
        # syndromes ride the masked phase: l * (n - t - 1) symbols, plus l
        # masked values, each spread over n channels
        assert led[(PHASE_MASKED, ALICE_TO_BOB)] == l * (t + 1) * n


def test_rank_params_refuse_a_hamming_context():
    p = rank_params()
    ctx = ProtocolContext(SessionParams(p.n, p.t, p.l, p.field))
    with pytest.raises(ValueError, match="context built for"):
        run_rank_protocol(p, [5], context=ctx)


@pytest.mark.parametrize("n,m", [(3, 4), (5, 6)])
def test_rank_protocol_against_coordinate_adversaries(n, m):
    # a coordinate adversary is the generalized one with lambda = mu = e_C;
    # each run delivers and costs the basic closed form at its own w
    f = gf.field(2, m)
    t, q = (n - 1) // 2, f.q
    seen = set()
    for l in (1, n):
        p = RankParams(n, t, l, f)
        ctx = RankContext(p)
        width = 1
        while q**width < t + l:
            width += 1
        for name, factory in sorted(builtin_adversaries().items()):
            for seed in range(30):
                rng = np.random.default_rng([n, l, seed])
                adv = factory(n, t, f, rng)
                secrets = f.random(rng, l)
                res = run_rank_protocol(p, secrets, adversary=adv, rng=rng, context=ctx)
                w = res.stats["w"]
                assert np.array_equal(res.secrets, secrets), (name, l, seed)
                assert 0 <= w <= t
                want = n * ((t + l) + 1 + w * width + w * n + l * (t + 1))
                assert res.ledger.symbols() == want, (name, l, seed)
                seen.add(w)
    assert seen == set(range(t + 1))


def test_noise_adversary_runs_reproduce():
    p = rank_params()
    rng = np.random.default_rng(5)
    adv = random_generalized_adversary(3, 1, p.field, rng)
    a = run_rank_protocol(p, [7], adversary=adv, bob_words=RankContext(p).code.random_codeword(np.random.default_rng(0), 2))
    b = run_rank_protocol(p, [7], adversary=adv, bob_words=RankContext(p).code.random_codeword(np.random.default_rng(0), 2))
    assert a.view_key == b.view_key
    assert np.array_equal(a.secrets, b.secrets)


class CountingAdversary(AdversaryStrategy):
    """Adds the number of transmissions she has seen to her channels: state
    she reassigns, which the audit must put back for every secret value."""

    name = "counting"

    def reset(self):
        self.count = 0

    def tamper(self, direction, phase, observed, view):
        self.count += 1
        return self.field.vadd(observed, self.count % self.field.q)


def test_shared_round_path_matches_fresh_runs():
    # the audit runs round one and the pseudo-basis phase once per choice of
    # codewords and only the masked phase per secret value, with the
    # adversary put back in her post-prefix state each time; for every
    # strategy, Hamming and rank, that must reproduce the fresh runs byte for
    # byte: the secrets, the view key, and the masked block delivered, which
    # carries her reply (a view holds only taps and public payloads)
    hp, hp2 = (SessionParams(3, 1, l, gf.field(5)) for l in (1, 2))
    rp = rank_params()
    noise = random_generalized_adversary(3, 1, rp.field, np.random.default_rng(8))
    counting = CountingAdversary((0,), hp.field)
    cases = [
        (hp, ProtocolContext(hp), run_basic, audit_adversaries(hp) + [counting]),
        (hp, ProtocolContext(hp), run_improved, audit_adversaries(hp) + [counting]),
        (hp2, ProtocolContext(hp2), run_basic, audit_adversaries(hp2)),
        (rp, RankContext(rp), run_rank_protocol, rank_audit_adversaries(rp) + [noise]),
    ]
    for p, ctx, runner, advs in cases:
        proto = runner.protocol
        secrets = np.array(list(itertools.product(range(p.field.q), repeat=p.l)), dtype=np.int64)
        for adv in advs:
            for choice_seed in range(3):
                rng = np.random.default_rng(choice_seed)
                X = ctx.code.random_codeword(rng, p.t + p.l + proto.extra_words)
                outs, keys, blocks = _shared_runs(ctx, proto, adv, X, secrets)
                for s, secret in enumerate(secrets):
                    fresh = runner(p, secret, adv, bob_words=X, context=ctx,
                                   record_transcript=True)
                    assert np.array_equal(outs[s], fresh.secrets), (adv.name, s)
                    assert keys[s] == fresh.view_key, (adv.name, s)
                    delivered = fresh.transcript.records[-1][4]
                    assert np.array_equal(blocks[s], delivered), (adv.name, s)


def test_rank_audit_budget_refusal():
    p = RankParams(3, 1, 1, gf.field(2, 5))
    adv = rank_audit_adversaries(p)[0]
    with pytest.raises(AuditBudgetExceeded) as e:
        privacy_audit(p, run_rank_protocol, adv)
    assert e.value.required == 32**5


def test_view_bytes_separates_entries():
    f = gf.field(2, 4)
    a = [("tap", ALICE_TO_BOB, PHASE_MASKED, np.array([[1, 2]], dtype=np.int64))]
    b = [("tap", ALICE_TO_BOB, PHASE_MASKED, np.array([[1, 3]], dtype=np.int64))]
    c = [("public", ALICE_TO_BOB, PHASE_MASKED, np.array([[1, 2]], dtype=np.int64))]
    assert view_bytes(a) != view_bytes(b)
    assert view_bytes(a) != view_bytes(c)
    assert view_bytes(a) == view_bytes([a[0]])


def test_rank_of_uint64_masks_on_f64():
    # F_2^6 (q = 64, the benchmark's field): words holding the top element
    f = gf.field(2, 6)
    rng = np.random.default_rng(64)
    words = f.random(rng, (300, 5))
    words[::3, 0] = 63
    words[1::3] = np.array([63, 1, 62, 2, 61])
    got = rank_of_batch(f, words)
    for i in range(300):
        assert got[i] == _word_rank_oracle(f, words[i])


def test_run_rank_protocol_refuses_wrong_bob_words():
    # round one carries exactly t + l codewords of F_16 symbols
    p = rank_params()
    code = RankContext(p).code
    rng = np.random.default_rng(2)
    for count in (1, 3):
        with pytest.raises(ValueError, match="bob_words"):
            run_rank_protocol(p, [1], bob_words=code.random_codeword(rng, count))
    words = code.random_codeword(rng, 2)
    words[0, 0] = 99
    with pytest.raises(ValueError):
        run_rank_protocol(p, [1], bob_words=words)
    # in the field but off the code: refused, not run to a wrong secret
    words = code.random_codeword(rng, 2)
    words[0, 0] = p.field.vadd(words[0, 0], 1)
    with pytest.raises(ValueError, match="bob_words"):
        run_rank_protocol(p, [1], bob_words=words)
    res = run_rank_protocol(p, [1], bob_words=code.random_codeword(rng, 2))
    assert list(res.secrets) == [1]


class BadDeltas(GeneralizedAdversary):
    """Answers the masked phase with block(taps); zero deltas before."""

    def __init__(self, lambdas, mus, f, block):
        super().__init__(lambdas, mus, f)
        self.block = block

    def tamper(self, direction, phase, taps, view):
        if phase != PHASE_MASKED:
            return np.zeros(taps.shape, dtype=np.int64)
        return self.block(taps)


def test_rank_traffic_validation():
    f = gf.field(2, 4)
    lam = np.array([[1, 1, 0]], dtype=np.int64)
    for bad in (99, -5):
        session = ChannelSession(3, 1, f, RankPassiveAdversary(lam, lam, f))
        with pytest.raises(ValueError):
            session.transmit(ALICE_TO_BOB, np.array([[1, bad, 2]]), PHASE_ROUND1)
    blocks = (
        lambda taps: np.zeros((taps.shape[0], 2), dtype=np.int64),  # wrong shape
        lambda taps: np.full(taps.shape, 16),  # outside F_16
        lambda taps: np.full(taps.shape, -1),
    )
    p = rank_params()
    for block in blocks:
        adv = BadDeltas(lam, lam, f, block)
        session = ChannelSession(3, 1, f, adv)
        session.transmit(ALICE_TO_BOB, np.array([[1, 2, 3]]), PHASE_ROUND1)
        with pytest.raises(AdversaryFault):
            session.transmit(ALICE_TO_BOB, np.array([[1, 2, 3]]), PHASE_MASKED)
        # the audit's shared-prefix path checks the masked payload the same way
        with pytest.raises(AdversaryFault):
            privacy_audit(p, run_rank_protocol, adv)


def _outcome(bcode, t, word):
    try:
        return int(rank_broadcast_decode(bcode, t, word[None, :])[0])
    except ProtocolViolation:
        return "no decode"


def _decode_oracle(f, points, t, word):
    """Try every symbol c: the unique one with rank(word - c * points) <= t."""
    within = [c for c in range(f.q)
              if _word_rank_oracle(f, f.vsub(word, f.vmul(np.int64(c), points))) <= t]
    return within[0] if len(within) == 1 else "no decode"


def _vote_path(bcode):
    """The same code with its per-word table switched off."""
    bcode.places = None
    return bcode


def test_rank_broadcast_table_matches_direct_ranks():
    # at q^n <= 2^16 the decoder reads each word's symbol from a table of
    # the vote's answers; it must agree with voting word by word
    f = gf.field(2, 4)
    table = rank_broadcast_code(3, f)
    direct = _vote_path(rank_broadcast_code(3, f))
    words = np.array(list(itertools.product(range(16), repeat=3)), dtype=np.int64)
    assert [_outcome(table, 1, w) for w in words] == [_outcome(direct, 1, w) for w in words]
    rng = np.random.default_rng(4)
    sent = rank_broadcast_encode(table, f.random(rng, 200))
    errors = f.vmul(f.random(rng, (200, 1)), rng.integers(0, 2, size=(200, 3)))
    got = f.vadd(sent, errors)  # rank <= 1, so every word decodes
    assert np.array_equal(rank_broadcast_decode(table, 1, got),
                          rank_broadcast_decode(direct, 1, got))

    outcomes = set()
    for e in ([1, 2, 0], [3, 0, 12], [0, 6, 1], [5, 9, 14]):  # rank >= 2
        for word in f.vadd(sent[:20], np.array(e)):
            outcomes.add(_outcome(direct, 1, word))
            assert _outcome(table, 1, word) == _outcome(direct, 1, word)
    assert "no decode" in outcomes


def test_rank_broadcast_exhaustive_against_oracle(monkeypatch):
    # every word of F_16^3 at t = 1, through the table and the vote path
    f = gf.field(2, 4)
    table = rank_broadcast_code(3, f)
    direct = _vote_path(rank_broadcast_code(3, f))
    words = np.array(list(itertools.product(range(16), repeat=3)), dtype=np.int64)
    want = [_decode_oracle(f, table.points, 1, w) for w in words]
    assert [_outcome(table, 1, w) for w in words] == want
    assert [_outcome(direct, 1, w) for w in words] == want
    assert want.count("no decode") > 0
    # one batch of every decodable word, voted in chunks of a few rows
    ok = np.array([x != "no decode" for x in want])
    monkeypatch.setattr(rankmetric, "_CHUNK_ENTRIES", 100)
    assert list(rank_broadcast_decode(direct, 1, words[ok])) == [x for x in want if x != "no decode"]


def _low_rank(f, rng, count, n, rank):
    """count words sum_i a_i * u_i of rank <= rank, a_i in F_q, u_i in F_p^n."""
    a = f.random(rng, (count, rank))
    u = rng.integers(0, f.p, size=(count, rank, n)).astype(np.int64)
    out = f.zeros((count, n))
    for i in range(rank):
        out = f.vadd(out, f.vmul(a[:, i : i + 1], u[:, i]))
    return out


@pytest.mark.parametrize("p,m,n,t", [(2, 6, 5, 2), (3, 4, 3, 1), (2, 8, 7, 3)])
def test_rank_broadcast_sampled_against_oracle(p, m, n, t):
    # 25 words each with an error of rank <= t, of rank t + 1, and uniform
    count = 25
    f = gf.field(p, m)
    bcode = rank_broadcast_code(n, f)
    assert bcode.places is None  # q^n > 2^16: the vote path
    rng = np.random.default_rng([p, m, n])
    symbols = f.random(rng, 3 * count)
    sent = rank_broadcast_encode(bcode, symbols)
    light = _low_rank(f, rng, count, n, t)
    heavy = _low_rank(f, rng, 4 * count, n, t + 1)
    heavy = heavy[rank_of_batch(f, heavy) == t + 1][:count]
    assert len(heavy) == count
    words = f.vadd(sent, np.concatenate([light, heavy, f.random(rng, (count, n))]))
    want = [_decode_oracle(f, bcode.points, t, w) for w in words]
    assert [_outcome(bcode, t, w) for w in words] == want
    assert want[:count] == list(symbols[:count])  # rank <= t: the sent symbol


def test_rank_protocol_needs_no_row_reduction(monkeypatch):
    # the broadcast decoder and rank_of_batch count combinations; neither
    # calls gf.mat_rank
    def refuse(*args):
        raise AssertionError("gf.mat_rank called")

    monkeypatch.setattr(gf, "mat_rank", refuse)
    for p, l in ((2, 1000), (3, 25)):
        params = RankParams(5, 2, l, gf.field(p, 6))
        rng = np.random.default_rng([p, l])
        adv = random_generalized_adversary(5, 2, params.field, rng)
        secrets = params.field.random(rng, l)
        res = run_rank_protocol(params, secrets, adversary=adv, rng=rng)
        assert np.array_equal(res.secrets, secrets)


@pytest.mark.parametrize("limit", [40, 16])
def test_rank_of_batch_chunks_and_cap(monkeypatch, limit):
    # 40 entries: one F_2 word of length 5 per chunk; 16: too short for 2^5
    # combinations, so the words are refused, before any work
    monkeypatch.setattr(rankmetric, "_CHUNK_ENTRIES", limit)
    f = gf.field(2, 4)
    words = f.random(np.random.default_rng(8), (50, 5))
    if limit < 2**5:
        with pytest.raises(ValueError, match="2\\^5 combinations per word exceed 16"):
            rank_of_batch(f, words)
        return
    got = rank_of_batch(f, words)
    assert [int(r) for r in got] == [_word_rank_oracle(f, w) for w in words]


def test_rank_of_batch_refuses_words_past_the_cap():
    # a code word has n <= deg, so p^n <= q <= 2^20; 21 symbols of F_16 are
    # no code word, and 2^21 combinations each would pass the cap
    f = gf.field(2, 4)
    with pytest.raises(ValueError, match="2\\^21 combinations per word exceed 1048576"):
        rank_of_batch(f, f.zeros((1, 21)))


# sha256 of the JSONL transcript of the rank protocol at n=3, t=1, l=2 over
# F_16 against the fixed-tamper strategy, secrets [1, 2], rng seed 3
RANK_TRANSCRIPT_SHA256 = "84ed524f79da765fd28c81cd5d508a70930109b6aafa77780faa0a39873e8005"


def test_one_masked_phase_transmission_in_both_settings():
    # the masked phase is one broadcast of l (syndrome || masked value) rows,
    # t + 1 symbols each, for the Hamming and the rank skeleton alike
    n, t, l = 3, 1, 2
    hp = SessionParams(n, t, l, gf.field(5))
    rp = RankParams(n, t, l, gf.field(2, 4))
    for run, p in ((run_basic, hp), (run_rank_protocol, rp)):
        res = run(p, [1, 2], rng=np.random.default_rng(3), record_transcript=True)
        masked = [r for r in res.transcript.records if r[1] == PHASE_MASKED]
        assert len(masked) == 1
        assert masked[0][3].shape == (l * (t + 1), n)
        assert list(res.secrets) == [1, 2]
    # the params choose the setting: run_basic on RankParams is the rank
    # protocol, its transcript pinned byte for byte
    assert run_rank_protocol is run_basic
    adv = rank_audit_adversaries(rp)[1]
    res = run_basic(rp, [1, 2], adversary=adv, rng=np.random.default_rng(3),
                    record_transcript=True)
    log = io.StringIO()
    res.transcript.write_log(log, field=rp.field)
    assert hashlib.sha256(log.getvalue().encode()).hexdigest() == RANK_TRANSCRIPT_SHA256
    assert list(res.secrets) == [1, 2]


class RoundOneSent(GeneralizedAdversary):
    def tap(self, arrays):
        raise AssertionError("round one was sent")


def test_improved_has_no_rank_variant():
    # refused before round one, whether the params or the context choose the
    # rank setting, and by the audit too
    p = rank_params()
    adv = RoundOneSent(np.ones((1, 3)), np.ones((1, 3)), p.field)
    for context in (None, RankContext(p)):
        with pytest.raises(ValueError, match="rank-metric variant"):
            run_improved(p, [1], adversary=adv, context=context)
    with pytest.raises(ValueError, match="rank-metric variant"):
        privacy_audit(p, run_improved, adv)

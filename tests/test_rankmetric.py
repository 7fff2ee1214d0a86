import itertools

import numpy as np
import pytest

from psmt import gf
from psmt.channels import (
    ALICE_TO_BOB,
    BOB_TO_ALICE,
    PHASE_MASKED,
    PHASE_PB_OVERHEAD,
    PHASE_PSEUDO_BASIS,
    PHASE_ROUND1,
    AdversaryFault,
    ChannelSession,
    view_bytes,
)
from psmt.pseudobasis import compute_pseudo_basis, extract_error_basis
from psmt.protocols import AuditBudgetExceeded, ProtocolViolation, _index_width
from psmt.rankmetric import (
    GabidulinCode,
    GeneralizedAdversary,
    RankContext,
    RankFixedTamperAdversary,
    RankParams,
    RankPassiveAdversary,
    _rank_common,
    _rank_deliver,
    random_generalized_adversary,
    rank_audit_adversaries,
    rank_broadcast_code,
    rank_broadcast_decode,
    rank_broadcast_encode,
    rank_of,
    rank_of_batch,
    rank_privacy_audit,
    rank_privacy_pair,
    rank_recover_error,
    run_rank_protocol,
)


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
        assert rank_of(f, words[i]) == got[i]


def test_rank_of_outer_products():
    f = gf.field(2, 4)
    rng = np.random.default_rng(3)
    for _ in range(50):
        c = 1 + int(rng.integers(0, f.q - 1))
        v = rng.integers(0, 2, size=6)
        v[int(rng.integers(0, 6))] = 1
        word = f.vmul(np.int64(c), v.astype(np.int64))
        assert rank_of(f, word) == 1
    # two coordinate-split rank-1 pieces stack to rank 2
    word = np.array([3, 0, 0, 7, 7, 0], dtype=np.int64)
    assert rank_of(f, word) == 2
    assert rank_of(f, f.zeros(6)) == 0


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
    with pytest.raises(ValueError):
        GabidulinCode(3, 1, f, points=np.array([1, 2, 3]))  # 3 = 1 ^ 2
    with pytest.raises(ValueError):
        GabidulinCode(3, 1, f, points=np.array([1, 2]))


def test_privacy_pair_joint_uniformity():
    # every single eavesdrop vector sees (tap, mask) exactly once per value
    # pair when the codeword runs over the whole [3, 2] code
    f = gf.field(2, 4)
    pair = rank_privacy_pair(3, 1, f)
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
    pair = rank_privacy_pair(3, 1, f)
    msgs = np.array(list(itertools.product(range(16), repeat=2)), dtype=np.int64)
    parent_words = pair.parent.encode(msgs)
    lhs = pair.mask(parent_words[:, :3])
    rhs = f.vmul(np.int64(pair.alpha), parent_words[:, 3])
    assert np.all(f.vadd(lhs, rhs) == 0)
    with pytest.raises(ValueError):
        rank_privacy_pair(3, 3, f)


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
        assert rank_of(f, e[0]) == 2
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
    rec = rank_recover_error(code, eb, f.vsub(syn, code.syndrome(x[0])))
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


def test_noise_adversary_runs_reproduce():
    p = rank_params()
    rng = np.random.default_rng(5)
    adv = random_generalized_adversary(3, 1, p.field, rng)
    a = run_rank_protocol(p, [7], adversary=adv, bob_words=RankContext(p).code.random_codeword(np.random.default_rng(0), 2))
    b = run_rank_protocol(p, [7], adversary=adv, bob_words=RankContext(p).code.random_codeword(np.random.default_rng(0), 2))
    assert a.view_key == b.view_key
    assert np.array_equal(a.secrets, b.secrets)


def test_shared_round_path_matches_fresh_runs():
    # the audit reuses round one and the pseudo-basis traffic across secret
    # values; for every replay-safe strategy that shortcut must reproduce the
    # fresh per-secret runs byte for byte
    p = rank_params()
    f = p.field
    ctx = RankContext(p)
    for adv in rank_audit_adversaries(p):
        assert adv.replay_safe
        for choice_seed in range(3):
            X = ctx.code.random_codeword(np.random.default_rng(choice_seed), 2)
            session = ChannelSession(p.n, p.t, f, adv)
            common = _rank_common(p, ctx, session, X)
            base = len(session.eve_view)
            prefix = view_bytes(session.eve_view)
            for s in range(16):
                del session.eve_view[base:]
                secret = np.array([s], dtype=np.int64)
                out = _rank_deliver(p, ctx, session, common, secret)
                vk = prefix + view_bytes(session.eve_view[base:])
                fresh = run_rank_protocol(p, secret, adversary=adv, bob_words=X)
                assert np.array_equal(out, fresh.secrets)
                assert vk == fresh.view_key


def test_rank_audit_budget_refusal():
    p = RankParams(3, 1, 1, gf.field(2, 5))
    adv = rank_audit_adversaries(p)[0]
    with pytest.raises(AuditBudgetExceeded) as e:
        rank_privacy_audit(p, adv)
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
    # F_2^6 takes the XOR-span path; words holding 63 need mask bit 63
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
    res = run_rank_protocol(p, [1], bob_words=code.random_codeword(rng, 2))
    assert list(res.secrets) == [1]


class BadDeltas(GeneralizedAdversary):
    """Answers the masked phase with block(taps); zero deltas before."""

    replay_safe = True

    def __init__(self, lambdas, mus, f, block):
        super().__init__(lambdas, mus, f)
        self.block = block

    def deltas(self, direction, phase, taps, view):
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
            rank_privacy_audit(p, adv)


def test_rank_broadcast_table_matches_direct_ranks():
    # at q^n <= 2^16 the decoder reads ranks from a table; it must agree
    # with computing them word by word
    f = gf.field(2, 4)
    table = rank_broadcast_code(3, f)
    direct = rank_broadcast_code(3, f)
    direct.word_ranks = None
    assert np.array_equal(table.word_ranks, rank_of_batch(f, np.array(
        list(itertools.product(range(16), repeat=3)))[:, ::-1]))
    rng = np.random.default_rng(4)
    sent = rank_broadcast_encode(table, f.random(rng, 200))
    errors = f.vmul(f.random(rng, (200, 1)), rng.integers(0, 2, size=(200, 3)))
    got = f.vadd(sent, errors)  # rank <= 1, so every word decodes
    assert np.array_equal(rank_broadcast_decode(table, 1, got),
                          rank_broadcast_decode(direct, 1, got))

    def outcome(bcode, word):
        try:
            return int(rank_broadcast_decode(bcode, 1, word)[0])
        except ProtocolViolation:
            return "no decode"

    outcomes = set()
    for e in ([1, 2, 0], [3, 0, 12], [0, 6, 1], [5, 9, 14]):  # rank >= 2
        for word in f.vadd(sent[:20], np.array(e)):
            outcomes.add(outcome(direct, word[None, :]))
            assert outcome(table, word[None, :]) == outcome(direct, word[None, :])
    assert "no decode" in outcomes

import functools
import tracemalloc

import numpy as np
import pytest

from psmt import broadcast, gf, mds, protocols, pseudobasis
from psmt.rankmetric import RankParams, run_rank_protocol
from psmt.channels import (
    ALICE_TO_BOB,
    BOB_TO_ALICE,
    PHASE_MASKED,
    PHASE_PB_OVERHEAD,
    PHASE_PSEUDO_BASIS,
    PHASE_ROUND1,
    ChannelSession,
    CostLedger,
    PassiveAdversary,
    TargetedSyndromeAdversary,
    builtin_adversaries,
    view_bytes,
)
from psmt.protocols import (
    AuditBudgetExceeded,
    ProtocolContext,
    RunResult,
    SessionParams,
    _decode_indices,
    _encode_indices,
    _index_width,
    _masked_indices,
    audit_adversaries,
    privacy_audit,
    run_basic,
    run_improved,
    special_word_search,
)


def params_for(n, l=1, q=None):
    t = (n - 1) // 2
    f = gf.field(q if q else gf.next_prime_above(n))
    return SessionParams(n, t, l, f)


def test_params_validation():
    f = gf.field(7)
    with pytest.raises(ValueError):
        SessionParams(6, 2, 1, f)
    with pytest.raises(ValueError):
        SessionParams(3, 1, 0, f)
    with pytest.raises(ValueError):
        SessionParams(7, 3, 1, f)  # q = n


def test_index_encoding_roundtrip():
    assert _index_width(4, 5) == 1
    assert _index_width(7, 5) == 2
    for q, count in [(5, 7), (7, 7), (13, 30)]:
        width = _index_width(count, q)
        idx = list(range(count))
        enc = _encode_indices(idx, width, q)
        assert len(enc) == count * width
        assert _decode_indices(np.asarray(enc), width, q) == idx


def test_masked_indices_skip_pseudo_basis():
    assert _masked_indices(5, [1, 3], 3) == [0, 2, 4]
    assert _masked_indices(4, [], 2) == [0, 1]


def test_basic_passive_delivers_and_costs():
    p = params_for(5, l=2)
    secrets = np.array([3, 6])
    res = run_basic(p, secrets, adversary=None, rng=np.random.default_rng(0))
    assert np.array_equal(res.secrets, secrets)
    assert res.stats["w"] == 0
    led = res.ledger.counts
    assert led[(PHASE_ROUND1, BOB_TO_ALICE)] == (2 + 2) * 5
    assert led[(PHASE_PB_OVERHEAD, ALICE_TO_BOB)] == 5
    assert led[(PHASE_MASKED, ALICE_TO_BOB)] == 2 * 3 * 5
    assert (PHASE_PSEUDO_BASIS, ALICE_TO_BOB) not in led


def basic_cost_formulas(n, t, l, w, width):
    return {
        PHASE_ROUND1: (t + l) * n,
        PHASE_PSEUDO_BASIS: w * n * n,
        PHASE_PB_OVERHEAD: (1 + w * width) * n,
        PHASE_MASKED: l * (t + 1) * n,
    }


def improved_cost_formulas(n, t, l, w, width):
    m = min(w, t // 3)
    m_syn = (t + 1) // 2
    pb = 0 if w == 0 else n * n + w * (-(-n // (m + 1))) * n
    return {
        PHASE_ROUND1: (t + l + 1) * n,
        PHASE_PSEUDO_BASIS: pb,
        PHASE_PB_OVERHEAD: (1 + (w * (width + 1) if w else 0)) * n,
        PHASE_MASKED: l * (-(-t // (m_syn + 1)) + 2) * n,
    }


@pytest.mark.parametrize("n", [3, 5, 7, 11])
@pytest.mark.parametrize("l", [1, 4])
def test_ledger_matches_closed_forms(n, l):
    p = params_for(n, l=l)
    t, f = p.t, p.field
    ctx = ProtocolContext(p)
    for name, factory in builtin_adversaries().items():
        for seed in range(6):
            rng = np.random.default_rng([n, l, seed])
            adv = factory(n, t, f, rng)
            secrets = f.random(rng, l)
            for runner, formulas in [(run_basic, basic_cost_formulas),
                                     (run_improved, improved_cost_formulas)]:
                num_words = t + l + (1 if runner is run_improved else 0)
                res = runner(p, secrets, adversary=adv, rng=rng, context=ctx)
                assert np.array_equal(res.secrets, secrets), (name, seed)
                w = res.stats["w"]
                assert w <= t
                want = formulas(n, t, l, w, _index_width(num_words, f.q))
                for phase, count in want.items():
                    got = res.ledger.counts.get((phase, ALICE_TO_BOB), 0)
                    if phase == PHASE_ROUND1:
                        got = res.ledger.counts.get((phase, BOB_TO_ALICE), 0)
                    assert got == count, (name, runner.__name__, phase)


# The abstract's headline, as total symbols (improved, basic) for one secret
# against the targeted-syndrome adversary on t channels, so w = t: O(n^2)
# for the improved protocol, Theta(n^3) for the basic one.
HEADLINE_TOTALS = {5: (135, 95), 11: (693, 803), 23: (2_967, 6_647), 47: (12_267, 54_191),
                   101: (56_358, 525_503)}


@pytest.mark.parametrize("n", sorted(HEADLINE_TOTALS))
def test_headline_totals_at_one_secret(n):
    p = params_for(n)
    t = p.t
    # with q > n every word index is one digit
    forms = [sum(formulas(n, t, 1, t, 1).values())
             for formulas in (improved_cost_formulas, basic_cost_formulas)]
    assert tuple(forms) == HEADLINE_TOTALS[n]
    for runner, total in zip((run_improved, run_basic), HEADLINE_TOTALS[n]):
        res = runner(p, np.array([1]), adversary=TargetedSyndromeAdversary(range(t), p.field),
                     rng=np.random.default_rng(n))
        assert np.array_equal(res.secrets, [1]) and res.stats["w"] == t
        assert res.ledger.symbols() == total
    improved, basic = HEADLINE_TOTALS[n]
    assert (improved < basic) == (n >= 11)
    if n == 101:
        assert round(improved / n**2, 1) == 5.5 and round(basic / n**3, 2) == 0.51


def test_basic_exhaustive_tiny_field():
    p = params_for(3, l=1, q=5)
    f = p.field
    ctx = ProtocolContext(p)
    for name, factory in builtin_adversaries().items():
        for chan in range(3):
            for secret in range(5):
                rng = np.random.default_rng([chan, secret])
                adv = factory(3, 1, f, rng)
                res = run_basic(p, np.array([secret]), adversary=adv, rng=rng,
                                context=ctx)
                assert np.array_equal(res.secrets, [secret]), (name, chan, secret)


def test_two_round_structure():
    p = params_for(5, l=2)
    rng = np.random.default_rng(1)
    adv = builtin_adversaries()["replay"](5, 2, p.field, rng)
    for runner in (run_basic, run_improved):
        res = runner(p, np.array([1, 2]), adversary=adv, rng=rng,
                     record_transcript=True)
        directions = [rec[0] for rec in res.transcript.records]
        assert directions[0] == BOB_TO_ALICE
        assert all(d == ALICE_TO_BOB for d in directions[1:])


def test_improved_special_word_stats():
    p = params_for(11, l=3)
    ctx = ProtocolContext(p)
    hits = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        adv = builtin_adversaries()["targeted-syndrome"](11, 5, p.field, rng)
        secrets = p.field.random(rng, 3)
        res = run_improved(p, secrets, adversary=adv, rng=rng, context=ctx)
        assert np.array_equal(res.secrets, secrets)
        w = res.stats["w"]
        if w:
            hits += 1
            assert 3 * res.stats["special_weight"] >= min(3 * w, p.t)
    assert hits > 0


def test_improved_branches_both_taken():
    p = params_for(11, l=2)
    ctx = ProtocolContext(p)
    rng = np.random.default_rng(2)
    res = run_improved(p, np.array([1, 2]), adversary=None, rng=rng, context=ctx)
    assert res.stats["branch"] == "direct"
    adv = TargetedSyndromeAdversary((0, 1, 2, 3, 4), p.field)
    res = run_improved(p, np.array([3, 4]), adversary=adv, rng=rng, context=ctx)
    assert res.stats["branch"] == "syndromes"
    assert np.array_equal(res.secrets, [3, 4])
    assert 2 * res.stats["support_size"] >= p.t


def test_decoder_calls_per_session(monkeypatch):
    # Alice decodes her pseudo-basis and masked words in one call; Bob then
    # decodes the packed words, with the exposed channels erased, whose
    # errors reach past them.  The packed syndromes carry errors only on the
    # exposed channels and need no decoder call, unless a row has one
    # elsewhere: then that row alone is decoded.  Without errors only
    # Alice's call is left, and the basic protocol decodes nothing.
    p = params_for(11, l=3)
    calls, words = [], []
    decode = mds.ReedSolomonCode.unique_decode_batch

    def counted(code, Y, erasures=()):
        calls.append((len(Y), len(erasures)))
        words.append(np.array(Y))
        return decode(code, Y, erasures)

    monkeypatch.setattr(mds.ReedSolomonCode, "unique_decode_batch", counted)
    rng = np.random.default_rng(3)
    adv = TargetedSyndromeAdversary((0, 1, 2, 3, 4), p.field)
    res = run_improved(p, np.array([3, 4, 5]), adversary=adv, rng=rng, record_transcript=True)
    assert np.array_equal(res.secrets, [3, 4, 5])
    assert res.stats["w"] == 5 and res.stats["branch"] == "syndromes"
    assert len(calls) == 2
    assert calls[0] == (5 + 3, 0)
    received = res.transcript.records[0][4]
    rows = res.stats["pb_indices"] + res.stats["masked_indices"]
    assert np.array_equal(words[0], received[rows])
    assert calls[1][1] >= 1
    # one symbol of the first packed-syndrome row changed on a channel
    # outside the five exposed ones, within the decoding radius of 1
    gen_decode = broadcast.gen_broadcast_decode
    syndrome_k = ProtocolContext(p).m_syn + 1
    changed = []

    def one_more_error(code, t, arrays, known_bad):
        if code.k == syndrome_k:
            arrays = np.array(arrays)
            arrays[0, 5] = p.field.vadd(arrays[0, 5], 1)
            changed.append(arrays[:1])
        return gen_decode(code, t, arrays, known_bad)

    monkeypatch.setattr(broadcast, "gen_broadcast_decode", one_more_error)
    calls.clear()
    words.clear()
    res = run_improved(p, np.array([3, 4, 5]), adversary=adv, rng=rng)
    assert np.array_equal(res.secrets, [3, 4, 5]) and res.stats["support_size"] == 5
    assert len(calls) == 3 and calls[2] == (1, 5)
    assert np.array_equal(words[2], changed[0])
    monkeypatch.setattr(broadcast, "gen_broadcast_decode", gen_decode)
    calls.clear()
    res = run_improved(p, np.array([3, 4, 5]), rng=rng)
    assert res.stats["w"] == 0 and calls == [(3, 0)]
    calls.clear()
    run_basic(p, np.array([3, 4, 5]), adversary=adv, rng=rng)
    assert calls == []


def test_improved_small_corruption_example():
    # four active channels at n=13: w = 4 and the packed words go out 3-fold
    t = 6
    p = SessionParams(13, t, 1, gf.field(17))
    adv = TargetedSyndromeAdversary((0, 3, 5, 8), p.field)
    rng = np.random.default_rng(4)
    res = run_improved(p, np.array([9]), adversary=adv, rng=rng)
    assert np.array_equal(res.secrets, [9])
    assert res.stats["w"] == 4
    m = min(4, t // 3)
    assert m == 2
    pb_cost = res.ledger.counts[(PHASE_PSEUDO_BASIS, ALICE_TO_BOB)]
    assert pb_cost == 13 * 13 + 4 * (-(-13 // 3)) * 13
    assert pb_cost <= 4 * 13 * 13


def _pb_with_errors(code, error_rows):
    f = code.field
    num = len(error_rows)
    msgs = f.zeros((num, code.k))
    msgs[:, 0] = np.arange(1, num + 1) % f.q
    x = code.encode(msgs)
    words = f.vadd(x, np.stack(error_rows))
    return x, pseudobasis.compute_pseudo_basis(code, words)


def test_special_word_undecodable_case():
    p = params_for(11)
    code = ProtocolContext(p).code
    f = p.field
    e = f.zeros(11)
    e[[0, 1, 2]] = 1  # weight 3 beats the radius-2 decoder everywhere
    x, pb = _pb_with_errors(code, [e])
    special, mu = special_word_search(f, pb.words, code.unique_decode_batch(pb.words), p.t)
    assert np.array_equal(special, pb.words[0])
    assert np.array_equal(mu, [1])
    true_err = f.vsub(special, x[0])
    assert 3 * np.count_nonzero(true_err) >= min(3, p.t)


def test_special_word_heavy_decodable_case():
    p = params_for(11)
    code = ProtocolContext(p).code
    f = p.field
    e = f.zeros(11)
    e[[4, 7]] = [2, 3]  # decodable, but 3 * 2 > t
    x, pb = _pb_with_errors(code, [e])
    special, mu = special_word_search(f, pb.words, code.unique_decode_batch(pb.words), p.t)
    assert np.array_equal(special, pb.words[0])
    true_err = f.vsub(special, x[0])
    assert 3 * np.count_nonzero(true_err) > p.t


def test_special_word_accumulation_case():
    # two light independent errors: no single word qualifies, the
    # accumulated combination must carry both channels
    p = params_for(11)
    code = ProtocolContext(p).code
    f = p.field
    e1 = f.zeros(11)
    e1[2] = 5
    e2 = f.zeros(11)
    e2[9] = 1
    x, pb = _pb_with_errors(code, [e1, e2])
    assert len(pb) == 2
    special, mu = special_word_search(f, pb.words, code.unique_decode_batch(pb.words), p.t)
    assert np.count_nonzero(mu) == 2
    recon = gf.mat_mul(f, mu[None, :], pb.words)[0]
    assert np.array_equal(recon, special)
    true_err = f.vsub(special, gf.mat_mul(f, mu[None, :], x)[0])
    assert np.count_nonzero(true_err) >= 2
    assert 3 * np.count_nonzero(true_err) >= min(3 * 2, p.t)


def test_special_word_skips_cancelling_lambdas():
    # lambda = 1, 2 and 3 would each cancel one coordinate the first error
    # hits, so the second word joins with lambda = 4
    f = gf.field(13)
    rng = np.random.default_rng(2)
    words = f.random(rng, (2, 10))
    E = f.zeros((2, 10))
    E[0, :3] = 1
    E[1, :3] = [12, 6, 4]  # -1/1, -1/2, -1/3
    special, mu = special_word_search(f, words, (words, E, np.ones(2, dtype=bool)), 9)
    assert mu.tolist() == [1, 4]
    assert np.array_equal(special, f.vadd(words[0], f.vmul(np.int64(4), words[1])))


# the warm-up pair on the basic masked phase: a description built from parts
INCREMENTAL = protocols.BASIC._replace(send=protocols.send_incremental,
                                       receive=protocols.receive_incremental)


@pytest.mark.parametrize("n", [5, 11])
def test_incremental_pair_runs_on_the_skeleton(n):
    # through _run against every built-in adversary: exact delivery, and the
    # pseudo-basis phase costs sum_{i=1..w} ceil(n/i) * n
    p = params_for(n, l=3)
    t, f = p.t, p.field
    ctx = ProtocolContext(p)
    ws = set()
    for a, (name, factory) in enumerate(sorted(builtin_adversaries().items())):
        for seed in range(6):
            rng = np.random.default_rng([n, a, seed])
            adv = factory(n, t, f, rng)
            secrets = f.random(rng, 3)
            res = protocols._run(ctx, INCREMENTAL, secrets, adv, rng, None, False)
            assert np.array_equal(res.secrets, secrets), (name, seed)
            w = res.stats["w"]
            ws.add(w)
            cost = res.ledger.counts.get((PHASE_PSEUDO_BASIS, ALICE_TO_BOB), 0)
            assert cost == sum(-(-n // i) * n for i in range(1, w + 1)), (name, seed)
    assert 0 in ws and t in ws


def test_privacy_audit_budget_refusal():
    p = params_for(3, l=1, q=5)
    adv = PassiveAdversary((0,), p.field)
    with pytest.raises(AuditBudgetExceeded) as e:
        privacy_audit(p, run_basic, adv, budget=10)
    assert e.value.required == (5 ** 2) ** 2 * 5
    pbig = params_for(11, l=1)
    with pytest.raises(AuditBudgetExceeded):
        privacy_audit(pbig, run_improved, PassiveAdversary((0,), pbig.field))


def test_privacy_audit_catches_leak():
    # a runner that leaks the secret into the view must FAIL with a
    # distinguishing view in the report
    p = params_for(3, l=1, q=5)

    def leaky(params, secrets, adversary, bob_words=None, context=None):
        return RunResult(secrets.copy(), CostLedger(params.field.q), None,
                         {}, bytes([4 - int(secrets[0])]))

    rep = privacy_audit(p, leaky, PassiveAdversary((0,), p.field))
    assert not rep.passed
    assert rep.num_views == 1
    # of the views 04 (secret 0) and 03 (secret 1), the smaller in byte order
    assert rep.detail == ("view multisets differ between secrets 0 and 1; "
                          "distinguishing view (hex) 03")


def test_view_key_is_built_on_access(monkeypatch):
    # no run builds its adversary's view key; reading it builds it once, from
    # the run's own session
    calls = []
    original = ChannelSession.view_key

    def counted(session):
        calls.append(session)
        return original(session)

    monkeypatch.setattr(ChannelSession, "view_key", counted)
    p = params_for(7, l=3)
    for runner in (run_basic, run_improved):
        rng = np.random.default_rng(3)
        adv = TargetedSyndromeAdversary((1, 4, 5), p.field)
        res = runner(p, p.field.random(rng, 3), adversary=adv, rng=rng)
        assert calls == []
        key = res.view_key
        assert res.view_key is key and len(calls) == 1
        assert key == view_bytes(calls[0].eve_view) and len(key) > 0
        calls.clear()
        quiet = runner(p, p.field.random(rng, 3), rng=rng)
        assert quiet.view_key == b"" and calls == []


def test_audit_adversary_set():
    p = params_for(3, l=1, q=5)
    advs = audit_adversaries(p)
    names = [a.name for a in advs]
    assert names == ["passive", "targeted-syndrome", "replay", "random-noise"]
    assert all(a.corrupted == (0,) for a in advs)


@pytest.mark.parametrize("n", [5, 7])
def test_reliability_smoke_all_adversaries(n):
    t = (n - 1) // 2
    for l in (1, n):
        p = params_for(n, l=l)
        ctx = ProtocolContext(p)
        for a, (name, factory) in enumerate(builtin_adversaries().items()):
            for seed in range(15):
                rng = np.random.default_rng([n, l, seed, a])
                adv = factory(n, t, p.field, rng)
                secrets = p.field.random(rng, l)
                for runner in (run_basic, run_improved):
                    res = runner(p, secrets, adversary=adv, rng=rng, context=ctx)
                    assert np.array_equal(res.secrets, secrets), (name, seed)


def test_params_need_n_plus_one_nonzero_points():
    with pytest.raises(ValueError, match="n\\+1"):
        SessionParams(7, 3, 1, gf.field(2, 3))  # q = n + 1
    SessionParams(7, 3, 1, gf.field(3, 2))


def test_round_one_word_count_checked():
    p = params_for(3, l=1, q=5)
    code = ProtocolContext(p).code
    rng = np.random.default_rng(0)
    for runner, num in ((run_basic, 2), (run_improved, 3)):
        for wrong in (num - 1, num + 1):
            with pytest.raises(ValueError):
                runner(p, [1], bob_words=code.random_codeword(rng, wrong))
        with pytest.raises(ValueError):
            runner(p, [1], bob_words=code.random_codeword(rng, num)[:, :2])
        # right shape, but one word off the code: it would run to a wrong
        # secret, so it is refused
        words = code.random_codeword(rng, num)
        words[0, 0] = (words[0, 0] + 1) % p.field.q
        with pytest.raises(ValueError, match="bob_words"):
            runner(p, [1], bob_words=words)
        res = runner(p, [1], bob_words=code.random_codeword(rng, num))
        assert list(res.secrets) == [1]


@pytest.mark.parametrize("bad", [[1.7], [1.0], [1 + 0j], [True], ["1"], [None]],
                         ids=["float", "whole-float", "complex", "bool", "str", "object"])
def test_non_integer_input_refused(bad):
    # a cast to int64 truncated these: run_basic delivered [1.7] as [1]
    hp = SessionParams(3, 1, 1, gf.field(5))
    rp = RankParams(3, 1, 1, gf.field(2, 4))
    for runner, p in ((run_basic, hp), (run_improved, hp), (run_rank_protocol, rp)):
        with pytest.raises(ValueError, match="integer field elements"):
            runner(p, bad)
        # Bob's round-one words too, as a float copy of real codewords
        count = p.t + p.l + (runner is run_improved)
        words = p.context().code.random_codeword(np.random.default_rng(0), count)
        with pytest.raises(ValueError, match="integer field elements"):
            runner(p, [1], bob_words=words.astype(np.float64))


def test_narrow_integer_input_accepted():
    hp = SessionParams(3, 1, 2, gf.field(5))
    rp = RankParams(3, 1, 2, gf.field(2, 4))
    for runner, p in ((run_basic, hp), (run_improved, hp), (run_rank_protocol, rp)):
        for dtype in (np.int32, np.uint8):
            count = p.t + p.l + (runner is run_improved)
            words = p.context().code.random_codeword(np.random.default_rng(1), count)
            res = runner(p, np.array([4, 1], dtype=dtype), bob_words=words.astype(dtype))
            assert res.secrets.dtype == np.int64 and list(res.secrets) == [4, 1]


def test_context_must_match_params():
    # a context built for other params was used silently: this ran at n=3
    # over F_5 and returned [3]
    p = SessionParams(5, 2, 1, gf.field(7))
    other = ProtocolContext(SessionParams(3, 1, 1, gf.field(5)))
    for runner in (run_basic, run_improved):
        with pytest.raises(ValueError, match="context built for"):
            runner(p, [3], context=other)
        # a context built from equal but distinct params is accepted
        twin = ProtocolContext(SessionParams(5, 2, 1, gf.field(7)))
        res = runner(p, [3], rng=np.random.default_rng(1), context=twin)
        assert list(res.secrets) == [3] and res.ledger.symbols() > 0


def test_audit_word_count_survives_wraps():
    # functools.wraps copies run_improved's description, so the audit counts
    # t+l+1 round-one words for the wrapper too
    p = params_for(3, l=1, q=5)
    wrapped = functools.wraps(run_improved)(lambda *args, **kwargs: run_improved(*args, **kwargs))
    with pytest.raises(AuditBudgetExceeded) as e:
        privacy_audit(p, wrapped, PassiveAdversary((0,), p.field), budget=10)
    assert e.value.required == (5 ** 2) ** 3 * 5 == 78125
    # a wrapper around run_basic, like the benchmark's recording runner,
    # still gets t+l words
    plain = lambda *args, **kwargs: run_basic(*args, **kwargs)
    with pytest.raises(AuditBudgetExceeded) as e:
        privacy_audit(p, plain, PassiveAdversary((0,), p.field), budget=10)
    assert e.value.required == (5 ** 2) ** 2 * 5


def test_audit_of_wrapped_improved_refuses():
    # a plain wrapper hides run_improved from the audit, which then hands
    # it t+l words instead of t+l+1; the run must refuse, not pass on fewer
    p = params_for(3, l=1, q=5)

    def wrapper(*args, **kwargs):
        return run_improved(*args, **kwargs)

    with pytest.raises(ValueError, match="bob_words"):
        privacy_audit(p, wrapper, PassiveAdversary((0,), p.field))


def test_audit_runner_calls_by_path():
    # a plain function is called once per run, which the benchmark's
    # recording runner counts on; a runner naming its protocol shares one
    # prefix per choice and is called only for the first choice's q^l
    # secrets, as the check.  Both paths give one report, also with no
    # adversary (one empty view) and with one on no channel (five views,
    # the public payloads alone)
    p = params_for(3, l=1, q=5)
    calls = []

    def plain(*args, **kwargs):
        calls.append("plain")
        return run_basic(*args, **kwargs)

    @functools.wraps(run_basic)
    def named(*args, **kwargs):
        calls.append("named")
        return run_basic(*args, **kwargs)

    views = []
    for adv in audit_adversaries(p) + [None, PassiveAdversary((), p.field)]:
        calls.clear()
        rep = privacy_audit(p, named, adv)
        assert rep == privacy_audit(p, plain, adv)
        assert rep.passed and rep.runs == 3125
        assert calls.count("plain") == 3125 and calls.count("named") == 5
        views.append(rep.num_views)
    assert views == [125, 625, 525, 605, 1, 5]


@pytest.mark.parametrize("q", [16, 27, 256])
def test_delivery_sweep_extension_fields(q):
    n, t, l = 7, 3, 7
    p = SessionParams(n, t, l, gf.field_of_order(q))
    ctx = ProtocolContext(p)
    for a, (name, factory) in enumerate(sorted(builtin_adversaries().items())):
        for seed in range(12):
            rng = np.random.default_rng([q, seed, a])
            adv = factory(n, t, p.field, rng)
            secrets = p.field.random(rng, l)
            for runner in (run_basic, run_improved):
                res = runner(p, secrets, adversary=adv, rng=rng, context=ctx)
                assert np.array_equal(res.secrets, secrets), (name, seed)


def test_improved_stats_keys_do_not_depend_on_w():
    # a passive run has w = 0, a targeted-syndrome one w = t; both report
    # the same keys, pb_indices included
    p = params_for(7, l=3)
    ctx = ProtocolContext(p)
    chans = (0, 1, 2)
    passive = run_improved(p, [1, 2, 3], PassiveAdversary(chans, p.field),
                           rng=np.random.default_rng(0), context=ctx)
    targeted = run_improved(p, [1, 2, 3], TargetedSyndromeAdversary(chans, p.field),
                            rng=np.random.default_rng(0), context=ctx)
    assert passive.stats["w"] == 0 and targeted.stats["w"] == 3
    assert passive.stats["pb_indices"] == []
    assert set(passive.stats) == set(targeted.stats)


def test_basic_n47_memory_peak():
    # the masked phase's 53,016 x 47 plain broadcast is sent as a stride-0
    # view and decoded from one int32 sort, so one session at n=47 over F_53
    # with l=2209 peaks near 45.7 MiB of traced allocations; sending and
    # reading n materialized copies took 73.1 MiB
    params = params_for(47, l=47 * 47, q=53)
    rng = np.random.default_rng(47)
    adversary = builtin_adversaries()["random-noise"](47, 23, params.field, rng)
    secrets = params.field.random(rng, params.l)
    tracemalloc.start()
    try:
        res = run_basic(params, secrets, adversary=adversary, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(res.secrets, secrets)
    assert peak < 48 * 2**20, "peak %.1f MiB" % (peak / 2**20)

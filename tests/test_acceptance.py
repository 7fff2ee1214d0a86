"""End-to-end acceptance: one test per delivered guarantee.

The reliability sweep (criterion 1) is shared with the cost and special-word
checks (criteria 3, 4), so the 96,000 protocol runs happen once per session.
Expect a few minutes of wall time for this file; everything is seeded and
deterministic.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from psmt import broadcast, gf, mds, pseudobasis
from psmt.channels import (
    ALICE_TO_BOB,
    PHASE_PSEUDO_BASIS,
    ChannelSession,
    builtin_adversaries,
)
from psmt.cli import main
from psmt.protocols import (
    ProtocolContext,
    SessionParams,
    audit_adversaries,
    privacy_audit,
    run_basic,
    run_improved,
    special_word_search,
)
from psmt.rankmetric import (
    GabidulinCode,
    RankContext,
    RankParams,
    random_generalized_adversary,
    rank_audit_adversaries,
    rank_of_batch,
    run_rank_protocol,
)
from helpers import unique_decode

SWEEP_NS = (3, 5, 7, 11)
SWEEP_SEEDS = 1000


def _check_special_word(params, ctx, res, report):
    """Re-derive the special word from the wire transcript and measure its
    true error weight against the round-one originals."""
    f = params.field
    direction, phase, public, X, Y = res.transcript.records[0]
    pb = pseudobasis.compute_pseudo_basis(ctx.code, Y)
    if list(pb.indices) != list(res.stats["pb_indices"]):
        report["special_violations"].append(
            ("indices-mismatch", params.n, params.l))
        return
    special, mu = special_word_search(
        f, pb.words, ctx.code.unique_decode_batch(pb.words), params.t)
    expected = gf.mat_mul(f, mu[None, :], X[pb.indices])[0]
    weight = int(np.count_nonzero(f.vsub(special, expected)))
    report["special_checked"] += 1
    if 3 * weight < min(3 * len(pb), params.t):
        report["special_violations"].append(
            (params.n, params.l, weight, len(pb)))
    if weight != res.stats["special_weight"]:
        report["special_violations"].append(
            ("stats-mismatch", params.n, params.l, weight,
             res.stats["special_weight"]))


@pytest.fixture(scope="module")
def sweep():
    report = {
        "runs": 0,
        "failures": [],
        "pb_checked": 0,
        "pb_violations": [],
        "special_checked": 0,
        "special_violations": [],
    }
    factories = builtin_adversaries()
    for n in SWEEP_NS:
        t = (n - 1) // 2
        f = gf.field(gf.next_prime_above(n))
        for l in (1, n, n * n):
            params = SessionParams(n, t, l, f)
            ctx = ProtocolContext(params)
            for aidx, (name, factory) in enumerate(sorted(factories.items())):
                for seed in range(SWEEP_SEEDS):
                    rng = np.random.default_rng([n, l, aidx, seed])
                    adv = factory(n, t, f, rng)
                    secrets = f.random(rng, l)
                    for runner in (run_basic, run_improved):
                        improved = runner is run_improved
                        res = runner(params, secrets, adversary=adv, rng=rng,
                                     context=ctx, record_transcript=improved)
                        report["runs"] += 1
                        if not np.array_equal(res.secrets, secrets):
                            report["failures"].append(
                                (n, l, name, seed, runner.__name__))
                            continue
                        if improved:
                            report["pb_checked"] += 1
                            pb_cost = res.ledger.counts.get(
                                (PHASE_PSEUDO_BASIS, ALICE_TO_BOB), 0)
                            if pb_cost > 4 * n * n:
                                report["pb_violations"].append(
                                    (n, l, name, seed, pb_cost))
                            if res.stats["w"]:
                                _check_special_word(params, ctx, res, report)
    return report


def test_criterion_01(sweep):
    # both protocols deliver every secret exactly, across all sizes, batch
    # shapes, adversaries and seeds
    assert sweep["runs"] == len(SWEEP_NS) * 3 * 4 * SWEEP_SEEDS * 2
    assert sweep["failures"] == []


def test_criterion_02():
    # exhaustive privacy: every view multiset is identical across secrets
    p = SessionParams(3, 1, 1, gf.field(5))
    for runner in (run_basic, run_improved):
        for adv in audit_adversaries(p):
            rep = privacy_audit(p, runner, adv)
            assert rep.passed, (runner.__name__, adv.name, rep.detail)
    # l = 2: the first size at which two secrets share one pseudo-basis
    p2 = SessionParams(3, 1, 2, gf.field(5))
    for adv in audit_adversaries(p2):
        rep = privacy_audit(p2, run_basic, adv)
        assert rep.passed and rep.runs == 390625, (adv.name, rep.detail)
    # rank: the params choose the setting, so the audit hands the runner a
    # RankContext; a functools.wraps wrapper is called once per secret value
    # on the first choice of codewords only
    rp = RankParams(3, 1, 1, gf.field(2, 4))
    contexts = []

    @functools.wraps(run_rank_protocol)
    def counting(*args, **kwargs):
        contexts.append(kwargs["context"])
        return run_rank_protocol(*args, **kwargs)

    views = {"rank-passive": 4096, "rank-fixed-tamper": 65536, "rank-tap-replay": 4096}
    for adv in rank_audit_adversaries(rp):
        contexts.clear()
        rep = privacy_audit(rp, counting, adv)
        assert rep.passed, (adv.name, rep.detail)
        assert (rep.runs, rep.num_views) == (1048576, views[adv.name]), adv.name
        assert len(contexts) == 16
        assert all(isinstance(c, RankContext) for c in contexts)


def test_criterion_03(sweep):
    # the pseudo-basis phase never exceeds 4n^2 field symbols
    assert sweep["pb_checked"] == len(SWEEP_NS) * 3 * 4 * SWEEP_SEEDS
    assert sweep["pb_violations"] == []


def test_criterion_04(sweep):
    # whenever a pseudo-basis exists, the special word's true error weight
    # satisfies 3 * weight >= min(3w, t), re-measured from the transcript
    assert sweep["special_checked"] > 0
    assert sweep["special_violations"] == []


def test_criterion_05():
    # the incremental pseudo-basis sender costs exactly sum ceil(n/i) * n
    from psmt import protocols

    for n in (5, 11):
        t = (n - 1) // 2
        f = gf.field(gf.next_prime_above(n))
        params = SessionParams(n, t, 1, f)
        ctx = ProtocolContext(params)
        code = ctx.code
        num_words = t + 1
        width = protocols._index_width(num_words, f.q)
        for w in range(t + 1):
            msgs = f.zeros((num_words, code.k))
            msgs[:, 0] = np.arange(num_words)
            x = code.encode(msgs)
            errors = f.zeros((num_words, n))
            for i in range(w):
                errors[i, i] = 1 + (i % (f.q - 1))
            pb = pseudobasis.compute_pseudo_basis(code, f.vadd(x, errors))
            assert len(pb) == w
            session = ChannelSession(n, t, f)
            delivered = protocols.send_incremental(ctx, session, pb, width, None)
            cost = session.ledger.counts.get(
                (PHASE_PSEUDO_BASIS, ALICE_TO_BOB), 0)
            assert cost == sum(-(-n // i) * n for i in range(1, w + 1))
            eb, _ = protocols.receive_incremental(ctx, delivered, x, width)
            assert np.array_equal(eb.errors, errors[:w])


def test_criterion_06(tmp_path):
    # total cost at l = n^2 stays within 5nl + 4n^2 + 4nt + 2n, i.e. the
    # per-secret rate stays at or under 5n + 6
    rc = main(["bench", "--trials", "5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
    assert sorted(int(r["n"]) for r in rows) == [5, 7, 11, 23]
    for r in rows:
        n, t, l = int(r["n"]), int(r["t"]), int(r["l"])
        assert l == n * n
        predicted = 5 * n * l + 4 * n * n + 4 * n * t + 2 * n
        assert int(r["predicted_symbols"]) == predicted
        assert int(r["total_symbols_max"]) <= predicted
        assert r["within_bound"] == "1"
        assert Fraction(r["rate_max"]) <= 5 * n + 6


def test_criterion_07(tmp_path):
    # at l = n * ceil(log2 n) the measured per-secret rate stays under 9n
    rc = main(["bench", "--n", "11,23", "--l", "nlog2n", "--trials", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "bench.csv").read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
    assert sorted(int(r["n"]) for r in rows) == [11, 23]
    for r in rows:
        n = int(r["n"])
        assert int(r["l"]) == n * (n - 1).bit_length()
        assert Fraction(r["rate_max"]) <= 9 * n


def _brute_nearest(f, cand_words, y, radius):
    dist = np.count_nonzero(f.vsub(cand_words, y[None, :]), axis=1)
    hits = np.nonzero(dist <= radius)[0]
    assert len(hits) <= 1  # radius is below half the distance
    return None if len(hits) == 0 else cand_words[hits[0]]


def _all_codewords(code):
    msgs = np.array(list(itertools.product(range(code.field.q),
                                           repeat=code.k)), dtype=np.int64)
    return code.encode(msgs)


def _syndrome_table(code, radius):
    """Every error of weight <= radius, keyed by syndrome; collision-free
    because the radius stays under half the minimum distance."""
    f = code.field
    patterns = [f.zeros(code.n)]
    for wgt in range(1, radius + 1):
        for support in itertools.combinations(range(code.n), wgt):
            for values in itertools.product(range(1, f.q), repeat=wgt):
                e = f.zeros(code.n)
                e[list(support)] = values
                patterns.append(e)
    table = {}
    for e in patterns:
        key = code.syndrome(e).tobytes()
        assert key not in table
        table[key] = e
    return table


def test_criterion_08():
    # unique decoding agrees with brute-force nearest codeword, including
    # every no-decode verdict
    f5 = gf.field(5)
    code = mds.ReedSolomonCode(3, 2, f5)
    words = _all_codewords(code)
    for y in itertools.product(range(5), repeat=3):
        y = np.array(y, dtype=np.int64)
        want = _brute_nearest(f5, words, y, code.radius)
        got = unique_decode(code, y)
        if want is None:
            assert got is None
        else:
            assert got is not None and np.array_equal(got[0], want)

    f7 = gf.field(7)
    code = mds.ReedSolomonCode(5, 3, f7)
    words = _all_codewords(code)
    rng = np.random.default_rng(8)
    Y = f7.random(rng, (10000, 5))
    X, E, ok = code.unique_decode_batch(Y)
    hits = 0
    for i in range(10000):
        want = _brute_nearest(f7, words, Y[i], code.radius)
        if want is None:
            assert not ok[i]
        else:
            hits += 1
            assert ok[i] and np.array_equal(X[i], want)
    assert hits > 1000  # both verdicts well represented

    f13 = gf.field(13)
    code = mds.ReedSolomonCode(11, 6, f13)
    assert code.radius == 2
    table = _syndrome_table(code, 2)
    Y = f13.random(rng, (10000, 11))
    X, E, ok = code.unique_decode_batch(Y)
    hits = 0
    for i in range(10000):
        e = table.get(code.syndrome(Y[i]).tobytes())
        if e is None:
            assert not ok[i]
        else:
            hits += 1
            assert ok[i] and np.array_equal(X[i], f13.vsub(Y[i], e))
    assert hits > 50


def _broadcast_case(f, code, t, known_bad, support, values, payload, rng):
    n = code.n
    sent = broadcast.gen_broadcast_encode(code, payload)
    tampered = sent.copy()
    for row in range(tampered.shape[0]):
        for c in known_bad:
            tampered[row, c] = rng.integers(0, f.q)
    for c, v in zip(support, values):
        tampered[:, c] = f.vadd(tampered[:, c], np.int64(v))
    got = broadcast.gen_broadcast_decode(code, t, tampered, known_bad)
    assert np.array_equal(got[: len(payload)], payload)


def test_criterion_09():
    # generalized broadcast: exhaustive error/known-bad enumeration at n=5,
    # randomized at n in {7, 11}
    f = gf.field(7)
    n, t = 5, 2
    rng = np.random.default_rng(12)
    payload_draws = 0
    for m in range(t + 1):
        code = mds.ReedSolomonCode(n, m + 1, f)
        for s in range(m, t + 1):
            for known_bad in itertools.combinations(range(n), s):
                keep = [i for i in range(n) if i not in known_bad]
                for u in range(t - s + 1):
                    for support in itertools.combinations(keep, u):
                        for values in itertools.product(range(1, f.q),
                                                        repeat=u):
                            for _ in range(3):
                                payload = f.random(rng, m + 1)
                                payload_draws += 1
                                _broadcast_case(f, code, t, known_bad,
                                                support, values, payload,
                                                rng)
    assert payload_draws >= 2000

    for n in (7, 11):
        t = (n - 1) // 2
        f = gf.field(gf.next_prime_above(n))
        for trial in range(400):
            rng = np.random.default_rng([n, trial])
            m = int(rng.integers(0, t + 1))
            s = int(rng.integers(m, t + 1))
            known_bad = tuple(rng.choice(n, size=s, replace=False))
            keep = [i for i in range(n) if i not in known_bad]
            u = int(rng.integers(0, t - s + 1))
            support = tuple(rng.choice(keep, size=u, replace=False))
            values = tuple(1 + rng.integers(0, f.q - 1, size=u))
            code = mds.ReedSolomonCode(n, m + 1, f)
            payload = f.random(rng, int(rng.integers(1, 3 * (m + 1) + 1)))
            _broadcast_case(f, code, t, known_bad, support, values, payload,
                            rng)


def test_criterion_10():
    # rank building blocks: distance and syndrome injectivity, exhaustively,
    # then end-to-end reliability against random generalized adversaries
    f = gf.field(2, 3)
    all_vecs = np.array(list(itertools.product(range(8), repeat=3)),
                        dtype=np.int64)
    # every 1-dimensional subspace once (normalize the leading coefficient),
    # every 2-dimensional subspace once (as a functional kernel)
    lines, planes = {}, []
    for v in all_vecs[1:]:
        lead = v[np.nonzero(v)[0][0]]
        canon = tuple(f.vmul(f.vinv(lead), v).tolist())
        if canon not in lines:
            lines[canon] = f.vmul(np.arange(8, dtype=np.int64)[:, None],
                                  np.array(canon, dtype=np.int64)[None, :])
    assert len(lines) == 73
    for a in lines:
        prods = gf.mat_mul(f, all_vecs, np.array([a], dtype=np.int64).T)
        planes.append(all_vecs[prods[:, 0] == 0])
    for k in (1, 2):
        code = GabidulinCode(3, k, f)
        d = 3 - k + 1
        words = _all_codewords(code)
        assert int(rank_of_batch(f, words[1:]).min()) == d
        qualifying = 0
        for W in list(lines.values()) + planes:
            if int(rank_of_batch(f, W).max()) <= d - 1:
                syns = code.syndrome(W)
                assert len(np.unique(syns, axis=0)) == len(W)
                qualifying += 1
        assert qualifying > 0

    params = RankParams(3, 1, 1, gf.field(2, 4))
    ctx = RankContext(params)
    for seed in range(1000):
        rng = np.random.default_rng([10, seed])
        adv = random_generalized_adversary(3, 1, params.field, rng)
        secrets = params.field.random(rng, 1)
        res = run_rank_protocol(params, secrets, adversary=adv, rng=rng,
                                context=ctx)
        assert np.array_equal(res.secrets, secrets), seed

import io
import json
import tracemalloc

import numpy as np
import pytest

from psmt import broadcast, channels, gf
from psmt.channels import (
    ALICE_TO_BOB,
    BOB_TO_ALICE,
    PHASE_MASKED,
    PHASE_PSEUDO_BASIS,
    PHASE_ROUND1,
    Adversary,
    AdversaryFault,
    AdversaryStrategy,
    ChannelSession,
    CostLedger,
    PassiveAdversary,
    RandomNoiseAdversary,
    ReplayAdversary,
    TargetedSyndromeAdversary,
    builtin_adversaries,
)
from psmt.rankmetric import (
    GeneralizedAdversary,
    RankPassiveAdversary,
    RankTapReplayAdversary,
)


def make_session(n=5, t=2, corrupted=(0, 1), q=7, adv_cls=PassiveAdversary,
                 record_transcript=False, **kw):
    f = gf.field(q)
    adv = adv_cls(corrupted, f, **kw) if adv_cls else None
    return ChannelSession(n, t, f, adv, record_transcript=record_transcript), f


def test_bundle_validation():
    # the session holds the adversary to the budget of t channels
    f = gf.field(7)
    with pytest.raises(ValueError):
        ChannelSession(5, 2, f, PassiveAdversary((0, 1, 2), f))
    ChannelSession(5, 2, f, PassiveAdversary((0, 1), f))
    ChannelSession(5, 2, f, PassiveAdversary((), f))  # passive-empty is legal
    ChannelSession(5, 2, f)


def test_session_rejects_mismatched_adversary():
    # an adversary must fit the n channels: no channel index past n - 1,
    # and eavesdrop and tamper vectors of length n
    f = gf.field(7)
    with pytest.raises(ValueError):
        ChannelSession(5, 2, f, PassiveAdversary((0, 5), f))
    f16 = gf.field(2, 4)
    ones = np.ones((1, 3), dtype=np.int64)
    with pytest.raises(ValueError):
        ChannelSession(5, 2, f16, GeneralizedAdversary(ones, ones, f16))
    with pytest.raises(ValueError):
        ChannelSession(3, 1, f16, GeneralizedAdversary(ones, np.ones((1, 4)), f16))
    ChannelSession(3, 1, f16, GeneralizedAdversary(ones, ones, f16))


def test_passive_delivers_verbatim():
    # her reply is None, so the delivery is the sent array object, a plain
    # block or a repetition view
    session, f = make_session()
    arrays = np.array([[1, 2, 3, 4, 5], [6, 0, 1, 2, 3]], dtype=np.int64)
    got = session.transmit(BOB_TO_ALICE, arrays, PHASE_ROUND1)
    assert got is arrays
    view = broadcast.broadcast_encode(5, [4, 0, 6])
    assert session.transmit(ALICE_TO_BOB, view, PHASE_MASKED, public=True) is view


def test_reply_of_none_delivers_as_sent():
    # in either model, a tamper that returns None delivers the sent object
    # itself, and her view still holds her taps of it; the passive
    # strategies of both models inherit that tamper from Adversary, and
    # tap-replay answers None on her first transmission
    f = gf.field(2, 4)
    lam = np.array([[1, 1, 0]], dtype=np.int64)
    assert PassiveAdversary.tamper is Adversary.tamper is RankPassiveAdversary.tamper
    for adv in (PassiveAdversary((1,), f), RankPassiveAdversary(lam, lam, f),
                RankTapReplayAdversary(lam, lam, f)):
        session = ChannelSession(3, 1, f, adv)
        sent = np.array([[1, 2, 3], [4, 5, 6]])
        assert session.transmit(BOB_TO_ALICE, sent, PHASE_ROUND1) is sent
        [(kind, direction, phase, taps)] = session.eve_view
        assert (kind, direction, phase) == ("tap", BOB_TO_ALICE, PHASE_ROUND1)
        assert np.array_equal(taps, adv.tap(sent)) and not taps.flags.writeable


class Answers(AdversaryStrategy):
    """Answers every transmission with block(taps)."""

    def __init__(self, corrupted, field, block):
        super().__init__(corrupted, field)
        self.block = block

    def tamper(self, direction, phase, observed, view):
        return self.block(observed)


class RankAnswers(GeneralizedAdversary):
    """Answers every transmission with block(taps) as deltas."""

    def __init__(self, lambdas, mus, f, block):
        super().__init__(lambdas, mus, f)
        self.block = block

    def tamper(self, direction, phase, taps, view):
        return self.block(taps)


def _answer_sessions(block):
    """A coordinate session over F_7 and a generalized one over F_16, each
    on n = 3 with her answer block(taps)."""
    f7, f16 = gf.field(7), gf.field(2, 4)
    lam = np.array([[1, 1, 0]], dtype=np.int64)
    return [ChannelSession(3, 1, f7, Answers((0,), f7, block)),
            ChannelSession(3, 1, f16, RankAnswers(lam, lam, f16, block))]


@pytest.mark.parametrize("block, dtype", [
    (lambda taps: taps + 0.5, "float64"),
    (lambda taps: np.ones(taps.shape, dtype=bool), "bool"),
    (lambda taps: taps.astype(object), "object"),
])
def test_non_integer_reply_refused(block, dtype):
    # a reply of floats, bools or objects is a fault naming its dtype, in
    # either model; a cast to int64 would truncate observed + 0.5 to the
    # sent values and take bools as ones
    for session in _answer_sessions(block):
        with pytest.raises(AdversaryFault, match=dtype):
            session.transmit(BOB_TO_ALICE, np.array([[1, 2, 3]]), PHASE_ROUND1)


def test_narrow_integer_reply_accepted():
    # an int32 reply is delivered exactly as the same int64 one
    sent = np.array([[1, 2, 3], [4, 5, 6]])
    narrow = _answer_sessions(lambda taps: (taps + 1).astype(np.int32) % 7)
    wide = _answer_sessions(lambda taps: (taps + 1) % 7)
    for a, b in zip(narrow, wide):
        got = a.transmit(BOB_TO_ALICE, sent, PHASE_ROUND1)
        assert np.array_equal(got, b.transmit(BOB_TO_ALICE, sent, PHASE_ROUND1))
        assert not np.array_equal(got, sent)


class WriteNine(AdversaryStrategy):
    def tamper(self, direction, phase, observed, view):
        out = observed.copy()
        out[:] = 2
        return out


def test_corrupted_coordinates_replaced_honest_intact():
    session, f = make_session(n=3, t=1, corrupted=(0,), q=11, adv_cls=WriteNine)
    got = session.transmit(BOB_TO_ALICE, np.array([[5, 6, 7]]), PHASE_ROUND1)
    assert np.array_equal(got, [[2, 6, 7]])


def test_transmit_validation():
    session, f = make_session()
    with pytest.raises(ValueError):
        session.transmit(BOB_TO_ALICE, np.zeros((2, 4), dtype=np.int64), PHASE_ROUND1)
    with pytest.raises(ValueError):
        session.transmit(BOB_TO_ALICE, np.full((1, 5), 9), PHASE_ROUND1)


@pytest.mark.parametrize("bad", [7, -1, 2**63 - 1])
@pytest.mark.parametrize("where", [0, 4, 9])
def test_transmit_refuses_out_of_field_repetition_view(bad, where):
    # a plain broadcast's view has column stride 0, so the range check reads
    # its N symbols only; q, a negative symbol or a huge one in any row of
    # it is still refused
    session, f = make_session()
    symbols = np.arange(10) % f.q
    symbols[where] = bad
    view = broadcast.broadcast_encode(5, symbols)
    assert view.strides[1] == 0
    with pytest.raises(ValueError):
        session.transmit(ALICE_TO_BOB, view, PHASE_MASKED, public=True)
    assert session.ledger.symbols() == 0 and not session.eve_view
    symbols[where] = f.q - 1
    delivered = session.transmit(ALICE_TO_BOB, broadcast.broadcast_encode(5, symbols),
                                 PHASE_MASKED, public=True)
    assert np.array_equal(delivered, np.repeat(symbols[:, None], 5, axis=1))


class WrongShape(AdversaryStrategy):
    def tamper(self, direction, phase, observed, view):
        return observed[:, :1]


class OutOfField(AdversaryStrategy):
    def tamper(self, direction, phase, observed, view):
        return np.full(observed.shape, 99)


def test_misbehaving_tamper_is_a_hard_fault():
    session, _ = make_session(adv_cls=WrongShape)
    with pytest.raises(AdversaryFault):
        session.transmit(BOB_TO_ALICE, np.zeros((2, 5), dtype=np.int64), PHASE_ROUND1)
    session, _ = make_session(adv_cls=OutOfField)
    with pytest.raises(AdversaryFault):
        session.transmit(BOB_TO_ALICE, np.zeros((2, 5), dtype=np.int64), PHASE_ROUND1)


def test_ledger_counts_and_bits():
    session, f = make_session(q=7)
    session.transmit(BOB_TO_ALICE, np.zeros((3, 5), dtype=np.int64), PHASE_ROUND1)
    session.transmit(ALICE_TO_BOB, np.zeros((2, 5), dtype=np.int64), PHASE_MASKED,
                     public=True)
    led = session.ledger
    assert led.bits_per_symbol == 3
    assert led.counts[(PHASE_ROUND1, BOB_TO_ALICE)] == 15
    assert led.counts[(PHASE_MASKED, ALICE_TO_BOB)] == 10
    assert led.symbols() == 25
    assert led.bits() == 75
    assert (PHASE_ROUND1, BOB_TO_ALICE, 15, 45) in led.rows()


def test_empty_ledger():
    led = CostLedger(7)
    assert led.symbols() == 0 and led.bits() == 0
    assert led.rows() == []


def test_eve_view_taps_and_public():
    session, f = make_session(n=3, t=1, corrupted=(1,), q=7)
    a1 = np.array([[1, 2, 3], [4, 5, 6]])
    session.transmit(BOB_TO_ALICE, a1, PHASE_ROUND1)
    a2 = np.array([[6, 6, 6]])
    session.transmit(ALICE_TO_BOB, a2, PHASE_MASKED, public=True)
    kinds = [(kind, direction) for kind, direction, phase, arr in session.eve_view]
    assert kinds == [("tap", BOB_TO_ALICE), ("tap", ALICE_TO_BOB),
                     ("public", ALICE_TO_BOB)]
    taps1 = session.eve_view[0][3]
    assert np.array_equal(taps1, a1[:, [1]])
    assert np.array_equal(session.eve_view[2][3], a2)
    key = session.view_key()
    assert isinstance(key, bytes) and len(key) > 0


class WriteIntoTaps(AdversaryStrategy):
    def tamper(self, direction, phase, observed, view):
        observed[:] = 0
        return observed


def test_taps_reach_her_read_only():
    # a strategy that writes into her taps in place gets numpy's ValueError,
    # and her view still holds the taps as tapped
    session, f = make_session(n=3, t=1, corrupted=(1,), q=7, adv_cls=WriteIntoTaps)
    sent = np.array([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="read-only"):
        session.transmit(BOB_TO_ALICE, sent, PHASE_ROUND1)
    assert [entry[0] for entry in session.eve_view] == ["tap"]
    assert session.eve_view[0][3].tolist() == [[2], [5]]


def test_transcript_structure_and_log():
    session, f = make_session(n=3, t=1, corrupted=(0,), q=7, adv_cls=WriteNine,
                              record_transcript=True)
    sent = np.array([[5, 6, 0]])
    session.transmit(BOB_TO_ALICE, sent, PHASE_ROUND1)
    session.transmit(ALICE_TO_BOB, np.array([[1, 1, 1]]), PHASE_MASKED, public=True)
    for direction, phase, public, s, d in session.transcript.records:
        diff = np.nonzero(s != d)
        assert all(int(c) in (0,) for c in diff[1])
    fh = io.StringIO()
    session.transcript.write_log(fh, field=f)
    lines = [json.loads(line) for line in fh.getvalue().strip().split("\n")]
    assert lines[0]["direction"] == BOB_TO_ALICE
    assert lines[0]["phase"] == PHASE_ROUND1
    assert lines[0]["sent"] == [[5, 6, 0]]
    assert lines[0]["delivered"] == [[2, 6, 0]]
    assert lines[1]["public"] is True


def test_transcript_log_extension_field_coefficients():
    f = gf.field(2, 3)
    session = ChannelSession(3, 1, f, None, record_transcript=True)
    session.transmit(BOB_TO_ALICE, np.array([[0, 1, 6]]), PHASE_ROUND1)
    fh = io.StringIO()
    session.transcript.write_log(fh, field=f)
    rec = json.loads(fh.getvalue().strip())
    assert rec["sent"] == [[[0, 0, 0], [1, 0, 0], [0, 1, 1]]]


def test_noise_adversary_reproducible():
    out = []
    for _ in range(2):
        session, f = make_session(adv_cls=RandomNoiseAdversary, seed=77)
        got = session.transmit(BOB_TO_ALICE,
                               np.arange(10, dtype=np.int64).reshape(2, 5) % 7,
                               PHASE_ROUND1)
        out.append(got.copy())
    assert np.array_equal(out[0], out[1])


def test_replay_adversary_swaps_rounds():
    session, f = make_session(n=3, t=1, corrupted=(0,), q=7,
                              adv_cls=ReplayAdversary)
    r1 = session.transmit(BOB_TO_ALICE, np.array([[1, 2, 3], [4, 5, 6]]),
                          PHASE_ROUND1)
    r2 = session.transmit(ALICE_TO_BOB, np.array([[2, 2, 2]]), PHASE_MASKED,
                          public=True)
    # second-round rewrites replay first-round taps, so the delivered value
    # on channel 0 comes from {1, 4}
    assert r2[0, 0] in (1, 4)
    assert np.array_equal(r2[0, 1:], [2, 2])


def test_builtin_catalogue():
    table = builtin_adversaries()
    assert set(table) == {"passive", "random-noise", "targeted-syndrome", "replay"}
    f = gf.field(11)
    rng = np.random.default_rng(0)
    for name, factory in table.items():
        adv = factory(7, 3, f, rng)
        assert len(adv.corrupted) == 3
        assert adv.name == name


def test_targeted_syndrome_injections_visible():
    # round-1 rewrites must actually land: delivered differs from sent on
    # every corrupted channel
    session, f = make_session(n=5, t=2, corrupted=(1, 3), q=11,
                              adv_cls=TargetedSyndromeAdversary)
    sent = np.zeros((4, 5), dtype=np.int64)
    got = session.transmit(BOB_TO_ALICE, sent, PHASE_ROUND1)
    assert np.count_nonzero(got[:, [1, 3]]) > 0
    assert not got[:, [0, 2, 4]].any()


@pytest.mark.parametrize("size", [0, 1, 23])
def test_inject_matches_column_assignment(size):
    # her rewrites land exactly where a column assignment puts them, on a
    # repetition view and on a plain block, for 0, 1 and t = 23 channels
    # given unsorted and with repeats; blocks of 1, 53,016 and again 1 rows,
    # so inject copies one partial slab, many slabs and a partial one again
    f = gf.field(53)
    rng = np.random.default_rng(size)
    chosen = rng.permutation(47)[:size].tolist()
    adv = AdversaryStrategy(chosen + chosen[: (size + 1) // 2], f)
    columns = sorted(chosen)
    for rows in (1, 53_016, 1):
        symbols = f.random(rng, rows)
        for arrays in (broadcast.broadcast_encode(47, symbols), f.random(rng, (rows, 47))):
            before = arrays.copy()
            taps = adv.tap(arrays)
            reply = f.random(rng, taps.shape)
            got = adv.inject(arrays, taps, reply)
            want = before.copy()
            want[:, columns] = reply
            assert np.array_equal(got, want)
            assert np.array_equal(arrays, before)


@pytest.mark.parametrize("size", [0, 1, 23])
def test_tap_matches_take(size):
    # her taps of a repetition view and of a plain block: byte-equal to
    # np.take of her columns; of a plain block in one contiguous block of
    # their own, of a repetition view a read-only view of its one column
    # (an empty view shares no bytes)
    f = gf.field(53)
    rng = np.random.default_rng(size + 100)
    adv = AdversaryStrategy(rng.permutation(47)[:size].tolist(), f)
    for rows in (0, 3, 2232):
        for repetition, arrays in ((True, broadcast.broadcast_encode(47, f.random(rng, rows))),
                                   (False, f.random(rng, (rows, 47)))):
            taps = adv.tap(arrays)
            want = np.take(arrays, adv.corrupted, axis=1)
            assert taps.dtype == np.int64 and taps.shape == want.shape
            assert taps.tobytes() == want.tobytes()
            if repetition:
                assert taps.strides[1] == 0
                assert np.shares_memory(taps, arrays) == (taps.size > 0)
                assert not taps.flags.writeable
            else:
                assert taps.flags.c_contiguous or taps.flags.f_contiguous
                assert not np.shares_memory(taps, arrays)


def test_taps_read_only_and_sent_unchanged():
    # a random-noise session over a plain block and a repetition view: her
    # taps of either refuse writes, and every sent block keeps its symbols
    session, f = make_session(n=7, t=3, corrupted=(6, 0, 3), q=11,
                              adv_cls=RandomNoiseAdversary, seed=3)
    rng = np.random.default_rng(4)
    sent = [f.random(rng, (5, 7)), broadcast.broadcast_encode(7, f.random(rng, 5))]
    before = [arrays.copy() for arrays in sent]
    for arrays in sent:
        session.transmit(ALICE_TO_BOB, arrays, PHASE_MASKED, public=True)
    taps = [block for kind, _, _, block in session.eve_view if kind == "tap"]
    assert len(taps) == 2 and taps[1].strides[1] == 0
    for block in taps:
        with pytest.raises(ValueError):
            block[0, 0] = 1
    assert all(np.array_equal(a, b) for a, b in zip(sent, before))


def test_random_noise_tap_of_repetition_view_allocates_reply_and_delivery():
    # one random-noise transmission of basic-n47's masked block: her taps
    # are not copied, so the peak is her reply plus the delivered block
    n, t, rows = 47, 23, 53_016
    f = gf.field(53)
    session = ChannelSession(n, t, f, RandomNoiseAdversary(range(1, 2 * t, 2), f, 7))
    sent = broadcast.broadcast_encode(n, f.random(np.random.default_rng(8), rows))
    tracemalloc.start()
    try:
        got = session.transmit(ALICE_TO_BOB, sent, PHASE_MASKED, public=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (rows, n)
    assert peak <= 8 * rows * (n + t) + 2**20


@pytest.mark.parametrize("adv_cls,kw", [(RandomNoiseAdversary, {"seed": 5}),
                                        (ReplayAdversary, {}), (PassiveAdversary, {}),
                                        (TargetedSyndromeAdversary, {})])
def test_repetition_view_and_block_send_alike(adv_cls, kw):
    # a session sending the read-only repetition view records the same
    # view key, transcript log and deliveries as one sending n copies
    sessions = []
    for encode in (broadcast.broadcast_encode,
                   lambda n, s: np.repeat(np.asarray(s)[:, None], n, axis=1)):
        session, f = make_session(n=7, t=3, corrupted=(5, 1, 2), q=11, adv_cls=adv_cls,
                                  record_transcript=True, **kw)
        rng = np.random.default_rng(9)
        delivered = [session.transmit(BOB_TO_ALICE, f.random(rng, (4, 7)), PHASE_ROUND1)]
        for phase, rows in ((PHASE_PSEUDO_BASIS, 1), (PHASE_MASKED, 6)):
            sent = encode(7, f.random(rng, rows))
            delivered.append(session.transmit(ALICE_TO_BOB, sent, phase, public=True))
        fh = io.StringIO()
        session.transcript.write_log(fh, field=f)
        sessions.append((session.view_key(), fh.getvalue(), delivered))
    (key_view, log_view, got_view), (key_block, log_block, got_block) = sessions
    assert key_view == key_block
    assert log_view == log_block
    assert all(np.array_equal(a, b) for a, b in zip(got_view, got_block))

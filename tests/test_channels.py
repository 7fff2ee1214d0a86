import io
import json

import numpy as np
import pytest

from psmt import channels, gf
from psmt.channels import (
    ALICE_TO_BOB,
    BOB_TO_ALICE,
    PHASE_MASKED,
    PHASE_ROUND1,
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
from psmt.rankmetric import GeneralizedAdversary


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
    session, f = make_session()
    arrays = np.array([[1, 2, 3, 4, 5], [6, 0, 1, 2, 3]])
    got = session.transmit(BOB_TO_ALICE, arrays, PHASE_ROUND1)
    assert np.array_equal(got, arrays)


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
    fh = io.StringIO()
    led.write_csv(fh)
    lines = fh.getvalue().strip().split("\n")
    assert lines[0] == "phase,direction,symbols,bits"
    assert "round1,bob->alice,15,45" in lines


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

"""The benchmark's per-layer tracer against the library it wraps: every name
it instruments must exist, so a rename in the library fails here rather
than in a traced benchmark run."""

import importlib.util
import pathlib

import numpy as np

from psmt import gf, mds, protocols, rankmetric
from psmt.channels import (
    PassiveAdversary,
    RandomNoiseAdversary,
    ReplayAdversary,
    TargetedSyndromeAdversary,
)

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("psmt_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_one_improved_session():
    tracer = _load_tracer()
    originals = (protocols.run_improved, protocols.special_word_search, gf.mat_mul,
                 mds.ReedSolomonCode.unique_decode_batch, gf.PrimeField.vmul)
    params = protocols.SessionParams(5, 2, 3, gf.field(7))
    tr = tracer.Tracer()
    tr.install()
    try:
        res = protocols.run_improved(params, np.array([1, 2, 3]),
                                     adversary=TargetedSyndromeAdversary((0, 1), params.field),
                                     rng=np.random.default_rng(5))
    finally:
        tr.uninstall()
    assert np.array_equal(res.secrets, [1, 2, 3]) and res.stats["w"] == 2
    assert originals == (protocols.run_improved, protocols.special_word_search, gf.mat_mul,
                         mds.ReedSolomonCode.unique_decode_batch, gf.PrimeField.vmul)
    assert tr.counts["protocols.run.calls"] == 1
    assert tr.counts["protocols.special_word_search.calls"] == 1
    # Alice's one call alone: at t = 2 the pseudo-basis words go out 0-fold
    # packed, which Bob reads by majority vote, and the packed syndromes
    # carry errors only on the exposed channels, so no row of them needs
    # the decoder
    assert tr.counts["mds.unique_decode_batch.calls"] == 1
    assert tr.counts["gf.field_ops.calls"] > 0
    layers = tracer.layer_metrics(tr, 1)
    assert set(layers) == set(tracer.LAYER_METRICS)
    assert layers["mds.unique_decode_batch.decoded_ratio"]["value"] > 0
    assert layers["protocols.run.self_ms"]["value"] > 0


def test_tracer_spans_one_rank_session():
    # run_rank_protocol is run_basic under its own name in rankmetric, so
    # the tracer's rankmetric spans still see a rank session
    tracer = _load_tracer()
    params = rankmetric.RankParams(3, 1, 2, gf.field(2, 4))
    rng = np.random.default_rng(4)
    adversary = rankmetric.random_generalized_adversary(3, 1, params.field, rng)
    tr = tracer.Tracer()
    tr.install()
    try:
        res = rankmetric.run_rank_protocol(params, np.array([5, 6]), adversary=adversary,
                                           rng=rng)
    finally:
        tr.uninstall()
    assert rankmetric.run_rank_protocol is protocols.run_basic
    assert np.array_equal(res.secrets, [5, 6])
    assert tr.counts["rankmetric.run.calls"] == 1
    assert tr.counts["rankmetric.transmit.calls"] > 0


def test_tracer_spans_every_tampering_strategy():
    # the tracer wraps tamper in the class body of each coordinate strategy;
    # a strategy whose tamper moved to a base class would drop out of
    # channels.tamper here.  The passive one inherits Adversary's, which the
    # tracer leaves alone
    tracer = _load_tracer()
    params = protocols.SessionParams(5, 2, 2, gf.field(7))
    f = params.field
    cases = [(RandomNoiseAdversary((0, 3), f, 9), True),
             (TargetedSyndromeAdversary((0, 3), f), True),
             (ReplayAdversary((0, 3), f), True),
             (PassiveAdversary((0, 3), f), False)]
    for adversary, spanned in cases:
        tr = tracer.Tracer()
        tr.install()
        try:
            res = protocols.run_basic(params, np.array([1, 2]), adversary=adversary,
                                      rng=np.random.default_rng(6))
        finally:
            tr.uninstall()
        assert np.array_equal(res.secrets, [1, 2])
        assert (tr.counts["channels.tamper.calls"] >= 1) == spanned, adversary.name

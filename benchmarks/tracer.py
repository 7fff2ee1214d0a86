"""Per-layer tracing of psmt, installed from outside the library.

Tracer.install() replaces the public functions and methods listed in
_instrument() with wrappers that record one span per call (name, start,
end, parent span) plus work counts; uninstall() puts the originals back.
Field arithmetic (vadd/vsub/vmul/vneg/vinv) is only counted: a span per
call would cost more than the call itself.  Spans are kept in flat int64
arrays and written out once, when the run ends.

Module functions are swapped in their module's namespace, which is where
the library's own calls look them up (gf.mat_mul, pseudobasis.*, and bare
names inside one module), so the library needs no hooks of its own.
"""

import array
import collections
import functools
import time

import numpy as np

from psmt import broadcast, channels, gf, mds, protocols, pseudobasis, rankmetric

FIELD_OPS = ("vadd", "vsub", "vmul", "vneg", "vinv")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.counts = collections.Counter()
        self._stack = []
        self._saved = []

    def _span(self, owner, attr, name, tally=None):
        original = vars(owner)[attr]
        sid = self._ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        calls = name + ".calls"
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            counts[calls] += 1
            if tally is not None:
                tally(counts, args, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _count(self, owner, attr, key):
        original = vars(owner)[attr]
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._saved.append((owner, attr, original))
        setattr(owner, attr, counted)

    def install(self):
        _instrument(self)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_ms(self):
        """Total self time per span name: each span's duration minus the
        durations of its direct children."""
        if not self.start:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.zeros(dur.size, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        totals = np.bincount(ids, weights=dur - child, minlength=len(self.names))
        return {name: totals[i] / 1e6 for i, name in enumerate(self.names)}

    def write(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )


def _rows(i):
    """Work count: the leading dimension of positional argument i."""
    return lambda args, result: np.shape(args[i])[0]


def _tally(key, fn):
    def tally(counts, args, result):
        counts[key] += fn(args, result)
    return tally


def _instrument(tr):
    tr._span(gf, "solve_batched", "gf.solve_batched",
             _tally("gf.solve_batched.systems", _rows(1)))
    tr._span(gf, "solve_right", "gf.solve_right")
    tr._span(gf, "mat_mul", "gf.mat_mul")
    tr._span(gf, "mat_rank", "gf.mat_rank")
    for cls in (gf._FieldBase, gf.PrimeField, gf.ExtensionField):
        for op in FIELD_OPS:
            if op in vars(cls):
                tr._count(cls, op, "gf.field_ops.calls")

    rs = mds.ReedSolomonCode
    tr._span(rs, "__init__", "mds.code_build")
    tr._span(rs, "syndrome", "mds.syndrome")

    def decoded(counts, args, result):
        counts["mds.unique_decode_batch.words"] += np.shape(args[1])[0]
        counts["mds.unique_decode_batch.decoded"] += int(np.count_nonzero(result[2]))

    tr._span(rs, "unique_decode_batch", "mds.unique_decode_batch", decoded)

    tr._span(pseudobasis, "compute_pseudo_basis", "pseudobasis.compute_pseudo_basis",
             _tally("pseudobasis.compute_pseudo_basis.words", _rows(1)))
    tr._span(pseudobasis, "recover_error", "pseudobasis.recover_error")
    tr._span(pseudobasis, "extract_error_basis", "pseudobasis.extract_error_basis")

    tr._span(broadcast, "broadcast_decode", "broadcast.broadcast_decode",
             _tally("broadcast.broadcast_decode.arrays", _rows(0)))
    tr._span(broadcast, "gen_broadcast_decode", "broadcast.gen_broadcast_decode",
             _tally("broadcast.gen_broadcast_decode.arrays", _rows(2)))

    tr._span(channels.ChannelSession, "transmit", "channels.transmit",
             _tally("channels.transmit.symbols", lambda args, result: np.size(args[2])))
    tr._span(channels.ChannelSession, "view_key", "channels.view_key",
             _tally("channels.view_key.bytes", lambda args, result: len(result)))
    for cls in vars(channels).values():
        if (isinstance(cls, type) and issubclass(cls, channels.AdversaryStrategy)
                and "tamper" in vars(cls)):
            tr._span(cls, "tamper", "channels.tamper")

    tr._span(protocols, "run_basic", "protocols.run")
    tr._span(protocols, "run_improved", "protocols.run")
    tr._span(protocols, "special_word_search", "protocols.special_word_search")
    tr._span(protocols, "privacy_audit", "protocols.privacy_audit")

    tr._span(rankmetric, "rank_of_batch", "rankmetric.rank_of_batch",
             _tally("rankmetric.rank_of_batch.words", _rows(1)))
    tr._span(rankmetric, "rank_broadcast_decode", "rankmetric.rank_broadcast_decode")
    tr._span(rankmetric.RankChannelSession, "transmit", "rankmetric.transmit")
    tr._span(rankmetric, "run_rank_protocol", "rankmetric.run")


# name -> (unit, counter), every value per round of the workload's operations.
# A "ms" metric is the self time of the span its name starts with; any other
# reads the named counter, by default the one of its own name.
LAYER_METRICS = {
    "gf.solve_batched.self_ms": ("ms", None),
    "gf.solve_batched.systems": ("count", None),
    "gf.solve_right.self_ms": ("ms", None),
    "gf.mat_mul.self_ms": ("ms", None),
    "gf.mat_mul.calls": ("count", None),
    "gf.mat_rank.self_ms": ("ms", None),
    "gf.mat_rank.calls": ("count", None),
    "gf.field_ops.calls": ("count", None),
    "mds.unique_decode_batch.self_ms": ("ms", None),
    "mds.unique_decode_batch.words": ("count", None),
    "mds.unique_decode_batch.decoded_ratio": ("ratio", None),
    "mds.syndrome.self_ms": ("ms", None),
    "mds.code_build.count": ("count", "mds.code_build.calls"),
    "mds.code_build.self_ms": ("ms", None),
    "pseudobasis.compute_pseudo_basis.self_ms": ("ms", None),
    "pseudobasis.compute_pseudo_basis.words": ("count", None),
    "pseudobasis.recover_error.self_ms": ("ms", None),
    "pseudobasis.extract_error_basis.self_ms": ("ms", None),
    "broadcast.broadcast_decode.self_ms": ("ms", None),
    "broadcast.broadcast_decode.arrays": ("count", None),
    "broadcast.gen_broadcast_decode.self_ms": ("ms", None),
    "broadcast.gen_broadcast_decode.arrays": ("count", None),
    "channels.transmit.self_ms": ("ms", None),
    "channels.transmit.calls": ("count", None),
    "channels.transmit.symbols": ("count", None),
    "channels.tamper.self_ms": ("ms", None),
    "channels.view_key.self_ms": ("ms", None),
    "channels.view_key.bytes": ("bytes", None),
    "protocols.run.self_ms": ("ms", None),
    "protocols.special_word_search.self_ms": ("ms", None),
    "protocols.privacy_audit.self_ms": ("ms", None),
    "rankmetric.rank_of_batch.self_ms": ("ms", None),
    "rankmetric.rank_of_batch.words": ("count", None),
    "rankmetric.rank_broadcast_decode.self_ms": ("ms", None),
    "rankmetric.transmit.self_ms": ("ms", None),
    "rankmetric.run.self_ms": ("ms", None),
}


def layer_metrics(tracer, rounds):
    """Every LAYER_METRICS entry, per traced round; 0 for an idle layer."""
    self_ms = tracer.self_ms()
    counts = tracer.counts
    out = {}
    for name, (unit, source) in LAYER_METRICS.items():
        if unit == "ms":
            value = self_ms.get(name[: -len(".self_ms")], 0.0) / rounds
        elif unit == "ratio":
            words = counts["mds.unique_decode_batch.words"]
            value = counts["mds.unique_decode_batch.decoded"] / words if words else 0.0
        else:
            value = counts[source or name] / rounds
        out[name] = {"value": value, "unit": unit}
    return out

"""Simulated bundle of n bidirectional channels with a static adversary.

Every transmission is a stack of length-n arrays, one field symbol per channel
per array.  The adversary is fixed before the run, in one of two models:

- AdversaryStrategy owns a set of at most t channels; she reads those
  coordinates of everything in both directions and may overwrite them, and
  nothing else.
- rankmetric.GeneralizedAdversary fixes at most t eavesdrop vectors lambda
  and t tamper vectors mu; she reads the lambda-combinations of every array
  and adds delta * mu to it.  Owning channel i is the case lambda = mu = e_i.

Both keep one contract, stated on Adversary: her reply is a function of her
view, and None delivers a transmission as sent.  One ChannelSession carries
both and keeps the ledger, the transcript and her view.  Phases marked public
(broadcasts) are additionally counted as fully visible to her, so privacy
audits over-approximate her view.

The session keeps a cost ledger (symbols and bits per phase and direction)
and, optionally, a full transcript of sent/delivered arrays.
"""

import json
import math

import numpy as np

PHASE_ROUND1 = "round1"
PHASE_PSEUDO_BASIS = "pseudo-basis"
PHASE_PB_OVERHEAD = "pb-overhead"
PHASE_MASKED = "masked-secrets"

BOB_TO_ALICE = "bob->alice"
ALICE_TO_BOB = "alice->bob"

# Arrays per slab when AdversaryStrategy.inject copies a block channel-major.
# Copying a C-ordered (rows, k) block into k rows reads across every row;
# slab by slab, what it reads stays in cache.  numpy 2.4.6 on a 2-vCPU
# x86-64 virtual machine, a (53016, 47) repetition view and a (53016, 23)
# reply: 1.3 ms in slabs of 512 arrays (1.4 ms at 1,024 or 2,048), against
# 3.7 ms in one copy each; a (53016, 47) C-ordered block with that reply:
# 1.9 ms against 9.9 ms.
_SLAB_ROWS = 512


class ProtocolViolation(RuntimeError):
    """The run is inconsistent with the adversary model (more than t corrupted
    channels, or a tampered broadcast that no longer decodes)."""


class AdversaryFault(RuntimeError):
    """An adversary strategy broke the simulator contract (wrong shape or
    out-of-field symbols); a harness bug, not a protocol event."""


class CostLedger:
    """Symbol counts per (phase, direction); bits are symbols * ceil(log2 q)."""

    def __init__(self, q):
        self.bits_per_symbol = max(1, math.ceil(math.log2(q)))
        self.counts = {}

    def add(self, phase, direction, nsymbols):
        key = (phase, direction)
        self.counts[key] = self.counts.get(key, 0) + int(nsymbols)

    def symbols(self):
        return sum(self.counts.values())

    def bits(self):
        return self.symbols() * self.bits_per_symbol

    def rows(self):
        return [
            (ph, d, c, c * self.bits_per_symbol) for (ph, d), c in self.counts.items()
        ]


class Transcript:
    """Ordered record of every transmission: (direction, phase, public, sent,
    delivered)."""

    def __init__(self):
        self.records = []

    def append(self, direction, phase, public, sent, delivered):
        self.records.append((direction, phase, bool(public), sent, delivered))

    def write_log(self, fh, field):
        """One JSON object per line; extension-field symbols become
        coefficient lists."""

        def ser(arr):
            if field.deg > 1:
                return [[field.decode(int(v)) for v in row] for row in arr]
            return arr.tolist()

        for direction, phase, public, sent, delivered in self.records:
            fh.write(
                json.dumps(
                    {
                        "direction": direction,
                        "phase": phase,
                        "public": public,
                        "sent": ser(sent),
                        "delivered": ser(delivered),
                    }
                )
            )
            fh.write("\n")


class Adversary:
    """The contract every adversary keeps, in either model.

    t is her share of the budget t, and check_length(n) refuses a shape that
    does not fit n channels.  A session calls reset() once, at its start.
    For each transmission, tap(arrays) is the block she reads; the session
    appends it, read-only, to her view, the list of ("tap" or "public",
    direction, phase, block) entries she has seen this session, and asks
    tamper(direction, phase, taps, view) for her reply.  A reply of None
    delivers the transmission as sent; any other is an integer block of the
    taps' shape, which inject(arrays, taps, reply) applies.  This base is
    the passive adversary: she only listens."""

    name = "passive"

    def reset(self):
        pass

    def tamper(self, direction, phase, taps, view):
        return None


class AdversaryStrategy(Adversary):
    """Reads and rewrites only her own channels: her taps are their columns
    of each transmission, (num_arrays, num_corrupted), and her reply is what
    those channels deliver instead."""

    def __init__(self, corrupted, field):
        self.corrupted = tuple(sorted(set(int(c) for c in corrupted)))
        self.field = field
        self._columns = np.array(self.corrupted, dtype=np.int64)

    @property
    def t(self):
        """Channels she owns, her share of the budget t."""
        return len(self.corrupted)

    def check_length(self, n):
        if self.corrupted and (self.corrupted[0] < 0 or self.corrupted[-1] >= n):
            raise ValueError("corrupted channel index out of range")

    def tap(self, arrays):
        """Her columns of arrays.  Every column of a repetition view
        (column stride 0, a plain broadcast) is the one sent column, so her
        taps of it are its first len(corrupted) columns: a read-only view of
        the sent symbols, equal to her columns byte for byte, and nothing is
        copied.  Of any other block they are her columns by index, a new
        array."""
        if arrays.strides[1] == 0:
            return arrays[:, :len(self.corrupted)]
        return arrays[:, self._columns]

    def inject(self, arrays, taps, reply):
        """arrays with her channels rewritten, built channel-major: each
        channel of arrays is copied into one row of an (n, rows) buffer, her
        rows are overwritten from reply, and the buffer's transpose, the same
        logical (rows, n) block, is delivered.  Both copies go in slabs of
        _SLAB_ROWS arrays."""
        buffer = np.empty(arrays.shape[::-1], dtype=np.int64)
        for start in range(0, len(arrays), _SLAB_ROWS):
            rows = slice(start, start + _SLAB_ROWS)
            buffer[:, rows] = arrays[rows].T
            buffer[self._columns, rows] = reply[rows].T
        return buffer.T


class PassiveAdversary(AdversaryStrategy):
    pass


class RandomNoiseAdversary(AdversaryStrategy):
    """Rewrites her channels with uniform symbols from a private seeded
    stream (re-seeded identically on reset, so audits stay deterministic)."""

    name = "random-noise"

    def __init__(self, corrupted, field, seed):
        super().__init__(corrupted, field)
        self.seed = seed
        self.reset()

    def reset(self):
        self.rng = np.random.default_rng(self.seed)

    def tamper(self, direction, phase, observed, view):
        return self.field.random(self.rng, observed.shape)


class TargetedSyndromeAdversary(AdversaryStrategy):
    """Round 1: gives word j a single-coordinate error on her j-th channel
    (cycling), with a value that varies by word, so the syndromes of the first
    len(corrupted) words are independent and the pseudo-basis is as large as
    her budget allows.  Round 2: adds 1 on all her channels."""

    name = "targeted-syndrome"

    def tamper(self, direction, phase, observed, view):
        f = self.field
        if direction == BOB_TO_ALICE:
            delta = np.zeros(observed.shape, dtype=np.int64)
            rows = np.arange(observed.shape[0])
            delta[rows, rows % self.t] = 1 + rows % (f.q - 1)
            return f.vadd(observed, delta)
        return f.vadd(observed, 1)


def first_tap(view):
    """The first block she tapped this session, her round-1 taps."""
    return next(block for kind, _, _, block in view if kind == "tap")


class ReplayAdversary(AdversaryStrategy):
    """Round 1: delivers each word's predecessor on her channels (a shift).
    Round 2: replays her round-1 taps, the first tap in her view, in place
    of the broadcast content."""

    name = "replay"

    def tamper(self, direction, phase, observed, view):
        if direction == BOB_TO_ALICE:
            return np.roll(observed, 1, axis=0)
        return np.resize(first_tap(view), observed.shape)


def builtin_adversaries():
    """name -> factory(n, t, field, rng); the rng picks the corrupted set
    (and seeds private randomness) so trials vary but stay reproducible."""

    def pick(n, t, rng):
        return np.sort(rng.choice(n, size=t, replace=False))

    return {
        "passive": lambda n, t, f, rng: PassiveAdversary(pick(n, t, rng), f),
        "random-noise": lambda n, t, f, rng: RandomNoiseAdversary(
            pick(n, t, rng), f, int(rng.integers(0, 2**63 - 1))
        ),
        "targeted-syndrome": lambda n, t, f, rng: TargetedSyndromeAdversary(
            pick(n, t, rng), f
        ),
        "replay": lambda n, t, f, rng: ReplayAdversary(pick(n, t, rng), f),
    }


class ChannelSession:
    """One protocol run's worth of transmissions over n channels.

    The adversary is either an AdversaryStrategy on at most t channels or a
    GeneralizedAdversary with at most t vector pairs, both keeping the
    Adversary contract; she has her turn only when her share t is nonzero.

    The adversary (if any) is reset at session start.  Her accumulated view
    (taps plus public payloads) lives in eve_view; the transcript is recorded
    only on request since sweeps do not need it.
    """

    def __init__(self, n, t, field, adversary=None, record_transcript=False):
        if adversary is not None:
            if adversary.t > t:
                raise ValueError("adversary uses %d taps, budget is %d" % (adversary.t, t))
            adversary.check_length(n)
            adversary.reset()
        self.n = n
        self.t = t
        self.field = field
        self.adversary = adversary
        self.active = adversary is not None and adversary.t > 0
        self.ledger = CostLedger(field.q)
        self.transcript = Transcript() if record_transcript else None
        self.eve_view = []

    def transmit(self, direction, arrays, phase, public=False):
        """Send a (num_arrays, n) block and return what is delivered.

        The block is kept as given in the ledger, the transcript and her
        view, and no layer writes into it: a plain broadcast arrives as a
        read-only view with column stride 0 (broadcast.broadcast_encode),
        her taps of it are a view of its one column, and the adversary's
        rewrites go into a copy."""
        arrays = np.asarray(arrays, dtype=np.int64)
        if arrays.ndim != 2 or arrays.shape[1] != self.n:
            raise ValueError("transmission must be a stack of length-%d arrays" % self.n)
        if _outside(arrays, self.field.q):
            raise ValueError("transmission holds out-of-field symbols")
        self.ledger.add(phase, direction, arrays.size)
        delivered = arrays
        if self.active and arrays.shape[0] > 0:
            delivered = self.intercept(direction, phase, arrays, self.adversary.tap(arrays))
        if public:
            self.eve_view.append(("public", direction, phase, arrays))
        if self.transcript is not None:
            self.transcript.append(direction, phase, public, arrays, delivered)
        return delivered

    def intercept(self, direction, phase, arrays, taps):
        """The adversary's turn on one transmission, given her taps of it:
        records the taps and hands them to her tamper read-only, so her view
        keeps them as tapped; returns the delivered arrays, arrays itself
        for a reply of None, else her checked reply injected."""
        taps.setflags(write=False)
        self.eve_view.append(("tap", direction, phase, taps))
        reply = self.adversary.tamper(direction, phase, taps, self.eve_view)
        if reply is None:
            return arrays
        reply = np.asarray(reply)
        if reply.dtype.kind not in "iu":
            raise AdversaryFault("reply block holds %s symbols, expected integers"
                                 % reply.dtype)
        reply = reply.astype(np.int64, copy=False)
        if reply.shape != taps.shape:
            raise AdversaryFault("reply block has shape %r, expected %r"
                                 % (reply.shape, taps.shape))
        if _outside(reply, self.field.q):
            raise AdversaryFault("reply block holds out-of-field symbols")
        return self.adversary.inject(arrays, taps, reply)

    def view_key(self):
        """Canonical bytes for everything the adversary saw this session."""
        return view_bytes(self.eve_view)


def view_bytes(entries):
    """Canonical bytes for a list of view entries."""
    parts = []
    for kind, direction, phase, arr in entries:
        parts.append(("%s|%s|%s|%r|" % (kind, direction, phase, arr.shape)).encode())
        parts.append(arr.tobytes())
    return b"".join(parts)


def _outside(arr, q):
    """Whether an int64 array holds a symbol outside [0, q).  Negative
    symbols wrap to huge unsigned ones, so one maximum covers both ends.
    A block with column stride 0 (a plain broadcast's view) repeats each
    row's one symbol, so only its first column, the N symbols, is read."""
    if arr.ndim == 2 and arr.strides[1] == 0:
        arr = arr[:, :1]
    return arr.size > 0 and int(np.maximum.reduce(arr.view(np.uint64), axis=None)) >= q

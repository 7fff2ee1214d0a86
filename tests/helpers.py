"""Small field and code conveniences that only the tests use."""

import numpy as np

from psmt import gf
from psmt.channels import BOB_TO_ALICE, AdversaryStrategy, ProtocolViolation
from psmt.rankmetric import GeneralizedAdversary

# the fields the code-level tests run over: two primes and two extensions
CODE_FIELDS = [gf.field(11), gf.field(13), gf.field(2, 4), gf.field(3, 3)]


def elements(f):
    """Every element of f, as ints in index order."""
    return range(f.q)


# A scalar reference for the field's v-ops, built from the integer
# representation alone: base-p digits and the modulus polynomial, with no
# exp/log table and no call into psmt's arithmetic.


def _digits(f, a):
    """Base-p digits of the element index a, constant coefficient first."""
    a = int(a)
    return [a // f.p**i % f.p for i in range(f.deg)]


def _index(f, digits):
    return sum(int(c) * f.p**i for i, c in enumerate(digits))


def add_oracle(f, a, b):
    """a + b in f, digit by digit mod p."""
    return _index(f, [(x + y) % f.p for x, y in zip(_digits(f, a), _digits(f, b))])


def neg_oracle(f, a):
    return _index(f, [-x % f.p for x in _digits(f, a)])


def sub_oracle(f, a, b):
    return add_oracle(f, a, neg_oracle(f, b))


def mul_oracle(f, a, b):
    """a * b in f: the product of the digit polynomials, reduced by the monic
    modulus of an extension field."""
    p, m = f.p, f.deg
    if m == 1:
        return int(a) * int(b) % p
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(_digits(f, a)):
        for j, y in enumerate(_digits(f, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for d in range(2 * m - 2, m - 1, -1):
        c = prod[d]
        for j in range(m + 1):
            prod[d - m + j] = (prod[d - m + j] - c * f.modulus[j]) % p
    return _index(f, prod[:m])


def pow_oracle(f, a, e):
    """a^e in f for e >= 0, by repeated squaring with mul_oracle."""
    r, base = 1, int(a)
    while e:
        if e & 1:
            r = mul_oracle(f, r, base)
        base = mul_oracle(f, base, base)
        e >>= 1
    return r


def inv_oracle(f, a):
    """1 / a in f, as a^(q-2)."""
    if int(a) == 0:
        raise ZeroDivisionError("inverse of zero in %r" % f)
    return pow_oracle(f, a, f.q - 2)


def contains(code, word):
    """Whether word is a codeword: its syndrome is zero."""
    return not np.any(code.syndrome(word))


def unique_decode(code, y):
    """Closest codeword to one word within floor((d-1)/2), or None if there
    is none.  Returns (codeword, error) with y = codeword + error."""
    X, E, ok = code.unique_decode_batch(np.asarray(y, dtype=np.int64)[None, :])
    if not ok[0]:
        return None
    return X[0], E[0]


def unique_decode_oracle(code, Y, erasures=()):
    """Reference errors-and-erasures decoder: Berlekamp-Massey on every
    word, then the Chien search and Forney's formula, with Toeplitz products
    by the erasure locator Gamma even when it is 1.  Same contract and
    outputs as code.unique_decode_batch, which must match it byte for byte."""
    f = code.field
    Y = np.asarray(Y, dtype=np.int64)
    n, r = code.n, code.n - code.k
    erasures = [int(e) for e in erasures]
    if any(not 0 <= e < n for e in erasures):
        raise ValueError("erasures must be positions 0..%d, got %s" % (n - 1, erasures))
    erased = np.zeros(n, dtype=bool)
    erased[erasures] = True
    s = int(erased.sum())
    if s > r:
        raise ValueError("%d erasures exceed the %d parity symbols" % (s, r))
    radius = (r - s) // 2
    X = Y.copy()
    E = f.zeros(Y.shape)
    syn = code.syndrome(Y)
    ok = ~np.any(syn != 0, axis=1)
    todo = np.nonzero(~ok)[0]
    if todo.size == 0:
        return X, E, ok
    S = syn[todo]
    nsyn = s + 2 * radius
    gamma = f.zeros(s + 1)
    gamma[0] = 1
    for point in code.points[erased]:
        gamma[1:] = f.vsub(gamma[1:], f.vmul(point, gamma[:-1]))
    lag = np.arange(nsyn + 1)[None, :] - np.arange(nsyn + 1)[:, None]
    toep = np.where((lag >= 0) & (lag <= s), gamma.take(lag, mode="clip"), 0)
    xi = gf.mat_mul(f, S[:, :nsyn], toep[:nsyn, :nsyn])
    lam, deg = _berlekamp_massey_oracle(f, xi[:, s:])
    lam = lam[:, : radius + 1]
    roots = (gf.mat_mul(f, lam, code.inv_pow[:, : radius + 1].T) == 0) & ~erased
    psi = gf.mat_mul(f, lam, toep[: radius + 1, : radius + s + 1])
    omega = _poly_mul_oracle(f, lam, xi, nsyn)
    dpsi = f.vmul(psi[:, 1:], code.deriv_mult[None, : radius + s])
    num = gf.mat_mul(f, omega, code.inv_pow[:, :nsyn].T)
    den = gf.mat_mul(f, dpsi, code.inv_pow[:, : radius + s].T)
    den[den == 0] = 1
    err = f.vmul(code.forney_mult, f.vmul(num, f.vinv(den)))
    err[~(roots | erased)] = 0
    good = roots.sum(axis=1) == deg
    good &= np.count_nonzero(err[:, ~erased], axis=1) <= radius
    good &= ~np.any(code.syndrome(err) != S, axis=1)
    sel = todo[good]
    E[sel] = err[good]
    X[sel] = f.vsub(Y[sel], E[sel])
    ok[sel] = True
    return X, E, ok


def gen_broadcast_decode_oracle(code, t, arrays, known_bad):
    """Reference generalized broadcast decoder for m >= 1: every row through
    code.unique_decode_batch with the known channels erased, and each
    codeword read on its first k channels.  Same contract and outputs as
    broadcast.gen_broadcast_decode, which must match it byte for byte,
    refusals included."""
    f = code.field
    m = code.k - 1
    known_bad = sorted(set(int(c) for c in known_bad))
    s = len(known_bad)
    if s < m:
        raise ValueError("need at least %d known corrupted channels, got %d" % (m, s))
    if s > t:
        raise ProtocolViolation("more than t channels flagged as corrupted")
    X, _, ok = code.unique_decode_batch(np.asarray(arrays, dtype=np.int64), erasures=known_bad)
    if not np.all(ok):
        raise ProtocolViolation("generalized broadcast failed to decode")
    minv, _ = gf.solve_right(f, code.G[:, : code.k], np.eye(code.k, dtype=np.int64))
    return gf.mat_mul(f, X[:, : code.k], minv).reshape(-1)


def _poly_mul_oracle(f, a, b, size):
    out = f.zeros((max(a.shape[0], b.shape[0]), size))
    for i in range(min(a.shape[1], size)):
        w = min(b.shape[1], size - i)
        out[:, i : i + w] = f.vadd(out[:, i : i + w], f.vmul(a[:, i : i + 1], b[:, :w]))
    return out


def _berlekamp_massey_oracle(f, S):
    m, N = S.shape
    C = f.zeros((m, N + 1))
    C[:, 0] = 1
    B = f.zeros((m, N + 1))
    B[:, 1:2] = 1
    L = np.zeros(m, dtype=np.int64)
    b = np.ones(m, dtype=np.int64)
    for i in range(N):
        d = f.vdot(C[:, : i + 1], S[:, i::-1])
        grow = (d != 0) & (2 * L <= i)
        prev = C
        C = f.vsub(C, f.vmul(f.vmul(d, f.vinv(b))[:, None], B))
        B = np.where(grow[:, None], prev, B)
        B = np.concatenate([f.zeros((m, 1)), B[:, :-1]], axis=1)
        L = np.where(grow, i + 1 - L, L)
        b = np.where(grow, d, b)
    return C, L


def assert_same_run(a, b):
    """Two RunResults with transcripts agree byte for byte: the secrets, the
    view key, and every transmission, sent and delivered."""
    assert np.array_equal(a.secrets, b.secrets) and a.view_key == b.view_key
    assert len(a.transcript.records) == len(b.transcript.records)
    for ra, rb in zip(a.transcript.records, b.transcript.records):
        assert ra[:3] == rb[:3]
        for x, y in zip(ra[3:], rb[3:]):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), ra[:2]


# The replay strategies as they were when each kept a private memory of her
# first taps, which reset() cleared.  The built-in ones read those taps from
# her view instead, and must give the same runs byte for byte.


class ReplayOracle(AdversaryStrategy):
    """Round 1: delivers each word's predecessor on her channels (a shift).
    Round 2: replays her recorded round-1 symbols in place of the broadcast
    content."""

    name = "replay"

    def __init__(self, corrupted, field):
        super().__init__(corrupted, field)
        self.memory = None

    def reset(self):
        self.memory = None

    def tamper(self, direction, phase, observed, view):
        if len(self.corrupted) == 0:
            return observed
        if direction == BOB_TO_ALICE:
            if self.memory is None:
                self.memory = observed.copy()
            return np.roll(observed, 1, axis=0)
        if self.memory is None or self.memory.shape[0] == 0:
            return observed
        idx = np.arange(observed.shape[0]) % self.memory.shape[0]
        return self.memory[idx]


class RankTapReplayOracle(GeneralizedAdversary):
    """Replays her own recorded taps as deltas, after zero deltas on the
    transmission she records."""

    name = "rank-tap-replay"

    def __init__(self, lambdas, mus, f):
        super().__init__(lambdas, mus, f)
        self.memory = None

    def reset(self):
        self.memory = None

    def tamper(self, direction, phase, taps, view):
        if self.memory is None:
            self.memory = taps.copy()
            return np.zeros(taps.shape, dtype=np.int64)
        flat = self.memory.reshape(-1)
        idx = np.arange(taps.size) % flat.size
        return flat[idx].reshape(taps.shape)

"""Small field and code conveniences that only the tests use."""

import numpy as np

from psmt import gf
from psmt.channels import ProtocolViolation

# the fields the code-level tests run over: two primes and two extensions
CODE_FIELDS = [gf.field(11), gf.field(13), gf.field(2, 4), gf.field(3, 3)]


def elements(f):
    """Every element of f, as ints in index order."""
    return range(f.q)


def sub(f, a, b):
    """Scalar a - b in f."""
    return f.add(a, f.neg(b))


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

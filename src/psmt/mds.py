"""Linear codes: LinearCode, the core both code families share (msg . G,
H . word, random codewords, Hamming weights); Reed-Solomon codes with unique
decoding; and the privacy pair that hides one symbol from t observers.

A Reed-Solomon code [n, k] here is the set of evaluations of degree < k
polynomials at n distinct nonzero points (by default the n smallest nonzero
field elements in index order).  The parity-check matrix comes from the dual
GRS description: row r has entries u_i * pt_i^r where u_i = prod_{j != i}
(pt_i - pt_j)^{-1}, so it is deterministic and its first row has all entries
nonzero.
"""

import numpy as np

from . import gf


class LinearCode:
    """An [n, k] code over field with generator G (k x n), parity check H
    ((n-k) x n) and minimum distance d; a subclass sets all six."""

    def encode(self, msg):
        """msg . G; msg is (k,) or a batch (..., k)."""
        msg = np.asarray(msg, dtype=np.int64)
        if msg.shape[-1] != self.k:
            raise ValueError("message length must be %d" % self.k)
        flat = msg.reshape(-1, self.k)
        out = gf.mat_mul(self.field, flat, self.G)
        return out.reshape(msg.shape[:-1] + (self.n,))

    def syndrome(self, word):
        """H times word, shape (..., n) -> (..., n-k)."""
        word = np.asarray(word, dtype=np.int64)
        if word.shape[-1] != self.n:
            raise ValueError("word length must be %d" % self.n)
        flat = word.reshape(-1, self.n)
        out = gf.mat_mul(self.field, flat, self.H.T)
        return out.reshape(word.shape[:-1] + (self.n - self.k,))

    def random_codeword(self, rng, count=None):
        """Uniformly random codeword(s) from a seeded generator."""
        shape = (self.k,) if count is None else (count, self.k)
        return self.encode(self.field.random(rng, shape))

    def weights(self, words):
        """Hamming weights of a stack of words."""
        return np.count_nonzero(words, axis=-1)


class ReedSolomonCode(LinearCode):
    def __init__(self, n, k, f, points=None):
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n, got k=%d n=%d" % (k, n))
        if n >= f.q:
            raise ValueError("length %d needs more nonzero points than %r has" % (n, f))
        if points is None:
            points = np.arange(1, n + 1, dtype=np.int64)
        else:
            points = np.asarray(points, dtype=np.int64)
            if points.shape != (n,):
                raise ValueError("expected %d evaluation points" % n)
            if np.any(points == 0) or len(set(points.tolist())) != n:
                raise ValueError("evaluation points must be distinct and nonzero")
            f.check_array(points)
        self.n = n
        self.k = k
        self.field = f
        self.points = points
        self.d = n - k + 1
        self.radius = (n - k) // 2
        # pt[i, j] = points[i]^j, as far as the generator and parity rows need
        pt = f.zeros((n, max(k, n - k)))
        pt[:, 0] = 1
        for j in range(1, pt.shape[1]):
            pt[:, j] = f.vmul(pt[:, j - 1], points)
        self.G = pt[:, :k].T.copy()
        # dual GRS column multipliers
        diffs = f.vsub(points[:, None], points[None, :])
        np.fill_diagonal(diffs, 1)
        u = f.zeros(n)
        u[:] = 1
        for j in range(n):
            u = f.vmul(u, diffs[:, j])
        self.dual_mult = f.vinv(u)
        self.H = f.vmul(self.dual_mult[None, :], pt[:, : n - k].T)
        # decoder tables: inv_pow[i, j] = points[i]^-j for the Chien search
        # and Forney's formula, -points[i] / dual_mult[i] for the errata
        # values, and j mod p for the formal derivative of x^j
        ip = f.zeros((n, n - k + 1))
        ip[:, 0] = 1
        pinv = f.vinv(points)
        for j in range(1, n - k + 1):
            ip[:, j] = f.vmul(ip[:, j - 1], pinv)
        self.inv_pow = ip
        self.forney_mult = f.vneg(f.vmul(points, u))
        self.deriv_mult = np.arange(1, n - k + 1, dtype=np.int64) % f.p
        if n - k > 0 and np.any(gf.mat_mul(f, self.G, self.H.T)):
            raise AssertionError("parity check does not annihilate the code")

    # an entry of its own, since the benchmark's tracer wraps
    # vars(mds.ReedSolomonCode)["syndrome"]
    syndrome = LinearCode.syndrome

    def unique_decode_batch(self, Y, erasures=()):
        """Vectorized unique decoding from syndromes: (codewords, errors, ok).

        Y is a (words, n) stack of field elements.  A word decodes when some
        codeword differs from it, outside the erased positions, in at most
        (n - k - s) // 2 places, s = len(erasures); the erased symbols are
        then restored too.  Words that do not decode come back as they are,
        with zero errors.  Berlekamp-Massey on the erasure-modified
        syndromes gives the error locator, a Chien search its roots, and
        Forney's formula the errata values.  With no erasures the erasure
        locator is 1 and nothing is multiplied by it.
        """
        f = self.field
        Y = np.asarray(Y, dtype=np.int64)
        n, r = self.n, self.n - self.k
        erasures = [int(e) for e in erasures]
        if any(not 0 <= e < n for e in erasures):
            raise ValueError("erasures must be positions 0..%d, got %s" % (n - 1, erasures))
        erased = np.zeros(n, dtype=bool)
        erased[erasures] = True
        s = int(erased.sum())
        if s > r:
            raise ValueError("%d erasures exceed the %d parity symbols" % (s, r))
        radius = (r - s) // 2
        E = f.zeros(Y.shape)
        syn = self.syndrome(Y)
        ok = ~np.any(syn != 0, axis=1)
        todo = np.nonzero(~ok)[0]
        if todo.size == 0:
            return Y.copy(), E, ok
        S = syn[todo]
        nsyn = s + 2 * radius
        if nsyn == 0:
            # radius 0 and nothing erased: only the codewords decode
            return Y.copy(), E, ok
        if s:
            # erasure locator Gamma(x) = prod (1 - p_j x), the same for every
            # word, as a Toeplitz matrix: row i holds x^i Gamma(x), so a row
            # of coefficients times it is that polynomial times Gamma
            gamma = f.zeros(s + 1)
            gamma[0] = 1
            for point in self.points[erased]:
                gamma[1:] = f.vsubmul(gamma[1:], point, gamma[:-1])
            lag = np.arange(nsyn + 1)[None, :] - np.arange(nsyn + 1)[:, None]
            toep = np.where((lag >= 0) & (lag <= s), gamma.take(lag, mode="clip"), 0)
            # modified syndromes Xi = Gamma * S mod x^nsyn
            xi = gf.mat_mul(f, S[:, :nsyn], toep[:nsyn, :nsyn])
        else:
            xi = S[:, :nsyn]  # Gamma = 1
        lam, deg = _berlekamp_massey(f, xi[:, s:])
        lam = lam[:, : radius + 1]
        # Chien search over the positions that are not erased
        roots = (gf.mat_mul(f, lam, self.inv_pow[:, : radius + 1].T) == 0) & ~erased
        # Forney, with errata locator Psi = Lambda * Gamma and evaluator
        # Omega = Psi * S mod x^nsyn, of degree below s + radius in any
        # word the checks accept: on the errata,
        # e_i = -p_i * Omega(1/p_i) / (Psi'(1/p_i) * dual_mult[i]),
        # numerators and denominators from one product
        psi = gf.mat_mul(f, lam, toep[: radius + 1, : radius + s + 1]) if s else lam
        omega = _poly_mul(f, lam, xi, s + radius)
        dpsi = f.vmul(psi[:, 1:], self.deriv_mult[None, : radius + s])
        num, den = np.split(gf.mat_mul(f, np.concatenate([omega, dpsi]),
                                       self.inv_pow[:, : s + radius].T), 2)
        den[den == 0] = 1  # on an erratum only in words the checks refuse
        err = f.vmul(self.forney_mult, f.vmul(num, f.vinv(den)))
        err[~(roots | erased)] = 0
        good = roots.sum(axis=1) == deg
        # the last two checks alone make any accepted word a correct decode
        good &= np.count_nonzero(err[:, ~erased], axis=1) <= radius
        good &= ~np.any(self.syndrome(err) != S, axis=1)
        E[todo[good]] = err[good]
        ok[todo] = good
        return f.vsub(Y, E), E, ok


def _poly_mul(f, a, b, size):
    """Row-wise products of the polynomials a and b (coefficient arrays,
    constant term first), truncated to their first size coefficients: one
    inner product of a with the reversed windows of b, zero-padded on the
    left, so coefficient j sums a_i b_{j-i}."""
    k = min(a.shape[1], size)
    w = min(b.shape[1], size)
    padded = f.zeros((b.shape[0], k - 1 + size))
    padded[:, k - 1 : k - 1 + w] = b[:, :w]
    # windows[r, j, i] = padded[r, k - 1 + j - i], a view
    step = padded.itemsize
    windows = np.ndarray((b.shape[0], size, k), np.int64, buffer=padded, offset=(k - 1) * step,
                         strides=(padded.strides[0], step, -step))
    return f.vdot(a[:, None, :k], windows)


def _berlekamp_massey(f, S):
    """Shortest linear recurrence of each row of S: connection polynomials
    (constant term 1, one column per coefficient) and their lengths."""
    m, N = S.shape
    C = f.zeros((m, N + 1))
    C[:, 0] = 1
    B = f.zeros((m, N + 1))  # x^shift times the last connection polynomial
    B[:, 1:2] = 1  # x, or nothing when N = 0
    L = np.zeros(m, dtype=np.int64)
    b = np.ones(m, dtype=np.int64)
    for i in range(N):
        d = f.vdot(C[:, : i + 1], S[:, i::-1])
        grow = (d != 0) & (L <= i // 2)  # 2L <= i
        # the next B is x times C where the length grows, else x times B
        shifted = f.zeros((m, N + 1))
        shifted[:, 1:] = B[:, :-1]
        np.copyto(shifted[:, 1:], C[:, :-1], where=grow[:, None])
        C = f.vsubmul(C, f.vmul(d, f.vinv(b))[:, None], B)
        B = shifted
        np.subtract(i + 1, L, out=L, where=grow)
        np.copyto(b, d, where=grow)
    return C, L


class PrivacyPair:
    """The [n, t+1] code of a family (ReedSolomonCode or
    rankmetric.GabidulinCode) with a mask row h, for n channels and t
    observers.  The [n+1, t+1] parent is built first.

    h is the first parity check of the parent whose last entry alpha is
    nonzero, restricted to the first n coordinates.  For any parent codeword
    (x | x_last): h . x = -alpha * x_last, and for a uniform codeword of the
    code the mask h . x stays uniform even after t coordinates of x are
    revealed.  For Reed-Solomon (which needs n+1 < q) that is row 0, the
    dual multiplier vector, whose entries are all nonzero.
    """

    def __init__(self, family, n, t, f):
        if t < 0 or t + 1 > n:
            raise ValueError("need 0 <= t <= n-1, got t=%d n=%d" % (t, n))
        parent = family(n + 1, t + 1, f)
        code = family(n, t + 1, f)
        row = next((r for r in parent.H if r[n]), None)
        if row is None:
            # all parity rows ending in zero would put the unit word e_n in the parent
            raise AssertionError("no usable parity row (unreachable for d > 1)")
        self.code = code
        self.parent = parent
        self.h = row[:n].copy()
        self.alpha = int(row[n])
        self.field = f

    def mask(self, words):
        """h . word along the last axis, as one (words, n) (n, 1) product."""
        words = np.asarray(words, dtype=np.int64)
        flat = words.reshape(-1, self.h.shape[0])
        return gf.mat_mul(self.field, flat, self.h[:, None]).reshape(words.shape[:-1])

"""Finite fields F_p and F_{p^m} with array-friendly exact arithmetic.

Elements are plain ints in [0, q).  For an extension field of degree m the int
encodes the coefficient vector of the residue polynomial in little-endian base
p: the element c0 + c1*x + ... + c_{m-1}*x^{m-1} has index sum(c_i * p^i).
So 0 and 1 are the field's zero and one in every representation, and "smallest"
always means smallest index.  An extension field is always built over
default_modulus(p, m).

The arithmetic is the v-prefixed ops, on numpy int64 arrays of any shape.
"""

import numpy as np

# From this many elements on, PrimeField reduces an int64 array as
# x - (x // p) * p: numpy divides by a scalar with vectorised code
# (Granlund-Montgomery division by an invariant integer), but not x % p.
# Measured with numpy 2.4.6 on a 2-vCPU x86-64 virtual machine: 16k elements
# 74 us with % and 33 us this way, a (2209, 47) array 493 us against 174 us;
# below 1,024 elements the three calls cost up to 2 us more than one %.
_FLOOR_DIV_MIN = 1024

# From this many multiply-adds on, a prime-field product that meets the
# exactness bound (PrimeField.fchunk) goes through float64 BLAS.  Same
# machine, one BLAS thread: 2,048 took 3.8-5.0 us on the int64 path against
# 4.7-7.2 us, 4,096 took 6.4-8.2 us against 5.6-6.2 us, and a
# (1058 x 23) (23 x 16) product 354 us against 85 us.
_FLOAT_MIN_MACS = 4096


def _mod(x, p):
    """x mod p for an int64 array or numpy scalar, with floor semantics, so
    for negative entries too.  Where (x // p) * p leaves int64 it wraps, and
    the difference still comes out exact."""
    if x.size < _FLOOR_DIV_MIN:
        return x % p
    q = x // p
    q *= p
    return np.subtract(x, q, out=q)


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def next_prime_above(n):
    """Smallest prime strictly greater than n."""
    c = n + 1
    while not is_prime(c):
        c += 1
    return c


class _FieldBase:
    """Shared plumbing; subclasses fill in the raw arithmetic."""

    def check_array(self, a):
        """a as an int64 array, refusing non-integer input (which a cast
        would truncate) and values outside [0, q)."""
        a = np.asarray(a)
        if a.size and a.dtype.kind not in "iu":
            raise ValueError("expected integer field elements, got an array of %s" % a.dtype)
        a = a.astype(np.int64, copy=False)
        if a.size and (a.min() < 0 or a.max() >= self.q):
            raise ValueError("array holds values outside %r" % (self,))
        return a

    def zeros(self, shape):
        return np.zeros(shape, dtype=np.int64)

    def random(self, rng, shape=()):
        """Uniform elements; index uniformity is element uniformity."""
        return rng.integers(0, self.q, size=shape, dtype=np.int64)

    def vsub(self, a, b):
        return self.vadd(a, self.vneg(b))

    def vsubmul(self, c, a, b):
        """c - a * b elementwise, broadcasting as numpy does: the update of
        every elimination step and of Berlekamp-Massey."""
        return self.vsub(c, self.vmul(a, b))

    def vdot(self, a, b):
        """Inner product along the last axis."""
        prod = self.vmul(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        out = self.zeros(prod.shape[:-1])
        for i in range(prod.shape[-1]):
            out = self.vadd(out, prod[..., i])
        return out


class PrimeField(_FieldBase):
    """F_p for prime p."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        if p >= 1 << 31:
            raise ValueError("prime %d is too large: products of elements must "
                             "fit in int64, so p < 2^31" % p)
        self.p = p
        # how many products of two elements an int64 sum holds, and how many
        # a float64 sum holds exactly: every partial sum of at most fchunk of
        # them is an integer of at most 2^53, whatever the summation order
        self.chunk = (2**63 - 1) // max((p - 1) ** 2, 1)
        self.fchunk = 2**53 // max((p - 1) ** 2, 1)
        self.q = p
        self.deg = 1
        if p <= 1 << 20:
            # inv[a] from the standard recurrence inv[a] = -(p//a) * inv[p%a]
            inv = np.zeros(p, dtype=np.int64)
            if p > 1:
                inv[1] = 1
            for a in range(2, p):
                inv[a] = (-(p // a) * inv[p % a]) % p
            self._inv_table = inv
        else:
            self._inv_table = None

    def vadd(self, a, b):
        return _mod(a + b, self.p)

    def vmul(self, a, b):
        return _mod(a * b, self.p)

    def vneg(self, a):
        return _mod(-a, self.p)

    def vsub(self, a, b):
        return _mod(a - b, self.p)

    def vsubmul(self, c, a, b):
        """c - a * b with one reduction: for elements, |c - a*b| < p + (p-1)^2,
        which int64 holds exactly since p < 2^31."""
        return _mod(c - a * b, self.p)

    def vinv(self, a):
        a = np.asarray(a)
        if not a.all():
            raise ZeroDivisionError("inverse of zero in %r" % self)
        if self._inv_table is not None:
            return self._inv_table[a]
        flat = [pow(int(v), self.p - 2, self.p) for v in a.ravel()]
        return np.array(flat, dtype=np.int64).reshape(a.shape)

    def vdot(self, a, b):
        """Inner product along the last axis.  Entries may be any x with
        |x| < p, as for mat_mul, and are not reduced first: every product
        then has |a*b| <= (p-1)^2, so an int64 sum of self.chunk of them is
        exact, and the sums are reduced between chunks."""
        p = self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        c = self.chunk
        out = _mod(np.einsum("...i,...i->...", a[..., :c], b[..., :c]), p)
        for i in range(c, a.shape[-1], c):
            part = np.einsum("...i,...i->...", a[..., i : i + c], b[..., i : i + c])
            out = _mod(out + _mod(part, p), p)
        return out

    def __repr__(self):
        return "F_%d" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul_mod(a, b, g, p):
    """Multiply coefficient lists mod (g, p).  g is monic."""
    m = len(g) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^m = -(g minus leading term)
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(m):
                prod[d - m + j] = (prod[d - m + j] - c * g[j]) % p
    prod = prod[:m]
    return prod + [0] * (m - len(prod))


def _poly_divmod(a, b, p):
    """Quotient and remainder of coefficient lists over F_p.  b nonzero."""
    a = list(a)
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for d in range(len(a) - len(b), -1, -1):
        c = (a[d + len(b) - 1] * inv_lead) % p
        if c:
            q[d] = c
            for j, bj in enumerate(b):
                a[d + j] = (a[d + j] - c * bj) % p
    return q, _poly_trim(a)


def _poly_gcd(a, b, p):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        _, r = _poly_divmod(a, b, p)
        a, b = b, r
    return a


def poly_is_irreducible(coeffs, p):
    """Irreducibility of a monic polynomial over F_p via x^(p^d) - x gcds."""
    m = len(coeffs) - 1
    if m < 1 or coeffs[-1] != 1:
        return False
    if m == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    # x^(p^d) mod f, taking gcd with x^(p^d) - x for d <= m/2
    xp = [0, 1] + [0] * (m - 2) if m >= 2 else [1]
    cur = list(xp)
    for d in range(1, m // 2 + 1):
        nxt = list(cur)
        e = p
        acc = [1] + [0] * (m - 1)
        base = list(nxt)
        while e:
            if e & 1:
                acc = _poly_mul_mod(acc, base, coeffs, p)
            base = _poly_mul_mod(base, base, coeffs, p)
            e >>= 1
        cur = acc
        diff = list(cur)
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd(diff, coeffs, p)
        if len(g) - 1 >= 1:
            return False
    return True


def default_modulus(p, m):
    """Smallest-index monic irreducible of degree m over F_p."""
    for low in range(p ** m):
        coeffs = []
        v = low
        for _ in range(m):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        if poly_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise ValueError("no irreducible polynomial found (unreachable)")


class ExtensionField(_FieldBase):
    """F_{p^m} as residues mod an irreducible polynomial, with exp/log tables."""

    _TABLE_LIMIT = 1 << 20

    def __init__(self, p, m):
        if not is_prime(p):
            raise ValueError("characteristic %d is not prime" % p)
        if m < 2:
            raise ValueError("extension degree must be at least 2")
        if p ** m > self._TABLE_LIMIT:
            raise ValueError("field size %d exceeds table limit" % p ** m)
        self.p = p
        self.m = m
        self.deg = m
        self.q = p ** m
        self.modulus = default_modulus(p, m)
        self._pow_p = np.array([p ** i for i in range(m)], dtype=np.int64)
        self._build_tables()
        # direct product/sum tables keep hot loops to one fancy index each
        if self.q <= 1 << 10:
            idx = np.arange(self.q, dtype=np.int64)
            self._mul_table = self._vmul_logs(idx[:, None], idx[None, :])
            self._add_table = None if p == 2 else self._vadd_digits(idx[:, None], idx[None, :])
            self._neg_table = None if p == 2 else self._vneg_digits(idx)
        else:
            self._mul_table = self._add_table = self._neg_table = None

    def encode(self, coeffs):
        """Coefficient list (little-endian) -> element index."""
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + (c % self.p)
        return v

    def decode(self, v):
        """Element index -> coefficient list of length m."""
        out = []
        for _ in range(self.m):
            out.append(v % self.p)
            v //= self.p
        return out

    def _raw_mul(self, a, b):
        return self.encode(
            _poly_mul_mod(self.decode(a), self.decode(b), list(self.modulus), self.p)
        )

    def _build_tables(self):
        q = self.q
        # find a multiplicative generator by direct order computation
        for g in range(2, q):
            exp = np.zeros(q - 1, dtype=np.int64)
            exp[0] = 1
            x = 1
            ok = True
            for i in range(1, q - 1):
                x = self._raw_mul(x, g)
                if x == 1:
                    ok = False
                    break
                exp[i] = x
            if ok and self._raw_mul(x, g) == 1:
                log = np.zeros(q, dtype=np.int64)
                log[exp] = np.arange(q - 1)
                self._exp = exp
                self._log = log
                return
        raise ValueError("no generator found (unreachable for a field)")

    def _vadd_digits(self, a, b):
        r = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for i in range(self.m - 1, -1, -1):
            pi = self._pow_p[i]
            r += ((a // pi + b // pi) % self.p) * pi
            a = a % pi
            b = b % pi
        return r

    def _vneg_digits(self, a):
        r = np.zeros(a.shape, dtype=np.int64)
        for i in range(self.m - 1, -1, -1):
            pi = self._pow_p[i]
            r += ((-(a // pi)) % self.p) * pi
            a = a % pi
        return r

    def _vmul_logs(self, a, b):
        nz = (a != 0) & (b != 0)
        av = np.where(a == 0, 1, a)
        bv = np.where(b == 0, 1, b)
        r = self._exp[(self._log[av] + self._log[bv]) % (self.q - 1)]
        return np.where(nz, r, 0)

    def vadd(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a, b]
        return self._vadd_digits(a, b)

    def vneg(self, a):
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return a.copy()
        if self._neg_table is not None:
            return self._neg_table[a]
        return self._vneg_digits(a)

    def vmul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self._mul_table is not None:
            return self._mul_table[a, b]
        return self._vmul_logs(a, b)

    def vinv(self, a):
        a = np.asarray(a)
        if not a.all():
            raise ZeroDivisionError("inverse of zero in %r" % self)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def vfrob(self, a):
        """a^p elementwise, the Frobenius map."""
        a = np.asarray(a, dtype=np.int64)
        nz = a != 0
        av = np.where(nz, a, 1)
        r = self._exp[(self._log[av] * self.p) % (self.q - 1)]
        return np.where(nz, r, 0)

    def __repr__(self):
        return "F_%d^%d" % (self.p, self.m)

    def __eq__(self, other):
        return isinstance(other, ExtensionField) and (other.p, other.m) == (self.p, self.m)

    def __hash__(self):
        return hash(("ExtensionField", self.p, self.m))


def field(p, m=1):
    """Build F_p (m == 1) or F_{p^m}.  Raises ValueError on bad parameters."""
    if m == 1:
        return PrimeField(p)
    return ExtensionField(p, m)


def field_of_order(q):
    """Field with q elements, factoring q as a prime power."""
    if q < 2:
        raise ValueError("field order must be at least 2, got %d" % q)
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q
    m, v = 0, q
    while v % p == 0:
        v //= p
        m += 1
    if v != 1:
        raise ValueError("q must be a prime power, got %d" % q)
    return field(p, m)


# --- linear algebra over an arbitrary field object ---------------------------


def _eliminate(f, M, limit):
    """In-place forward/backward elimination on M, pivoting in columns < limit.

    Returns the list of pivot columns.  M ends in reduced row echelon form
    with respect to those columns.
    """
    rows = M.shape[0]
    pivots = []
    r = 0
    for c in range(limit):
        if r == rows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr]] = M[[pr, r]]
        M[r] = f.vmul(M[r], f.vinv(M[r, c : c + 1]))
        factor = M[:, c].copy()
        factor[r] = 0
        M[...] = f.vsubmul(M, factor[:, None], M[r][None, :])
        pivots.append(c)
        r += 1
    return pivots


def rref(f, M):
    """Reduced row echelon form and pivot columns."""
    M = np.array(M, dtype=np.int64)
    pivots = _eliminate(f, M, M.shape[1]) if M.size else []
    return M, pivots


def mat_rank(f, M):
    M = np.asarray(M, dtype=np.int64)
    if M.size == 0:
        return 0
    return len(rref(f, M)[1])


def mat_mul(f, A, B):
    """Matrix product over f.

    Over a prime field, where entries may be any x with |x| < p, it takes
    one of two exact paths, chosen by the shapes.  With K = A.shape[1]
    at most f.fchunk and at least _FLOAT_MIN_MACS multiply-adds, it is one
    float64 BLAS product: every partial sum is an integer of at most 2^53,
    so exact in any order, with or without fused multiply-add.  Otherwise it
    is int64 products over chunks of f.chunk columns, reduced between chunks;
    that is the only exact path once (p-1)^2 exceeds 2^53, and the faster
    one for small products.  Extension fields take a loop over K.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if isinstance(f, PrimeField):
        p = f.p
        if A.shape[0] * B.size >= _FLOAT_MIN_MACS and A.shape[1] <= f.fchunk:
            return _mod((A.astype(np.float64) @ B.astype(np.float64)).astype(np.int64), p)
        c = f.chunk
        out = _mod(A[:, :c] @ B[:c], p)
        for i in range(c, A.shape[1], c):
            out = _mod(out + _mod(A[:, i : i + c] @ B[i : i + c], p), p)
        return out
    if A.shape[1] == 0:
        return f.zeros((A.shape[0], B.shape[1]))
    out = f.vmul(A[:, :1], B[:1])
    for i in range(1, A.shape[1]):
        out = f.vadd(out, f.vmul(A[:, i : i + 1], B[i : i + 1, :]))
    return out


def solve_right(f, A, b):
    """Solve A x = b.  b may be a vector or a matrix of stacked columns.

    Returns (x, ok): free variables are set to zero, and ok flags consistency
    (a bool, or a bool array with one entry per right-hand column).

    A is factored once, whatever the number of columns of b: eliminating
    [A | I] gives the reduced row echelon form R = T A, with w pivots, and
    T.  Then T b is the right-hand part of the reduced [A | b], so x at the
    pivots is T[:w] b, and a column is consistent when T[w:] b is zero.
    """
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    single = b.ndim == 1
    b2 = b[:, None] if single else b
    rows, ncols = A.shape
    aug = np.concatenate([A, np.eye(rows, dtype=np.int64)], axis=1)
    pivots = _eliminate(f, aug, ncols)
    tb = mat_mul(f, aug[:, ncols:], b2)
    w = len(pivots)
    ok = ~np.any(tb[w:] != 0, axis=0)
    x = f.zeros((ncols, b2.shape[1]))
    x[pivots] = tb[:w]
    if single:
        return x[:, 0], bool(ok[0])
    return x, ok


def null_space(f, A):
    """Rows form a basis of the right null space of A (RREF-derived, so
    deterministic)."""
    A = np.asarray(A, dtype=np.int64)
    n = A.shape[1]
    R, pivots = rref(f, A)
    free = [c for c in range(n) if c not in pivots]
    basis = f.zeros((len(free), n))
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = f.vneg(R[: len(pivots), free].T)
    return basis


def solve_batched(f, A, b):
    """Solve A[i] x = b[i] for a stack of systems, one solve_right each.

    A has shape (B, R, C) and b (B, R).  Returns (X, ok) with X of shape
    (B, C) (free variables zero) and ok a bool array flagging consistency.
    The library itself no longer solves stacks of systems.
    """
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    X = f.zeros((A.shape[0], A.shape[2]))
    ok = np.zeros(A.shape[0], dtype=bool)
    for i in range(A.shape[0]):
        X[i], ok[i] = solve_right(f, A[i], b[i])
    return X, ok

"""Property tests: field axioms, unique decoding within the radius, with
and without erasures, and syndrome linearity, over prime and extension
fields.

Examples are derandomized, so every run checks the same cases."""

import numpy as np
from hypothesis import given, settings, strategies as st

from psmt import gf, mds
from helpers import CODE_FIELDS

FIELDS = [
    gf.field(2),
    gf.field(7),
    gf.field(101),
    gf.field(2147483647),
    gf.field(2, 4),
    gf.field(3, 3),
    gf.field(2, 8),
    gf.field(5, 2),
]

fixed = settings(derandomize=True, deadline=None)


def elements(f):
    return st.integers(0, f.q - 1)


@fixed
@given(st.data())
def test_field_axioms(data):
    f = data.draw(st.sampled_from(FIELDS))
    a, b, c = (data.draw(elements(f)) for _ in range(3))
    add, mul = f.add, f.mul
    assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
    assert add(a, f.neg(a)) == 0
    if a:
        assert mul(a, f.inv(a)) == 1
    # the array ops agree with the scalar ones
    va, vb = np.array([a, b, c]), np.array([b, c, a])
    assert f.vadd(va, vb).tolist() == [add(x, y) for x, y in zip(va, vb)]
    assert f.vmul(va, vb).tolist() == [mul(x, y) for x, y in zip(va, vb)]
    assert f.vneg(va).tolist() == [f.neg(x) for x in va]


@st.composite
def code_and_word(draw):
    """A Reed-Solomon code, a message, and an error of weight at most the
    unique decoding radius."""
    f = draw(st.sampled_from(CODE_FIELDS))
    n = draw(st.integers(1, min(f.q - 1, 12)))
    k = draw(st.integers(1, n))
    msg = draw(st.lists(elements(f), min_size=k, max_size=k))
    radius = (n - k) // 2
    where = draw(st.lists(st.integers(0, n - 1), max_size=radius, unique=True))
    err = np.zeros(n, dtype=np.int64)
    for i in where:
        err[i] = draw(st.integers(1, f.q - 1))
    return mds.ReedSolomonCode(n, k, f), np.array(msg, dtype=np.int64), err


@fixed
@given(code_and_word())
def test_unique_decode_within_radius(case):
    code, msg, err = case
    x = code.encode(msg)
    X, E, ok = code.unique_decode_batch(code.field.vadd(x, err)[None, :])
    assert ok[0]
    assert np.array_equal(X[0], x)
    assert np.array_equal(E[0], err)


@st.composite
def code_erasures_and_word(draw):
    """A Reed-Solomon code, a set of s erased positions, a codeword, and a
    word that holds arbitrary values at the erasures and differs from the
    codeword in at most (n - k - s) // 2 other places.  F_{2^31-1} is in
    the mix: there an int64 sum holds two products (f.chunk == 2), and
    vdot in Berlekamp-Massey works on entries it does not reduce first."""
    f = draw(st.sampled_from(CODE_FIELDS + [gf.field(2147483647)]))
    n = draw(st.integers(1, min(f.q - 1, 12)))
    k = draw(st.integers(1, n))
    code = mds.ReedSolomonCode(n, k, f)
    erased = draw(st.lists(st.integers(0, n - 1), max_size=n - k, unique=True))
    x = code.encode(draw(st.lists(elements(f), min_size=k, max_size=k)))
    y = x.copy()
    for i in erased:
        y[i] = draw(elements(f))
    live = [i for i in range(n) if i not in erased]
    radius = (n - k - len(erased)) // 2
    for i in draw(st.lists(st.sampled_from(live), max_size=radius, unique=True)):
        y[i] = f.add(int(y[i]), draw(st.integers(1, f.q - 1)))
    return code, erased, x, y


@fixed
@given(code_erasures_and_word())
def test_errors_and_erasures_decode_to_the_codeword(case):
    code, erased, x, y = case
    X, E, ok = code.unique_decode_batch(y[None, :], erasures=erased)
    assert ok[0]
    assert np.array_equal(X[0], x)
    assert np.array_equal(E[0], code.field.vsub(y, x))


@fixed
@given(st.data())
def test_syndrome_is_linear(data):
    f = data.draw(st.sampled_from(CODE_FIELDS))
    n = data.draw(st.integers(1, min(f.q - 1, 12)))
    k = data.draw(st.integers(1, n))
    code = mds.ReedSolomonCode(n, k, f)
    words = st.lists(elements(f), min_size=n, max_size=n)
    y, z = (np.array(data.draw(words), dtype=np.int64) for _ in range(2))
    a, b = data.draw(elements(f)), data.draw(elements(f))
    lhs = code.syndrome(f.vadd(f.vmul(np.int64(a), y), f.vmul(np.int64(b), z)))
    rhs = f.vadd(f.vmul(np.int64(a), code.syndrome(y)),
                 f.vmul(np.int64(b), code.syndrome(z)))
    assert np.array_equal(lhs, rhs)

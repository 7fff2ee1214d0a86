"""Small field and code conveniences that only the tests use."""

import numpy as np


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

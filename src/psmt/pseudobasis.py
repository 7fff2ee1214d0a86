"""Pseudo-basis selection and error recovery from syndromes.

Received words y^(i) = x^(i) + e^(i) share error support: the adversary sits
on a fixed set of at most t = n - k channels, so the syndromes sigma(y^(i)) =
sigma(e^(i)) live in a space of dimension at most t.  A pseudo-basis is a
minimal subset of the words whose syndromes span all the syndromes.  Whoever
learns the actual errors on those words (by also knowing the originals) can
reproduce every other word's error as the matching linear combination, because
the syndrome map is injective on the span of the e^(i) (all its elements have
weight at most t < d).
"""

import numpy as np

from . import gf
from .channels import ProtocolViolation


class PseudoBasis:
    """Selected word indices, the words themselves, and their syndromes.
    compute_pseudo_basis also keeps every input word's syndrome, in input
    order, as all_syndromes."""

    def __init__(self, indices, words, syndromes):
        self.indices = list(indices)
        self.words = words
        self.syndromes = syndromes

    def __len__(self):
        return len(self.indices)


class ErrorBasis:
    """Actual error vectors behind a pseudo-basis, with their joint support."""

    def __init__(self, indices, errors, syndromes, support):
        self.indices = list(indices)
        self.errors = errors
        self.syndromes = syndromes
        self.support = support

    def __len__(self):
        return len(self.indices)


def empty_error_basis(code):
    """The error basis of an empty pseudo-basis."""
    f = code.field
    return ErrorBasis([], f.zeros((0, code.n)), f.zeros((0, code.n - code.k)),
                      np.array([], dtype=np.int64))


def compute_pseudo_basis(code, words):
    """Greedy scan in input order, keeping each word whose syndrome is outside
    the span of the syndromes kept so far.  At most n - k words are kept.

    Takes the nonzero syndromes in windows of 2 (n - k); a zero syndrome
    is in every span, so it is never kept.  Each window is reduced against
    the reduced row echelon basis of the kept ones with one matrix product,
    and each word kept inside it reduces the rest of the window with one
    rank-1 update.  A reduced syndrome is zero exactly when it is in the
    span, so the picks are the greedy scan's, and once n - k words are kept
    no later syndrome is reduced."""
    f = code.field
    words = np.asarray(words, dtype=np.int64)
    syns = code.syndrome(words)
    nsyn = syns.shape[1]
    nonzero = syns.any(axis=1).nonzero()[0]
    kept = []
    basis = f.zeros((nsyn, nsyn))  # rows 0 .. len(kept)-1 are in use
    pivots = []
    start = 0
    while start < len(nonzero) and len(pivots) < nsyn:
        rest = syns[nonzero[start:start + 2 * nsyn]]
        if pivots:
            rest = f.vsub(rest, gf.mat_mul(f, rest[:, pivots], basis[:len(pivots)]))
        row = None
        while len(pivots) < nsyn:
            if row is not None:
                rest = f.vsubmul(rest, rest[:, pc:pc + 1], row)
            live = rest.any(axis=1).nonzero()[0]
            if not live.size:
                break
            i = int(live[0])
            row = rest[i]
            pc = int(row.nonzero()[0][0])
            row = f.vmul(row, f.vinv(row[pc:pc + 1]))
            w = len(pivots)
            if w:
                basis[:w] = f.vsubmul(basis[:w], basis[:w, pc:pc + 1], row)
            basis[w] = row
            pivots.append(pc)
            kept.append(int(nonzero[start + i]))
            start += i + 1
            rest = rest[i + 1:]
        start += len(rest)
    pb = PseudoBasis(kept, words[kept].copy(), syns[kept].copy())
    pb.all_syndromes = syns
    return pb


def extract_error_basis(code, pb, originals):
    """Subtract the sent codewords from the pseudo-basis words.

    originals is the full stack of sent codewords, indexed by pb.indices.
    Raises ProtocolViolation if some extracted error is not actually an
    error pattern the code can attribute (weight >= d in the code's metric,
    Hamming or rank), which cannot happen for an in-model adversary when
    n - k <= t < d.
    """
    f = code.field
    originals = np.asarray(originals, dtype=np.int64)
    errors = f.vsub(pb.words, originals[pb.indices])
    _check_below_distance(code, errors, "pseudo-basis")
    support = np.nonzero(np.any(errors != 0, axis=0))[0]
    return ErrorBasis(pb.indices, errors, pb.syndromes, support)


def recover_error(code, basis, syndromes):
    """Error vectors with the given syndromes inside the basis span.

    syndromes is read as a stack of rows of length n - k; returns the
    (rows, n) matching errors.  Raises ProtocolViolation when a syndrome is
    outside the span (the adversary left her channel set) or names an error
    of weight >= d."""
    f = code.field
    syndromes = np.asarray(syndromes, dtype=np.int64).reshape(-1, code.n - code.k)
    if len(basis) == 0:
        if np.any(syndromes):
            raise ProtocolViolation("nonzero syndrome with an empty error basis")
        return f.zeros((syndromes.shape[0], code.n))
    lam, ok = gf.solve_right(f, basis.syndromes.T, syndromes.T)
    if not np.all(ok):
        raise ProtocolViolation("syndrome outside the pseudo-basis span")
    errors = gf.mat_mul(f, lam.T, basis.errors)
    _check_below_distance(code, errors, "recovered")
    return errors


def _check_below_distance(code, errors, what):
    """Refuses errors of weight >= d in the code's metric (Hamming or rank),
    which no in-model adversary makes."""
    weights = code.weights(errors)
    if (weights >= code.d).any():
        raise ProtocolViolation("%s error of weight %d meets the code"
                                % (what, weights.max()))

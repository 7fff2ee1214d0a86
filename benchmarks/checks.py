"""Output checks the benchmark computes itself, from the public parameters.

Nothing here calls into psmt: the expected ledger totals are the paper's
closed forms re-derived from (n, t, l, q, w), so a change that alters what
goes over the channels fails the check instead of moving the baseline.
"""


def ceil_div(a, b):
    return -(-a // b)


def index_width(count, q):
    """Base-q digits that name word indices 0 .. count-1: ceil(log_q count),
    and at least one digit."""
    width, reach = 1, q
    while reach < count:
        width += 1
        reach *= q
    return width


def basic_symbols(n, t, l, q, w):
    """run_basic: round one, the count, w indices and w words in plain
    broadcast, then per secret t syndrome symbols and the masked value."""
    width = index_width(t + l, q)
    return n * ((t + l) + 1 + w * width + w * n + l * (t + 1))


def improved_symbols(n, t, l, q, w):
    """run_improved: round one carries one extra word; the pseudo-basis
    phase (indices with coefficients, special word, words packed
    (m+1)-fold) exists only when w > 0; syndromes go packed
    (m_syn+1)-fold and each secret carries two masked values."""
    width = index_width(t + l + 1, q)
    m = min(w, t // 3)
    m_syn = (t + 1) // 2
    pb_phase = w * (width + 1) + n + w * ceil_div(n, m + 1) if w else 0
    return n * ((t + l + 1) + 1 + pb_phase + l * ceil_div(t, m_syn + 1) + 2 * l)


def improved_ceiling(n, t, l):
    """The paper's worst-case total for run_improved, reached at w = t."""
    return 5 * n * l + 4 * n * n + 4 * n * t + 2 * n


def rank_symbols(n, t, l, q, w):
    """run_rank_protocol: like run_basic, but syndromes and masked values
    go as separate rank broadcasts (l*t + l arrays)."""
    width = index_width(t + l, q)
    return n * ((t + l) + 1 + w * width + w * n + l * t + l)


EXPECTED_SYMBOLS = {
    "basic": basic_symbols,
    "improved": improved_symbols,
    "rank": rank_symbols,
}


def session_errors(protocol, n, t, l, q, w, symbols, full_pseudo_basis):
    """Problems with one session's cost record; an empty list when it holds.

    full_pseudo_basis: the adversary is known to force w = t."""
    errors = []
    if not 0 <= w <= t:
        errors.append("pseudo-basis size w=%d outside [0, %d]" % (w, t))
    if full_pseudo_basis and w != t:
        errors.append("pseudo-basis size w=%d, the adversary forces %d" % (w, t))
    expected = EXPECTED_SYMBOLS[protocol](n, t, l, q, w)
    if symbols != expected:
        errors.append("ledger holds %d symbols, closed form gives %d at w=%d"
                      % (symbols, expected, w))
    if protocol == "improved" and symbols > improved_ceiling(n, t, l):
        errors.append("ledger holds %d symbols, above the ceiling %d"
                      % (symbols, improved_ceiling(n, t, l)))
    return errors


def audit_runs(t, l, q):
    """Runs an exhaustive audit of run_basic enumerates: every choice of
    t+l round-one codewords of the [n, t+1] code times every secret vector."""
    return (q ** (t + 1)) ** (t + l) * q ** l

"""The benchmark's four workloads.

Each workload repeats rounds of one fixed list of operations made from the
seed: a run stops only at the end of a round, so the counts it reports per
round, and the share of failed operations, do not depend on how many rounds
fit in the run.  An operation is one protocol session; in audit-n3 it is one
of the runs the audit enumerates.

Protocol entry points are looked up on their module at every call, so a
traced run times the same calls through the tracer's wrappers.
"""

import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from psmt import gf, protocols, rankmetric
from psmt.channels import builtin_adversaries

import checks


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    secrets: int = 0      # secrets delivered and found equal to those sent
    symbols: int = 0      # ledger symbols of the sessions that ended
    busy_ns: int = 0      # time spent in the measured calls
    # run_* call times, grouped by adversary where a workload mixes them
    durations_ns: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)        # failed output checks

    def fail(self, what, count=1):
        if not self.failed:
            print("%s raised:" % what, file=sys.stderr)
            traceback.print_exc()
        self.failed += count


@dataclass
class State:
    seed: int
    params: object
    context: object
    adversaries: list = None


class SessionWorkload:
    """Sessions of one protocol; session k draws its adversary, secrets and
    round-one codewords from numpy's default_rng([seed, k]), as trial k of
    `psmt run` does, and all sessions share one protocol context."""

    def __init__(self, name, protocol, n, t, l, p, m, adversary, sessions):
        self.name, self.protocol = name, protocol
        self.n, self.t, self.l, self.p, self.m = n, t, l, p, m
        self.adversary = adversary
        self.sessions = sessions

    def setup(self, seed, tally):
        """Field, parameters and context, then one untimed warm-up session
        that fills the context's lazy caches."""
        f = gf.field(self.p, self.m)
        if self.protocol == "rank":
            params = rankmetric.RankParams(self.n, self.t, self.l, f)
            ctx = rankmetric.RankContext(params)
        else:
            params = protocols.SessionParams(self.n, self.t, self.l, f)
            ctx = protocols.ProtocolContext(params)
        state = State(seed, params, ctx)
        warm = Tally()
        self._session(state, 0, warm)
        tally.errors.extend(warm.errors)
        return state

    def _runner(self):
        if self.protocol == "rank":
            return rankmetric.run_rank_protocol
        return getattr(protocols, "run_" + self.protocol)

    def _session(self, st, k, tally):
        params = st.params
        n, t, l, q = params.n, params.t, params.l, params.field.q
        rng = np.random.default_rng([st.seed, k])
        if self.protocol == "rank":
            adversary = rankmetric.random_generalized_adversary(n, t, params.field, rng)
        else:
            adversary = builtin_adversaries()[self.adversary](n, t, params.field, rng)
        secrets = rng.integers(0, q, size=l, dtype=np.int64)
        run = self._runner()
        tally.attempted += 1
        start = time.perf_counter_ns()
        try:
            res = run(params, secrets, adversary=adversary, rng=rng, context=st.context)
        except Exception:  # a failed operation is counted, and the run goes on
            tally.fail("%s session %d" % (self.name, k))
            return
        took = time.perf_counter_ns() - start
        tally.durations_ns.setdefault(self.name, []).append(took)
        tally.busy_ns += took
        symbols = res.ledger.symbols()
        tally.symbols += symbols
        problems = checks.session_errors(
            self.protocol, n, t, l, q, int(res.stats["w"]), symbols,
            full_pseudo_basis=self.adversary == "targeted-syndrome")
        if np.array_equal(res.secrets, secrets):
            tally.secrets += l
        else:
            problems.append("delivered secrets differ from those sent")
        if problems:
            tally.errors.append("%s session %d: %s" % (self.name, k, "; ".join(problems)))

    def run_round(self, st, tally):
        # Every session meets a channel set no earlier session used, as it
        # would with fresh random sets; the punctured codes cached for the
        # previous round's sets are dropped so that the round pays for its
        # own, and no round is cheaper than the first.
        cache = getattr(st.context, "punct_cache", None)
        if cache is not None:
            cache.clear()
        for k in range(self.sessions):
            self._session(st, k, tally)


class AuditWorkload:
    """One exhaustive privacy_audit of run_basic per audit adversary.

    The audit gets a recording runner: a plain function around run_basic
    that times each run and keeps its pseudo-basis size and ledger total.
    It is not run_improved, so the audit enumerates t+l round-one words,
    exactly as for run_basic itself."""

    def __init__(self, name, n, t, l, p):
        self.name = name
        self.n, self.t, self.l, self.p = n, t, l, p

    def setup(self, seed, tally):
        """Field, parameters and adversaries, then one untimed warm-up audit
        against the first (passive) adversary.  The seed is not used: the
        audit enumerates every input, and its adversaries are the library's
        fixed audit set, the one `psmt audit` runs."""
        f = gf.field(self.p)
        params = protocols.SessionParams(self.n, self.t, self.l, f)
        state = State(seed, params, None, protocols.audit_adversaries(params))
        report = protocols.privacy_audit(params, protocols.run_basic, state.adversaries[0])
        if not report.passed:
            tally.errors.append("%s warm-up audit: %s" % (self.name, report.detail))
        return state

    def run_round(self, st, tally):
        params = st.params
        n, t, l, q = params.n, params.t, params.l, params.field.q
        expected = checks.audit_runs(t, l, q)
        for adversary in st.adversaries:
            durations, ws, symbols, wrong = [], [], [], []
            clock = time.perf_counter_ns

            def recorder(params, secrets, *args, **kwargs):
                start = clock()
                res = protocols.run_basic(params, secrets, *args, **kwargs)
                durations.append(clock() - start)
                ws.append(res.stats["w"])
                symbols.append(res.ledger.symbols())
                if not np.array_equal(res.secrets, secrets):
                    wrong.append(secrets)
                return res

            tally.attempted += expected
            start = clock()
            try:
                report = protocols.privacy_audit(params, recorder, adversary)
            except Exception:  # a failed operation is counted, and the run goes on
                tally.fail("%s audit of %s" % (self.name, adversary.name), expected)
                continue
            tally.busy_ns += clock() - start
            tally.durations_ns.setdefault(adversary.name, []).extend(durations)
            tally.symbols += sum(symbols)
            tally.secrets += (len(durations) - len(wrong)) * l
            problems = []
            if not report.passed:
                problems.append("audit says FAIL: %s" % report.detail)
            if report.runs != expected or len(durations) != expected:
                problems.append("%d runs reported, %d recorded, %d expected"
                                % (report.runs, len(durations), expected))
            if report.num_views < 1:
                problems.append("no adversary views recorded")
            if wrong:
                problems.append("%d runs delivered other secrets" % len(wrong))
            for w, s in sorted(set(zip(ws, symbols))):
                problems += checks.session_errors("basic", n, t, l, q, w, s, False)
            if problems:
                tally.errors.append("%s against %s: %s"
                                    % (self.name, adversary.name, "; ".join(problems)))


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        SessionWorkload("improved-n23", "improved", 23, 11, 529, 29, 1, "targeted-syndrome", 5),
        SessionWorkload("basic-n47", "basic", 47, 23, 2209, 53, 1, "random-noise", 5),
        SessionWorkload("rank-n5", "rank", 5, 2, 25, 2, 6, None, 5),
        AuditWorkload("audit-n3", 3, 1, 1, 5),
    )
}

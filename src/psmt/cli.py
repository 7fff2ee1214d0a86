"""Command line front end: run experiments, privacy audits, cost benches.

Three subcommands:

    psmt run    one configuration, many trials; per-phase and summary CSVs
    psmt audit  exhaustive privacy audit at enumerable sizes
    psmt bench  sweep (n, l) and compare measured totals to the closed form

Exit status: 0 on success / audit PASS, 1 on a reliability failure or audit
FAIL, 2 on a validation error or an audit budget refusal.

Every CSV starts with a schema-version line.  Symbol counts are integers;
ratios appear as exact fractions "p/q" next to a fixed-format decimal column,
so identical spec + seed reproduces files byte for byte.  Trial k draws from
numpy's default_rng seeded with [seed, k], so any single trial can be rerun
in isolation.  PSMT_LOG=debug|info|warning controls verbosity.
"""

import argparse
import logging
import os
import sys
from dataclasses import dataclass, field as dfield
from fractions import Fraction

import numpy as np

from . import gf
from .channels import (
    ALICE_TO_BOB,
    BOB_TO_ALICE,
    PHASE_MASKED,
    PHASE_PB_OVERHEAD,
    PHASE_PSEUDO_BASIS,
    PHASE_ROUND1,
    builtin_adversaries,
)
from .protocols import (
    DEFAULT_AUDIT_BUDGET,
    AuditBudgetExceeded,
    SessionParams,
    ProtocolContext,
    audit_adversaries,
    privacy_audit,
    run_basic,
    run_improved,
)
from .rankmetric import (
    RankContext,
    RankParams,
    random_generalized_adversary,
    rank_audit_adversaries,
    rank_privacy_audit,
    run_rank_protocol,
)

log = logging.getLogger("psmt.cli")

SCHEMA_PHASES = "# schema: psmt-phases/1"
SCHEMA_SUMMARY = "# schema: psmt-summary/1"
SCHEMA_BENCH = "# schema: psmt-bench/1"
SCHEMA_AUDIT = "# schema: psmt-audit/1"

_PHASE_ORDER = {PHASE_ROUND1: 0, PHASE_PSEUDO_BASIS: 1,
                PHASE_PB_OVERHEAD: 2, PHASE_MASKED: 3}
_DIR_ORDER = {BOB_TO_ALICE: 0, ALICE_TO_BOB: 1}


@dataclass
class ExperimentSpec:
    protocol: str = "improved"
    n: int = 5
    t: int = 0
    l: int = 1
    q: int = 0
    m: int = 0
    adversary: str = "passive"
    seed: int = 0
    trials: int = 1
    out: str = "."
    transcript: bool = False
    budget: int = DEFAULT_AUDIT_BUDGET
    ns: list = dfield(default_factory=list)
    ls: list = dfield(default_factory=list)


class SpecError(ValueError):
    pass


def _frac_str(fr):
    return "%d/%d" % (fr.numerator, fr.denominator)


def _dec_str(fr):
    return "%.6f" % (fr.numerator / fr.denominator)


def _resolve_name(name, choices, what):
    if name in choices:
        return name
    hits = [c for c in sorted(choices) if c.startswith(name)]
    if len(hits) == 1:
        return hits[0]
    raise SpecError("unknown %s %r (choices: %s)"
                    % (what, name, ", ".join(sorted(choices))))


def _resolve_nt(spec):
    """n and t, with t defaulting to (n-1)/2, or raise SpecError."""
    n = spec.n
    t = spec.t if spec.t else (n - 1) // 2
    if n != 2 * t + 1:
        raise SpecError("n must equal 2t+1 (got n=%d, t=%d)" % (n, t))
    return n, t


def _classical_spec(spec):
    """Resolve n/t/q defaults and build SessionParams, or raise SpecError."""
    n, t = _resolve_nt(spec)
    q = spec.q if spec.q else gf.next_prime_above(n)
    return SessionParams(n, t, spec.l, gf.field_of_order(q))


def _rank_spec(spec):
    """Resolve n/t/q/m defaults and build RankParams."""
    n, t = _resolve_nt(spec)
    q = spec.q if spec.q else 2
    m = spec.m if spec.m else n + 1
    return RankParams(n, t, spec.l, gf.field(q, m))


def _ledger_rows(ledger):
    rows = ledger.rows()
    rows.sort(key=lambda r: (_PHASE_ORDER.get(r[0], 9), r[0],
                             _DIR_ORDER.get(r[1], 9), r[1]))
    return rows


def _open_out(spec, name):
    os.makedirs(spec.out, exist_ok=True)
    return open(os.path.join(spec.out, name), "w")


def _classical_factory(spec):
    """Resolve the adversary name; its factory, or None for "none"."""
    spec.adversary = _resolve_name(
        spec.adversary, list(builtin_adversaries()) + ["none"], "adversary")
    return None if spec.adversary == "none" else builtin_adversaries()[spec.adversary]


def _rank_adversaries(params):
    """The rank audit strategies by CLI name: passive, fixed-tamper, tap-replay."""
    return {a.name.replace("rank-", ""): a for a in rank_audit_adversaries(params)}


def _trial(params, ctx, runner, adv_factory, spec, k):
    """Trial k: its adversary (from adv_factory(n, t, field, rng), or none)
    and secrets drawn from default_rng([seed, k]), then one run."""
    rng = np.random.default_rng([spec.seed, k])
    f = params.field
    adv = adv_factory(params.n, params.t, f, rng) if adv_factory else None
    secrets = f.random(rng, params.l)
    res = runner(params, secrets, adversary=adv, rng=rng, context=ctx,
                 record_transcript=spec.transcript)
    return secrets, res


def cmd_run(spec):
    if spec.protocol == "rank":
        params = _rank_spec(spec)
        ctx = RankContext(params)
        runner = run_rank_protocol
        table = _rank_adversaries(params)
        spec.adversary = _resolve_name(spec.adversary, list(table) + ["random"],
                                       "adversary")
        factory = (random_generalized_adversary if spec.adversary == "random"
                   else lambda n, t, f, rng: table[spec.adversary])
    else:
        params = _classical_spec(spec)
        ctx = ProtocolContext(params)
        runner = {"basic": run_basic, "improved": run_improved}[spec.protocol]
        factory = _classical_factory(spec)
    f = params.field

    successes = 0
    totals = []
    bits_max = 0
    phase_rows = []
    for k in range(spec.trials):
        secrets, res = _trial(params, ctx, runner, factory, spec, k)
        ok = np.array_equal(res.secrets, secrets)
        successes += int(ok)
        if not ok:
            log.warning("trial %d failed to deliver", k)
        totals.append(res.ledger.symbols())
        bits_max = max(bits_max, res.ledger.bits())
        for ph, d, c, b in _ledger_rows(res.ledger):
            phase_rows.append((k, ph, d, c, b))
        if spec.transcript and res.transcript is not None:
            with _open_out(spec, "transcript_%04d.jsonl" % k) as fh:
                res.transcript.write_log(fh, field=f)
        log.info("trial %d: delivered=%s total_symbols=%d", k, ok, totals[-1])

    mean = Fraction(sum(totals), spec.trials)
    tmax = max(totals)
    rate_mean = Fraction(sum(totals), spec.trials * spec.l)
    rate_max = Fraction(tmax, spec.l)
    srate = Fraction(successes, spec.trials)

    with _open_out(spec, "phases.csv") as fh:
        fh.write(SCHEMA_PHASES + "\n")
        fh.write("trial,phase,direction,symbols,bits\n")
        for row in phase_rows:
            fh.write("%d,%s,%s,%d,%d\n" % row)
    with _open_out(spec, "summary.csv") as fh:
        fh.write(SCHEMA_SUMMARY + "\n")
        fh.write("protocol,n,t,l,q,m,adversary,trials,seed,successes,"
                 "success_rate,success_rate_dec,total_symbols_mean,"
                 "total_symbols_mean_dec,total_symbols_max,rate_mean,"
                 "rate_mean_dec,rate_max,rate_max_dec,bits_per_symbol,"
                 "total_bits_max\n")
        fh.write("%s,%d,%d,%d,%d,%d,%s,%d,%d,%d,%s,%s,%s,%s,%d,%s,%s,%s,%s,%d,%d\n"
                 % (spec.protocol, params.n, params.t, spec.l, f.q,
                    getattr(f, "deg", 1), spec.adversary, spec.trials,
                    spec.seed, successes, _frac_str(srate), _dec_str(srate),
                    _frac_str(mean), _dec_str(mean), tmax, _frac_str(rate_mean),
                    _dec_str(rate_mean), _frac_str(rate_max), _dec_str(rate_max),
                    res.ledger.bits_per_symbol, bits_max))

    print("protocol=%s n=%d t=%d l=%d q=%d adversary=%s trials=%d seed=%d"
          % (spec.protocol, params.n, params.t, spec.l, f.q, spec.adversary,
             spec.trials, spec.seed))
    print("successes=%d/%d success_rate=%s" % (successes, spec.trials,
                                               _frac_str(srate)))
    print("total_symbols mean=%s max=%d  rate mean=%s (%s) max=%s (%s)"
          % (_frac_str(mean), tmax, _frac_str(rate_mean), _dec_str(rate_mean),
             _frac_str(rate_max), _dec_str(rate_max)))
    print("wrote %s and %s" % (os.path.join(spec.out, "phases.csv"),
                               os.path.join(spec.out, "summary.csv")))
    return 0 if successes == spec.trials else 1


def cmd_audit(spec):
    """Exhaustive view-distribution comparison; refuses oversized requests."""
    if spec.protocol == "rank":
        params = _rank_spec(spec)
        table = _rank_adversaries(params)
        run_one = lambda adv: rank_privacy_audit(params, adv, budget=spec.budget)
    else:
        params = _classical_spec(spec)
        runner = {"basic": run_basic, "improved": run_improved}[spec.protocol]
        table = {a.name: a for a in audit_adversaries(params, seed=spec.seed)}
        run_one = lambda adv: privacy_audit(params, runner, adv,
                                            budget=spec.budget)
    if spec.adversary != "all":
        name = _resolve_name(spec.adversary, table, "adversary")
        table = {name: table[name]}

    rows = []
    all_passed = True
    for name in sorted(table):
        try:
            rep = run_one(table[name])
        except AuditBudgetExceeded as e:
            print("adversary=%s REFUSED %s" % (name, e))
            return 2
        verdict = "PASS" if rep.passed else "FAIL"
        all_passed = all_passed and rep.passed
        print("adversary=%s %s runs=%d views=%d %s"
              % (name, verdict, rep.runs, rep.num_views, rep.detail))
        rows.append((name, rep))
    print("audit %s" % ("PASS" if all_passed else "FAIL"))

    if spec.out != ".":
        with _open_out(spec, "audit.csv") as fh:
            fh.write(SCHEMA_AUDIT + "\n")
            fh.write("protocol,n,t,l,q,m,adversary,passed,runs,views,detail\n")
            for name, rep in rows:
                fh.write('%s,%d,%d,%d,%d,%d,%s,%d,%d,%d,"%s"\n'
                         % (spec.protocol, params.n, params.t, spec.l,
                            params.field.q, getattr(params.field, "deg", 1),
                            name, int(rep.passed), rep.runs, rep.num_views,
                            rep.detail))
    return 0 if all_passed else 1


def _resolve_l(token, n):
    if token == "n":
        return n
    if token == "n2":
        return n * n
    if token == "nlog2n":
        return n * max(1, (n - 1).bit_length())
    try:
        return int(token)
    except ValueError:
        raise SpecError("bad l token %r (use an integer, n, n2 or nlog2n)"
                        % token)


def cmd_bench(spec):
    """Sweeps (n, l); reports measured totals against 5nl + 4n^2 + 4nt + 2n.

    The predicted column is the closed-form ceiling with the worst-case
    pseudo-basis size w = t; any in-model run stays at or under it."""
    runner = {"basic": run_basic, "improved": run_improved}[spec.protocol]
    factory = _classical_factory(spec)
    failures = 0
    lines = []
    for n in spec.ns:
        t = (n - 1) // 2
        if n != 2 * t + 1 or t < 1:
            raise SpecError("n must equal 2t+1 with t >= 1 (got n=%d)" % n)
        f = gf.field_of_order(gf.next_prime_above(n))
        for token in spec.ls:
            l = _resolve_l(token, n)
            params = SessionParams(n, t, l, f)
            ctx = ProtocolContext(params)
            tmax = 0
            for k in range(spec.trials):
                secrets, res = _trial(params, ctx, runner, factory, spec, k)
                if not np.array_equal(res.secrets, secrets):
                    failures += 1
                    log.warning("bench n=%d l=%d trial %d failed", n, l, k)
                tmax = max(tmax, res.ledger.symbols())
            predicted = 5 * n * l + 4 * n * n + 4 * n * t + 2 * n
            rate = Fraction(tmax, l)
            prate = Fraction(predicted, l)
            lines.append("%s,%d,%d,%d,%d,%s,%d,%d,%d,%s,%s,%d,%s,%s,%d"
                         % (spec.protocol, n, t, l, f.q, spec.adversary,
                            spec.trials, spec.seed, tmax, _frac_str(rate),
                            _dec_str(rate), predicted, _frac_str(prate),
                            _dec_str(prate), int(tmax <= predicted)))
            log.info("bench n=%d l=%d total=%d predicted=%d", n, l, tmax,
                     predicted)

    header = ("protocol,n,t,l,q,adversary,trials,seed,total_symbols_max,"
              "rate_max,rate_max_dec,predicted_symbols,predicted_rate,"
              "predicted_rate_dec,within_bound")
    with _open_out(spec, "bench.csv") as fh:
        fh.write(SCHEMA_BENCH + "\n")
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")
    print(header)
    for line in lines:
        print(line)
    print("wrote %s" % os.path.join(spec.out, "bench.csv"))
    return 1 if failures else 0


def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


def _str_list(text):
    return [x.strip() for x in text.split(",") if x.strip()]


def build_parser():
    ap = argparse.ArgumentParser(
        prog="psmt",
        description="Two-round perfectly secure message transmission over "
                    "n = 2t+1 channels: experiments, privacy audits, benches.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, protocols):
        p.add_argument("--protocol", choices=protocols, default=protocols[0])
        p.add_argument("--seed", type=int, default=0,
                       help="trial k uses default_rng([seed, k])")
        p.add_argument("--out", default=".", help="directory for CSV reports")

    p = sub.add_parser("run", help="run one configuration for many trials")
    common(p, ["improved", "basic", "rank"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, default=0, help="default (n-1)/2")
    p.add_argument("--l", type=int, default=1, help="secrets per session")
    p.add_argument("--q", type=int, default=0,
                   help="field order, default smallest prime above n; any "
                        "prime power above n+1 works, primes below 2^31 "
                        "(rank: base prime, default 2)")
    p.add_argument("--m", type=int, default=0,
                   help="rank only: extension degree, default n+1")
    p.add_argument("--adversary", default="passive",
                   help="passive, random-noise, targeted-syndrome, replay or "
                        "none (rank: passive, fixed-tamper, tap-replay, "
                        "random); unique prefixes allowed")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--transcript", action="store_true",
                   help="write transcript_<k>.jsonl per trial")

    p = sub.add_parser("audit", help="exhaustive privacy audit")
    common(p, ["basic", "improved", "rank"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--adversary", default="all")
    p.add_argument("--budget", type=int, default=DEFAULT_AUDIT_BUDGET,
                   help="refuse audits needing more protocol runs than this")

    p = sub.add_parser("bench", help="sweep (n, l), compare to the closed form")
    common(p, ["improved", "basic"])
    p.add_argument("--n", type=_int_list, default=[5, 7, 11, 23],
                   dest="ns", metavar="N1,N2,...")
    p.add_argument("--l", type=_str_list, default=["n2"], dest="ls",
                   metavar="L1,L2,...", help="integers or n, n2, nlog2n")
    p.add_argument("--adversary", default="targeted-syndrome")
    p.add_argument("--trials", type=int, default=1)
    return ap


def _spec_from_args(args):
    spec = ExperimentSpec()
    for name in ("protocol", "n", "t", "l", "q", "m", "adversary", "seed",
                 "trials", "out", "transcript", "budget", "ns", "ls"):
        if hasattr(args, name):
            setattr(spec, name, getattr(args, name))
    return spec


def main(argv=None):
    level = os.environ.get("PSMT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    spec = _spec_from_args(args)
    handler = {"run": cmd_run, "audit": cmd_audit, "bench": cmd_bench}
    try:
        if spec.trials < 1:  # run and bench; audit keeps the default
            raise SpecError("trials must be at least 1, got %d" % spec.trials)
        return handler[args.command](spec)
    except ValueError as e:  # SpecError included
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

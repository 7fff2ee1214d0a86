"""Command line front end: run experiments, privacy audits, cost benches.

Three subcommands:

    psmt run    one configuration, many trials; per-phase and summary CSVs
    psmt audit  exhaustive privacy audit at enumerable sizes
    psmt bench  sweep (n, l) and compare measured totals to the closed form

Exit status: 0 on success / audit PASS, 1 on a reliability failure or audit
FAIL, 2 on a validation error, an audit budget refusal or an unwritable
output.

Every CSV starts with a schema-version line.  Symbol counts are integers;
ratios appear as exact fractions "p/q" next to a fixed-format decimal column,
so identical options + seed reproduce files byte for byte.  Trial k draws from
numpy's default_rng seeded with [seed, k], so any single trial can be rerun
in isolation.  PSMT_LOG=debug|info|warning controls verbosity.
"""

import argparse
import logging
import os
import sys
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
    audit_adversaries,
    privacy_audit,
    run_basic,
    run_improved,
)
from .rankmetric import (
    RankParams,
    random_generalized_adversary,
    rank_audit_adversaries,
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


RUNNERS = {"basic": run_basic, "improved": run_improved, "rank": run_rank_protocol}


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
    raise ValueError("unknown %s %r (choices: %s)"
                     % (what, name, ", ".join(sorted(choices))))


def _params(args):
    """SessionParams, or RankParams for --protocol rank, with t = (n-1)/2, q
    defaulting to the smallest prime above n (rank: 2) and m to n+1; --m is
    refused outside rank."""
    n = args.n
    t = (n - 1) // 2
    if n != 2 * t + 1:
        raise ValueError("n must equal 2t+1 (got n=%d, t=%d)" % (n, t))
    if args.protocol == "rank":
        return RankParams(n, t, args.l, gf.field(args.q or 2, args.m or n + 1))
    if args.m:
        raise ValueError("--m is the rank protocol's extension degree; the %s protocol "
                         "takes its field from --q alone" % args.protocol)
    return SessionParams(n, t, args.l, gf.field_of_order(args.q or gf.next_prime_above(n)))


def _ledger_rows(ledger):
    rows = ledger.rows()
    rows.sort(key=lambda r: (_PHASE_ORDER.get(r[0], 9), r[0],
                             _DIR_ORDER.get(r[1], 9), r[1]))
    return rows


def _open_out(args, name):
    os.makedirs(args.out, exist_ok=True)
    return open(os.path.join(args.out, name), "w")


def _classical_factory(args):
    """Resolve the adversary name; its factory, or None for "none"."""
    args.adversary = _resolve_name(
        args.adversary, list(builtin_adversaries()) + ["none"], "adversary")
    return None if args.adversary == "none" else builtin_adversaries()[args.adversary]


def _rank_adversaries(params):
    """The rank audit strategies by CLI name: passive, fixed-tamper, tap-replay."""
    return {a.name.replace("rank-", ""): a for a in rank_audit_adversaries(params)}


def _trial(params, ctx, runner, adv_factory, args, k):
    """Trial k: its adversary (from adv_factory(n, t, field, rng), or none)
    and secrets drawn from default_rng([seed, k]), then one run."""
    rng = np.random.default_rng([args.seed, k])
    f = params.field
    adv = adv_factory(params.n, params.t, f, rng) if adv_factory else None
    secrets = f.random(rng, params.l)
    res = runner(params, secrets, adversary=adv, rng=rng, context=ctx,
                 record_transcript=args.transcript)
    return secrets, res


def cmd_run(args):
    params = _params(args)
    if args.protocol == "rank":
        table = _rank_adversaries(params)
        args.adversary = _resolve_name(args.adversary, list(table) + ["random"],
                                       "adversary")
        factory = (random_generalized_adversary if args.adversary == "random"
                   else lambda n, t, f, rng: table[args.adversary])
    else:
        factory = _classical_factory(args)
    ctx = params.context()
    runner = RUNNERS[args.protocol]
    f = params.field

    successes = 0
    totals = []
    bits_max = 0
    phase_rows = []
    for k in range(args.trials):
        secrets, res = _trial(params, ctx, runner, factory, args, k)
        ok = np.array_equal(res.secrets, secrets)
        successes += int(ok)
        if not ok:
            log.warning("trial %d failed to deliver", k)
        totals.append(res.ledger.symbols())
        bits_max = max(bits_max, res.ledger.bits())
        for ph, d, c, b in _ledger_rows(res.ledger):
            phase_rows.append((k, ph, d, c, b))
        if args.transcript and res.transcript is not None:
            with _open_out(args, "transcript_%04d.jsonl" % k) as fh:
                res.transcript.write_log(fh, field=f)
        log.info("trial %d: delivered=%s total_symbols=%d", k, ok, totals[-1])

    mean = Fraction(sum(totals), args.trials)
    tmax = max(totals)
    rate_mean = Fraction(sum(totals), args.trials * args.l)
    rate_max = Fraction(tmax, args.l)
    srate = Fraction(successes, args.trials)

    with _open_out(args, "phases.csv") as fh:
        fh.write(SCHEMA_PHASES + "\n")
        fh.write("trial,phase,direction,symbols,bits\n")
        for row in phase_rows:
            fh.write("%d,%s,%s,%d,%d\n" % row)
    with _open_out(args, "summary.csv") as fh:
        fh.write(SCHEMA_SUMMARY + "\n")
        fh.write("protocol,n,t,l,q,m,adversary,trials,seed,successes,"
                 "success_rate,success_rate_dec,total_symbols_mean,"
                 "total_symbols_mean_dec,total_symbols_max,rate_mean,"
                 "rate_mean_dec,rate_max,rate_max_dec,bits_per_symbol,"
                 "total_bits_max\n")
        fh.write("%s,%d,%d,%d,%d,%d,%s,%d,%d,%d,%s,%s,%s,%s,%d,%s,%s,%s,%s,%d,%d\n"
                 % (args.protocol, params.n, params.t, args.l, f.q,
                    f.deg, args.adversary, args.trials,
                    args.seed, successes, _frac_str(srate), _dec_str(srate),
                    _frac_str(mean), _dec_str(mean), tmax, _frac_str(rate_mean),
                    _dec_str(rate_mean), _frac_str(rate_max), _dec_str(rate_max),
                    res.ledger.bits_per_symbol, bits_max))

    print("protocol=%s n=%d t=%d l=%d q=%d adversary=%s trials=%d seed=%d"
          % (args.protocol, params.n, params.t, args.l, f.q, args.adversary,
             args.trials, args.seed))
    print("successes=%d/%d success_rate=%s" % (successes, args.trials,
                                               _frac_str(srate)))
    print("total_symbols mean=%s max=%d  rate mean=%s (%s) max=%s (%s)"
          % (_frac_str(mean), tmax, _frac_str(rate_mean), _dec_str(rate_mean),
             _frac_str(rate_max), _dec_str(rate_max)))
    print("wrote %s and %s" % (os.path.join(args.out, "phases.csv"),
                               os.path.join(args.out, "summary.csv")))
    return 0 if successes == args.trials else 1


def cmd_audit(args):
    """Exhaustive view-distribution comparison; refuses oversized requests."""
    params = _params(args)
    if args.protocol == "rank":
        table = _rank_adversaries(params)
    else:
        table = {a.name: a for a in audit_adversaries(params, seed=args.seed)}
    if args.adversary != "all":
        name = _resolve_name(args.adversary, table, "adversary")
        table = {name: table[name]}

    rows = []
    all_passed = True
    for name in sorted(table):
        try:
            rep = privacy_audit(params, RUNNERS[args.protocol], table[name],
                                budget=args.budget)
        except AuditBudgetExceeded as e:
            print("adversary=%s REFUSED %s" % (name, e))
            return 2
        verdict = "PASS" if rep.passed else "FAIL"
        all_passed = all_passed and rep.passed
        print("adversary=%s %s runs=%d views=%d %s"
              % (name, verdict, rep.runs, rep.num_views, rep.detail))
        rows.append((name, rep))
    print("audit %s" % ("PASS" if all_passed else "FAIL"))

    if args.out != ".":
        with _open_out(args, "audit.csv") as fh:
            fh.write(SCHEMA_AUDIT + "\n")
            fh.write("protocol,n,t,l,q,m,adversary,passed,runs,views,detail\n")
            for name, rep in rows:
                fh.write('%s,%d,%d,%d,%d,%d,%s,%d,%d,%d,"%s"\n'
                         % (args.protocol, params.n, params.t, args.l,
                            params.field.q, params.field.deg,
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
        raise ValueError("bad l token %r (use an integer, n, n2 or nlog2n)"
                         % token)


def cmd_bench(args):
    """Sweeps (n, l); reports measured totals against 5nl + 4n^2 + 4nt + 2n.

    The predicted column is the closed-form ceiling with the worst-case
    pseudo-basis size w = t; any in-model run stays at or under it."""
    runner = RUNNERS[args.protocol]
    factory = _classical_factory(args)
    failures = 0
    lines = []
    for n in args.ns:
        for token in args.ls:
            args.n, args.l = n, _resolve_l(token, n)
            params = _params(args)
            t, l, f = params.t, params.l, params.field
            ctx = params.context()
            tmax = 0
            for k in range(args.trials):
                secrets, res = _trial(params, ctx, runner, factory, args, k)
                if not np.array_equal(res.secrets, secrets):
                    failures += 1
                    log.warning("bench n=%d l=%d trial %d failed", n, l, k)
                tmax = max(tmax, res.ledger.symbols())
            predicted = 5 * n * l + 4 * n * n + 4 * n * t + 2 * n
            rate = Fraction(tmax, l)
            prate = Fraction(predicted, l)
            lines.append("%s,%d,%d,%d,%d,%s,%d,%d,%d,%s,%s,%d,%s,%s,%d"
                         % (args.protocol, n, t, l, f.q, args.adversary,
                            args.trials, args.seed, tmax, _frac_str(rate),
                            _dec_str(rate), predicted, _frac_str(prate),
                            _dec_str(prate), int(tmax <= predicted)))
            log.info("bench n=%d l=%d total=%d predicted=%d", n, l, tmax,
                     predicted)

    header = ("protocol,n,t,l,q,adversary,trials,seed,total_symbols_max,"
              "rate_max,rate_max_dec,predicted_symbols,predicted_rate,"
              "predicted_rate_dec,within_bound")
    with _open_out(args, "bench.csv") as fh:
        fh.write(SCHEMA_BENCH + "\n")
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")
    print(header)
    for line in lines:
        print(line)
    print("wrote %s" % os.path.join(args.out, "bench.csv"))
    return 1 if failures else 0


def _int_list(text):
    try:
        return [int(x) for x in _str_list(text)]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers, got %r" % text)


def _str_list(text):
    items = [x.strip() for x in text.split(",") if x.strip()]
    if not items:
        raise argparse.ArgumentTypeError("needs at least one value")
    return items


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

    def setting(p, adversary, **n):
        """--n (with argparse keywords n), --l, --q, --m and --adversary."""
        p.add_argument("--n", type=int, **n)
        p.add_argument("--l", type=int, default=1, help="secrets per session")
        p.add_argument("--q", type=int, default=0,
                       help="field order, default smallest prime above n; any "
                            "prime power above n+1 works, primes below 2^31 "
                            "(rank: base prime, default 2)")
        p.add_argument("--m", type=int, default=0,
                       help="rank only: extension degree, default n+1")
        p.add_argument("--adversary", default=adversary,
                       help="passive, random-noise, targeted-syndrome or replay, "
                            "plus none (run) or all (audit); rank: passive, "
                            "fixed-tamper or tap-replay, plus random (run) or "
                            "all (audit); unique prefixes allowed")

    p = sub.add_parser("run", help="run one configuration for many trials")
    common(p, ["improved", "basic", "rank"])
    setting(p, "passive", required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--transcript", action="store_true",
                   help="write transcript_<k>.jsonl per trial")

    p = sub.add_parser("audit", help="exhaustive privacy audit")
    common(p, ["basic", "improved", "rank"])
    setting(p, "all", default=3)
    p.add_argument("--budget", type=int, default=DEFAULT_AUDIT_BUDGET,
                   help="refuse audits needing more protocol runs than this")
    p.set_defaults(trials=1)

    p = sub.add_parser("bench", help="sweep (n, l), compare to the closed form")
    common(p, ["improved", "basic"])
    p.add_argument("--n", type=_int_list, default=[5, 7, 11, 23],
                   dest="ns", metavar="N1,N2,...")
    p.add_argument("--l", type=_str_list, default=["n2"], dest="ls",
                   metavar="L1,L2,...", help="integers or n, n2, nlog2n")
    p.add_argument("--adversary", default="targeted-syndrome")
    p.add_argument("--trials", type=int, default=1)
    p.set_defaults(transcript=False, q=0, m=0)
    return ap


def main(argv=None):
    level = os.environ.get("PSMT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    handler = {"run": cmd_run, "audit": cmd_audit, "bench": cmd_bench}
    try:
        if args.trials < 1:  # run and bench; audit keeps the default
            raise ValueError("trials must be at least 1, got %d" % args.trials)
        if args.seed < 0:
            raise ValueError("seed must be non-negative, got %d" % args.seed)
        if getattr(args, "budget", 0) < 0:  # audit only
            raise ValueError("budget must be non-negative, got %d" % args.budget)
        return handler[args.command](args)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""psmt benchmark: one workload, one run.

    python3 benchmarks/run.py --workload improved-n23 --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; psmt is imported from its src/ and from
nowhere else.  The run sets up the workload SETUPS times, then repeats whole
rounds of its operations until --seconds have passed, checking every output.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  A copy with more
detail goes to benchmarks/results/, and a traced run also writes its spans
there.  See benchmarks/README.md.
"""

import os

# One process, one thread: numpy's BLAS pools would otherwise compete with
# the measured code for the machine's cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUPS = 3


def import_psmt():
    """Import psmt from this tree's src/, or stop with a nonzero status."""
    if not (SRC / "psmt" / "__init__.py").is_file():
        sys.exit("benchmark: no psmt sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import psmt
    if pathlib.Path(psmt.__file__).resolve().parent != SRC / "psmt":
        sys.exit("benchmark: imported psmt from %s, not from %s" % (psmt.__file__, SRC))


def measure(workload, state, seconds, tally):
    """Whole rounds, at least one, for as long as the next round, taking
    as long as the slowest so far, still ends within the given seconds.
    Returns the busy ns of each round."""
    per_round = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        before = tally.busy_ns
        workload.run_round(state, tally)
        per_round.append(tally.busy_ns - before)
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now + longest > start + seconds:
            return per_round


def metric(value, unit):
    return {"value": value, "unit": unit}


def session_p50_ns(tally):
    """Median call time; with several adversaries, whose run times differ
    by up to 3x in audit-n3, the mean of their medians, so that noise cannot
    move the median from one adversary's runs to another's."""
    return statistics.fmean(statistics.median(d) for d in tally.durations_ns.values())


def end_to_end(tally, setup_s):
    return {
        "secrets_per_s": metric(tally.secrets / (tally.busy_ns / 1e9), "secrets/s"),
        "session_p50_ms": metric(session_p50_ns(tally) / 1e6, "ms"),
        "symbols_per_secret": metric(tally.symbols / tally.secrets, "symbols"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced(workload, state, seconds, tally, spans_path):
    """Half the time untraced, half traced; per-layer figures per traced
    round, and the overhead as traced minus untraced median round time."""
    import tracer

    plain = measure(workload, state, seconds / 2, tally)
    tr = tracer.Tracer()
    tr.install()
    try:
        with_spans = measure(workload, state, seconds / 2, tally)
    finally:
        tr.uninstall()
    tr.write(spans_path)
    metrics = tracer.layer_metrics(tr, len(with_spans))
    base = statistics.median(plain) / 1e6
    slow = statistics.median(with_spans) / 1e6
    metrics["trace.overhead_ms"] = metric(slow - base, "ms")
    metrics["trace.overhead_pct"] = metric(100 * (slow / base - 1), "%")
    return metrics, {"untraced_rounds": len(plain), "traced_rounds": len(with_spans)}


def main(argv=None):
    import_psmt()
    import numpy
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    tally = workloads.Tally()
    setup_s = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        state = workload.setup(args.seed, tally)
        setup_s.append(time.perf_counter() - start)

    RESULTS.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    detail = {"setup_s": setup_s}
    if args.trace:
        metrics, more = traced(workload, state, args.seconds, tally,
                               RESULTS / (stem + ".spans.npz"))
        detail.update(more)
    else:
        detail["rounds"] = len(measure(workload, state, args.seconds, tally))
        metrics = end_to_end(tally, setup_s) if tally.secrets else {}
        detail["runs_timed"] = sum(map(len, tally.durations_ns.values()))
    for err in tally.errors[:20]:
        print("check failed: " + err, file=sys.stderr)
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "detail": detail, "result": result,
    }
    with open(RESULTS / (stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

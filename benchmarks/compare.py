"""Compare two sets of benchmark results.

    python3 benchmarks/compare.py OLD NEW

OLD and NEW are result files written by run.py, or directories of them
(one directory per commit, say).  Runs are grouped by workload and trace
mode; for every metric the script prints both medians over the runs, the
change as a share of the old median, and for end-to-end metrics whether
the change is worse than the bound BENCHMARK.json allows.  Exits 1 when
some metric is, or when the share of failed operations differs.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    path = pathlib.Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    groups = {}
    for f in files:
        rec = json.loads(f.read_text())
        groups.setdefault((rec["workload"], rec["trace"]), []).append(rec["result"])
    return groups


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old, new = load(argv[0]), load(argv[1])
    regressed = False
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        a, b = old[key], new[key]
        fail_a = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fail_b = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        print("%s (trace %d): %d vs %d runs, failed share %.6g vs %.6g"
              % (workload, trace, len(a), len(b), fail_a, fail_b))
        regressed |= fail_a != fail_b or not all(r["correct"] for r in b)
        for name in a[0]["metrics"]:
            va = statistics.median(r["metrics"][name]["value"] for r in a)
            vb = statistics.median(r["metrics"][name]["value"] for r in b if name in r["metrics"])
            change = (vb - va) / va if va else 0.0
            verdict = ""
            if name in bounds:
                worse = change if bounds[name]["better"] == "lower" else -change
                verdict = "WORSE than bound %.2f" % bounds[name]["bound"] \
                    if worse > bounds[name]["bound"] else "ok"
                regressed |= verdict != "ok"
            print("  %-42s %14.6g %14.6g %+8.2f%%  %s"
                  % (name, va, vb, 100 * change, verdict))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main(sys.argv[1:])

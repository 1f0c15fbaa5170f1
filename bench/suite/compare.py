#!/usr/bin/env python3
"""Compare two sets of suite results, metric by metric.

    python3 bench/suite/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file is a result written by run.py ({"runs": [...]}); a side is
every run in its files, in order. For each workload and end-to-end
metric the table gives each side's median and quartiles, the share of
the pairs (A1, B1), (A2, B2), ... that B wins (ties count for neither),
and a verdict:

  better      B wins at least 9/10 of the pairs and the medians differ
              by more than A's quartile spread;
  worse       B's median is worse than A's by more than the bound;
  unresolved  a side's quartile spread (as a share of its median)
              exceeds the bound, and B's runs neither all beat nor all
              lose to A's;
  flat        otherwise.

Bounds and directions come from BENCHMARK.json. The script warns when
the runs' machine fingerprints differ, and exits 1 when any row is
worse or unresolved or any run reports a failed operation.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
# Fingerprint fields that must match for two runs to be comparable.
MACHINE = ("cpu_model", "nproc", "compiler", "flags")


def load(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs += json.load(f)["runs"]
    if not runs:
        sys.exit(f"compare.py: no runs in {' '.join(paths)}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, lower_is_better):
    def better(x, y):  # x better than y
        return x < y if lower_is_better else x > y

    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs) / len(pairs)
    change = (bm - am) / am if am else 0.0
    worse_by = change if lower_is_better else -change
    spread = max((a3 - a1) / am if am else 0.0, (b3 - b1) / bm if bm else 0.0)
    if spread > bound:
        if all(better(y, x) for x in a for y in b):
            v = "better"
        elif all(better(x, y) for x in a for y in b):
            v = "worse"
        else:
            v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    elif wins >= 0.9 and abs(bm - am) > a3 - a1 and worse_by < 0:
        v = "better"
    else:
        v = "flat"
    return (a1, am, a3), (b1, bm, b3), change, wins, v


def check_fingerprints(runs):
    for key in MACHINE:
        seen = {str(r.get("fingerprint", {}).get(key)) for r in runs}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {sorted(seen)}",
                  file=sys.stderr)


def main(argv):
    if "--" not in argv or argv.index("--") == 0 or argv[-1] == "--":
        sys.exit(__doc__)
    cut = argv.index("--")
    side_a, side_b = load(argv[:cut]), load(argv[cut + 1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    check_fingerprints(side_a + side_b)

    bad = False
    for side, runs in (("A", side_a), ("B", side_b)):
        for i, run in enumerate(runs):
            for w, res in run["workloads"].items():
                if res["failed"]:
                    print(f"{side} run {i + 1}: {w} failed {res['failed']} of "
                          f"{res['attempted']} operations")
                    bad = True

    print(f"A: {len(side_a)} runs, B: {len(side_b)} runs")
    print(f"{'workload':<15} {'metric':<16} {'A median [q1, q3]':>28} "
          f"{'B median [q1, q3]':>28} {'change':>8} {'B wins':>6} "
          f"{'bound':>6}  verdict")
    workloads = list(side_a[0]["workloads"])
    for w in workloads:
        for m in metrics:
            name = m["name"]
            a = [r["workloads"][w]["metrics"][name]["value"] for r in side_a
                 if w in r["workloads"]]
            b = [r["workloads"][w]["metrics"][name]["value"] for r in side_b
                 if w in r["workloads"]]
            if not a or not b:
                continue
            qa, qb, change, wins, v = verdict(a, b, m["bound"],
                                              m["better"] == "lower")
            bad = bad or v in ("worse", "unresolved")
            fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
            print(f"{w:<15} {name:<16} {fmt.format(*qa):>28} "
                  f"{fmt.format(*qb):>28} {change * 100:>+7.2f}% "
                  f"{wins:>6.2f} {m['bound'] * 100:>5.0f}%  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

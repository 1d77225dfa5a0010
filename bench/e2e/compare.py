#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py A1.json A2.json ... -- B1.json B2.json ...

Each file is one `run.py --out` result.  Side A is the parent, side B the
change; files pair up in the order given (A1 with B1, ...), so alternate
which side runs first when making them.  For every workload and every
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the fraction of pairs B won (ties count for neither side) and a
verdict:

  improved    at least ten pairs, B wins >= 9/10 of them, and the medians
              differ by more than A's interquartile spread, in B's favour
  regressed   B's median is worse than A's by more than the metric's bound
  unresolved  A's own spread is wider than the bound and not every B run
              beats every A run, so "no change" cannot be told apart
  ok          none of the above

Absolute numbers from different hosts are not comparable: the tool
refuses to compare runs whose host stamps differ (the commit and the seed
may differ).  Exit status: 0, 1 when any row regressed, 2 on bad input.
"""
import json
import statistics
import sys
from pathlib import Path

STAMP_KEYS = ("nproc", "cpu_model", "simd_tier", "compiler", "build_type", "threads",
              "connections")
MIN_PAIRS = 10  # a gain needs at least this many parent/change pairs


def load(paths):
    runs = []
    for p in paths:
        with open(p) as f:
            runs.append(json.load(f))
    return runs


def stamps(runs, paths):
    seen = {}
    for run, path in zip(runs, paths):
        for w, report in run["workloads"].items():
            stamp = tuple(report["host"][k] for k in STAMP_KEYS)
            seen.setdefault((w, stamp), path)
    return seen


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, bound, lower_is_better):
    better = (lambda x, y: x < y) if lower_is_better else (lambda x, y: x > y)
    a1, am, a3 = quartiles(a)
    _, bm, _ = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(y, x))
    won = wins / len(pairs)
    worse_by = (bm - am) / am if lower_is_better else (am - bm) / am
    all_better = all(better(y, x) for x in a for y in b)
    if (a3 - a1) / am > bound and not all_better:
        return won, "unresolved"
    if len(pairs) >= MIN_PAIRS and won >= 0.9 and abs(bm - am) > (a3 - a1) and better(bm, am):
        return won, "improved"
    if worse_by > bound:
        return won, "regressed"
    return won, "ok"


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    a_paths, b_paths = argv[:cut], argv[cut + 1:]
    if not a_paths or not b_paths:
        print("compare.py: each side needs at least one result file", file=sys.stderr)
        return 2
    spec_path = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
    with open(spec_path) as f:
        spec = json.load(f)
    a_runs, b_runs = load(a_paths), load(b_paths)

    hosts = stamps(a_runs + b_runs, a_paths + b_paths)
    per_workload = {}
    for (w, stamp), path in hosts.items():
        per_workload.setdefault(w, []).append((stamp, path))
    for w, found in per_workload.items():
        if len(found) > 1:
            print(f"compare.py: refusing to compare {w} across host stamps:", file=sys.stderr)
            for stamp, path in found:
                print(f"  {path}: {dict(zip(STAMP_KEYS, stamp))}", file=sys.stderr)
            return 2

    workloads = [w for w in a_runs[0]["workloads"]
                 if all(w in r["workloads"] for r in a_runs + b_runs)]
    print(f"A: {len(a_runs)} runs, B: {len(b_runs)} runs, {min(len(a_runs), len(b_runs))} pairs")
    print(f"{'workload':18} {'metric':15} {'A q1':>10} {'A median':>10} {'A q3':>10} "
          f"{'B q1':>10} {'B median':>10} {'B q3':>10} {'B won':>6}  verdict")
    regressed = False
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [r["workloads"][w]["end_to_end"][name]["value"] for r in a_runs]
            b = [r["workloads"][w]["end_to_end"][name]["value"] for r in b_runs]
            won, v = verdict(a, b, m["bound"], m["better"] == "lower")
            regressed |= v == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{w:18} {name:15} {qa[0]:10.4g} {qa[1]:10.4g} {qa[2]:10.4g} "
                  f"{qb[0]:10.4g} {qb[1]:10.4g} {qb[2]:10.4g} {won:6.2f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

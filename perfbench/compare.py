#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records (<workload>.seed<n>.trace0.json) as
perfbench/run.py writes them to .bench_build/perfbench/runs; copy them
aside between the two sets. For every workload and end-to-end metric
(BENCHMARK.json plus the per-operation-type metrics of metrics.json) it
prints both sides' median and quartiles, the share of pairs the new side
won, and a verdict:

  improved    the new side wins at least 9/10 of the pairs (ties count
              for neither) and the medians differ, in its favour, by more
              than the base side's interquartile range;
  worse       the new median is worse than the base median by more than
              the metric's bound;
  unchanged   neither, and the base side's spread is within the bound;
  unresolved  neither, but the base side's spread is wider than the
              bound, unless every new run beats every base run.

Runs are paired by seed (seeds present on both sides), else by order.
Runs whose config fingerprints differ are refused: both sets must have
measured the same pinned configuration.
"""

import argparse
import json
import pathlib
import statistics
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent


def load(directory):
    """{workload: {seed: record}} of the untraced records in `directory`."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.trace0.json")):
        with open(path) as f:
            record = json.load(f)
        runs.setdefault(record["workload"], {})[int(record["seed"])] = record
    return runs


def metric_specs():
    with open(BENCH_DIR.parent / "BENCHMARK.json") as f:
        specs = json.load(f)["end_to_end"]
    with open(BENCH_DIR / "metrics.json") as f:
        specs += json.load(f)["by_kind"]
    return specs


def value(record, name):
    for group in ("end_to_end", "by_kind"):
        if name in record.get(group, {}):
            return record[group][name]["value"]
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    """Returns (verdict, share of pairs the new side won)."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    share = wins / len(pairs)
    q1, base_median, q3 = quartiles(base)
    new_median = statistics.median(new)
    gap = sign * (new_median - base_median)
    if wins >= 0.9 * len(pairs) and gap > q3 - q1 and gap > 0:
        return "improved", share
    if base_median == 0:
        return ("unchanged" if new_median == 0 else "worse"), share
    if -gap > bound * abs(base_median):
        return "worse", share
    if (q3 - q1) > bound * abs(base_median):
        best_base = max(base) if sign > 0 else min(base)
        worst_new = min(new) if sign > 0 else max(new)
        if sign * (worst_new - best_base) > 0:
            return "unchanged", share
        return "unresolved", share
    return "unchanged", share


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args()

    base_runs, new_runs = load(args.base), load(args.new)
    specs = metric_specs()
    worse = 0
    for workload in sorted(set(base_runs) | set(new_runs)):
        base = base_runs.get(workload, {})
        new = new_runs.get(workload, {})
        if not base or not new:
            print("%s: runs on one side only, skipped" % workload)
            continue
        fingerprints = {r["fingerprint"] for r in list(base.values()) +
                        list(new.values())}
        if len(fingerprints) != 1:
            sys.exit("%s: refusing to compare runs of different configs "
                     "(fingerprints %s)" % (workload,
                                            ", ".join(sorted(fingerprints))))
        common = sorted(set(base) & set(new))
        if common:
            base_list = [base[s] for s in common]
            new_list = [new[s] for s in common]
        else:
            n = min(len(base), len(new))
            base_list = [base[s] for s in sorted(base)][:n]
            new_list = [new[s] for s in sorted(new)][:n]
        print("%s: %d pairs, fingerprint %s" %
              (workload, len(base_list), fingerprints.pop()))
        print("  %-18s %-30s %-30s %6s  %s" %
              ("metric", "base median [q1, q3]", "new median [q1, q3]",
               "won", "verdict"))
        for spec in specs:
            b = [value(r, spec["name"]) for r in base_list]
            n = [value(r, spec["name"]) for r in new_list]
            if any(v is None for v in b + n):
                continue
            result, share = verdict(b, n, spec["better"], spec["bound"])
            worse += result == "worse"
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            print("  %-18s %-30s %-30s %5.0f%%  %s" % (
                spec["name"],
                "%.4g [%.4g, %.4g]" % (bmed, bq1, bq3),
                "%.4g [%.4g, %.4g]" % (nmed, nq1, nq3),
                100 * share, result))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()

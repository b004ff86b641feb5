#!/usr/bin/env python3
"""Traced-run report: folds a span file into self time per layer and prints
every per-layer metric of the run with the end-to-end metric it should move.

    python3 perfbench/run.py --workload cad_select --trace 1
    python3 perfbench/report.py --workload cad_select

Reads .bench_build/perfbench/runs/<workload>.spans.jsonl and the newest
<workload>.seed*.trace1.json record there (override with --runs).

A span's layer is the first dotted component of its name; its self time is
its duration minus the time its children cover. Three span trees exist per
op: the real public call (root "engine.*"), the replay of its pipeline
stages (root "replay"), and the per-block decomposition of the replayed
quantifier elimination (root "replay.blocks").
"""

import argparse
import collections
import json
import pathlib

BENCH_DIR = pathlib.Path(__file__).resolve().parent
DEFAULT_RUNS = BENCH_DIR.parent / ".bench_build" / "perfbench" / "runs"


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def fold(spans):
    """Returns ({root name: {span name: self µs}}, ops) over all spans."""
    by_id = {s["id"]: s for s in spans}
    covered = collections.Counter()
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end_ns"] - s["start_ns"]

    def root_of(s):
        while s["parent"] >= 0:
            s = by_id[s["parent"]]
        return s["name"]

    trees = collections.defaultdict(collections.Counter)
    for s in spans:
        self_ns = s["end_ns"] - s["start_ns"] - covered[s["id"]]
        root = root_of(s)
        tree = "engine" if root.startswith("engine.") else root
        trees[tree][s["name"]] += self_ns / 1e3
    ops = len({s["op"] for s in spans})
    return trees, ops


def layer_of(name):
    return name.split(".")[0]


def print_ladder(title, per_name, ops, total):
    print(title)
    by_layer = collections.Counter()
    for name, us in per_name.items():
        by_layer[layer_of(name)] += us
    for layer, us in by_layer.most_common():
        share = us / total if total > 0 else 0.0
        print("  %-10s %12.1f us/op %6.1f%%" % (layer, us / ops, 100 * share))
        for name, name_us in sorted(per_name.items(), key=lambda kv: -kv[1]):
            if layer_of(name) == layer and name != layer:
                print("    %-26s %12.1f us/op" % (name, name_us / ops))


def newest_record(runs, workload):
    records = sorted(runs.glob(workload + ".seed*.trace1.json"),
                     key=lambda p: p.stat().st_mtime)
    if not records:
        raise SystemExit("no traced record for %s under %s" % (workload, runs))
    with open(records[-1]) as f:
        return json.load(f), records[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=pathlib.Path, default=DEFAULT_RUNS)
    args = parser.parse_args()

    spans_path = args.runs / (args.workload + ".spans.jsonl")
    trees, ops = fold(load_spans(spans_path))
    record, record_path = newest_record(args.runs, args.workload)
    ops = max(ops, 1)
    print("workload %s: %d traced ops (%s, %s)" %
          (args.workload, ops, spans_path.name, record_path.name))
    print("config fingerprint %s" % record["fingerprint"])

    real = sum(trees["engine"].values())
    replayed = sum(us for name, us in trees["replay"].items()
                   if name != "replay")
    print("real public calls: %.1f us/op; replayed stages: %.1f us/op" %
          (real / ops, replayed / ops))
    print_ladder("self time per layer, replayed pipeline stages "
                 "(share of replayed stage time):",
                 {k: v for k, v in trees["replay"].items() if k != "replay"},
                 ops, replayed)
    eliminate = trees["replay"].get("qe.eliminate", 0.0)
    blocks = {k: v for k, v in trees["replay.blocks"].items()
              if k != "replay.blocks"}
    print_ladder("per-block decomposition of qe.eliminate "
                 "(share of qe.eliminate time):", blocks, ops, eliminate)

    layer_map = json.load(open(BENCH_DIR / "metrics.json"))["layer_map"]
    metrics = record["per_layer"]
    for name in ("engine.unattributed_frac", "trace.overhead_frac"):
        print("%s = %.4f" % (name, metrics[name]["value"]))
    print("per-layer metrics -> the end-to-end metric and workload each "
          "should move:")
    for name, m in metrics.items():
        moves = ", ".join("%s on %s" % (e2e, w)
                          for e2e, w in layer_map.get(name, []))
        print("  %-32s %14.6g %-14s %s" % (name, m["value"], m["unit"],
                                           moves or "-"))


if __name__ == "__main__":
    main()

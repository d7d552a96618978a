#!/usr/bin/env python3
"""Compares ledger results of a parent and a change, one row per
(workload, metric).

  python3 bench/ledger/compare.py --parent p1.json p2.json ... \\
                                  --change c1.json c2.json ...

Each file is a results document written by dmv_ledger --out (run.py keeps
them in <build>/ledger-results). Runs pair up in the order given, so list
them in the order they ran, alternating sides. Verdicts:

  improved    at least 10 pairs, the change wins at least 9 of 10 of them
              (ties count for neither) and the medians differ by more than
              the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound; for a metric without a bound, the
              parent wins by the rule above
  unresolved  the parent's own spread is wider than the bound and not every
              change run beats every parent run
  unchanged   none of the above

Bounds come from BENCHMARK.json. End-to-end metrics it does not gate
(README.md, "Metrics", says which and why) are compared by the pair rule
alone, with the direction their results document gives. The exit status
is 1 when a gated metric is worse or a run was incorrect.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, os.pardir, os.pardir, "BENCHMARK.json")
MIN_PAIRS = 10


def load(paths):
    """Results documents grouped by (workload, mode), in the order given."""
    runs = {}
    for path in paths:
        with open(path) as handle:
            doc = json.load(handle)
        if doc.get("schema") != "dmv-ledger-results/2":
            sys.exit(f"compare.py: {path} is not a dmv-ledger-results/2 "
                     "document")
        runs.setdefault((doc["workload"], doc["mode"]), []).append(doc)
    return runs


def metric_value(doc, name):
    """An end-to-end metric, gated or not, or a per-layer one."""
    return (doc["end_to_end"].get(name) or doc["per_layer"][name])["value"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, lower, bound):
    """(verdict, pairs the change won, pairs)."""
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    losses = sum(better(p, c) for p, c in pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    iqr = p_q3 - p_q1
    # Fewer pairs than MIN_PAIRS never decide by the pair rule: three
    # runs of identical code win 3 of 3 one time in eight.
    separated = abs(c_med - p_med) > iqr and len(pairs) >= MIN_PAIRS
    if wins >= 0.9 * len(pairs) and separated and better(c_med, p_med):
        return "improved", wins, len(pairs)
    if bound is None:
        lost = losses >= 0.9 * len(pairs) and separated
        return ("worse" if lost and better(p_med, c_med) else "unchanged",
                wins, len(pairs))
    scale = abs(p_med) or 1.0
    all_better = all(better(c, p) for c in change for p in parent)
    if iqr / scale > bound and not all_better:
        return "unresolved", wins, len(pairs)
    worse_by = (c_med - p_med if lower else p_med - c_med) / scale
    return ("worse" if worse_by > bound else "unchanged"), wins, len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=BENCHMARK)
    args = parser.parse_args()

    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    declared = {metric["name"]: metric
                for metric in benchmark["end_to_end"] + benchmark["per_layer"]}

    parent, change = load(args.parent), load(args.change)
    status = 0
    for side, runs in (("parent", parent), ("change", change)):
        for (workload, mode), docs in sorted(runs.items()):
            bad = sum(not doc["correct"] for doc in docs)
            if bad:
                print(f"{side} {workload} ({mode}): {bad} incorrect run(s)")
                status = 1

    print(f"{'workload':<16} {'metric':<30} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload = key[0]
        docs = parent[key] + change[key]
        names = set.intersection(*(set(doc["end_to_end"]) | set(doc["per_layer"])
                                   for doc in docs))
        for name in sorted(names):
            spec = declared.get(name) or docs[0]["end_to_end"].get(name)
            if spec is None:
                continue
            p = [metric_value(doc, name) for doc in parent[key]]
            c = [metric_value(doc, name) for doc in change[key]]
            result, wins, pairs = verdict(p, c, spec["better"] == "lower",
                                          spec.get("bound"))
            if result == "worse" and "bound" in spec:
                status = 1
            (p_q1, p_q3), (c_q1, c_q3) = quartiles(p), quartiles(c)
            print(f"{workload:<16} {name:<30} "
                  f"{statistics.median(p):>12.4g} [{p_q1:>8.4g}, {p_q3:>8.4g}] "
                  f"{statistics.median(c):>12.4g} [{c_q1:>8.4g}, {c_q3:>8.4g}] "
                  f"{wins:>3}/{pairs:<2}  {result}")
    sys.exit(status)


if __name__ == "__main__":
    main()

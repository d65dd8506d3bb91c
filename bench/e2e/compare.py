#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results.

    python3 bench/e2e/compare.py A/ B/ [--benchmark BENCHMARK.json]

A holds the parent's result files and B the change's (as run.sh writes
them). Runs pair up by (workload, mode, seed); the comparison is refused
when a pair's input_digest differs, because then the inputs changed, not
the speed. For each workload and metric it prints each side's median and
quartiles, the pairs the change won, and a verdict:

  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither side), and the medians differ by more
              than the parent's own spread (the distance between its
              quartiles), in the better direction;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound (failed_frac: worse at all); for a metric
              without a bound, the mirror image of `improved`;
  unresolved  the parent's spread is wider than the bound, unless every run
              of the change reads better than every run of the parent;
  unchanged   otherwise.

Bounds come from BENCHMARK.json where it lists the metric, else from the
result files. Exits 1 when any metric regressed, 2 when the inputs differ.
"""

import argparse
import collections
import glob
import json
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            try:
                result = json.load(fh)
            except ValueError:
                continue
        if "metrics" not in result or "provenance" not in result:
            continue  # spans or foreign files
        key = (result["workload"], result["mode"], result["seed"])
        runs[key] = result
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, pairs, better, bound):
    """a, b: the two sides' values; pairs: (a_i, b_i) by seed."""
    sign = 1 if better == "higher" else -1
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    iqr = a_q3 - a_q1
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    gain = sign * (b_med - a_med)  # > 0: the change reads better
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and gain > iqr:
        return "improved", wins
    if bound is not None:
        worse_by = -gain / abs(a_med) if a_med else (-gain if gain < 0 else 0)
        if (bound == 0 and gain < 0) or (bound > 0 and worse_by > bound):
            return "regressed", wins
        all_better = all(sign * (y - x) > 0 for x in a for y in b)
        if a_med and iqr / abs(a_med) > bound and not all_better:
            return "unresolved", wins
    elif enough and losses >= WIN_SHARE * len(pairs) and -gain > iqr:
        return "regressed", wins
    return "unchanged", wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json"))
    args = parser.parse_args()

    bounds = {}
    if os.path.exists(args.benchmark):
        with open(args.benchmark) as fh:
            for m in json.load(fh).get("end_to_end", []):
                bounds[m["name"]] = m["bound"]

    parent, change = load(args.parent), load(args.change)
    shared = sorted(set(parent) & set(change))
    if not shared:
        print("no runs pair up by (workload, mode, seed)", file=sys.stderr)
        return 2
    for key in shared:
        da = parent[key]["provenance"]["input_digest"]
        db = change[key]["provenance"]["input_digest"]
        if da != db:
            print("refusing to compare: %s seed %d has input_digest %s vs %s"
                  % (key[0], key[2], da, db), file=sys.stderr)
            return 2

    groups = collections.defaultdict(list)
    for key in shared:
        groups[(key[0], key[1])].append(key)
    regressed = 0
    print("%-14s %-5s %-34s %-34s %-34s %-7s %s" % (
        "workload", "mode", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "won", "verdict"))
    for (workload, mode), keys in sorted(groups.items()):
        names = [n for n in parent[keys[0]]["metrics"]]
        for name in names:
            pairs = [(parent[k]["metrics"][name]["value"], change[k]["metrics"][name]["value"])
                     for k in keys
                     if name in parent[k]["metrics"] and name in change[k]["metrics"]]
            if not pairs:
                continue
            m = parent[keys[0]]["metrics"][name]
            bound = bounds.get(name, m.get("bound"))
            a = [x for x, _ in pairs]
            b = [y for _, y in pairs]
            what, wins = verdict(a, b, pairs, m["better"], bound)
            regressed += what == "regressed" and bound is not None
            fmt = lambda v: "%.5g [%.5g, %.5g]" % (v[1], v[0], v[2])
            print("%-14s %-5s %-34s %-34s %-34s %3d/%-3d %s" % (
                workload, mode, name + " (" + m["unit"] + ")", fmt(quartiles(a)),
                fmt(quartiles(b)), wins, len(pairs), what))
    if len(shared) < MIN_PAIRS * len(groups):
        print("note: fewer than %d pairs per workload; no gain can be claimed"
              % MIN_PAIRS, file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

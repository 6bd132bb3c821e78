#!/usr/bin/env python3
"""Compare two sets of benchmark results, parent against change.

    python3 weylbench/compare.py weylbench/baseline weylbench/out

Each argument is a result file or a directory searched for them.  For every
workload and end-to-end metric the table gives both medians with their
quartiles over the timed runs, the fraction of pairs (runs with the same
seed) the change won, and a verdict:

- improved: the change won at least 9/10 of the pairs and its median beats
  the parent's by more than the parent's own quartile spread;
- unresolved: the quartile spread of either side, as a share of its median,
  exceeds the metric's bound, and not every change run beats every parent run;
- worse: the change's median is worse than the parent's by more than the bound;
- within bound: none of the above.

Traced runs follow as a per-layer table of the metrics whose medians differ.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """(workload, traced) -> list of result dicts, from a file or directory."""
    path = Path(path)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    out = defaultdict(list)
    for f in files:
        if f.name.endswith("-spans.json"):
            continue
        with open(f, encoding="utf-8") as fh:
            result = json.load(fh)
        if not isinstance(result, dict) or "provenance" not in result:
            continue  # not a result file
        out[(result["workload"], result["provenance"]["traced"])].append(result)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def pairs(parent, change):
    """(parent value, change value) pairs, matched by seed where possible."""
    by_seed = {seed: v for seed, v in parent}
    matched = [(by_seed[seed], v) for seed, v in change if seed in by_seed]
    if matched:
        return matched
    return list(zip(sorted(v for _, v in parent), sorted(v for _, v in change)))


def verdict(parent, change, bound, better):
    """Verdict on one metric; parent and change are lists of (seed, value)."""
    sign = 1 if better == "lower" else -1  # sign * (change - parent) > 0 is worse
    p = [v for _, v in parent]
    c = [v for _, v in change]
    mp, mc = statistics.median(p), statistics.median(c)
    (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
    matched = pairs(parent, change)
    won = sum(1 for a, b in matched if sign * (b - a) < 0) / len(matched)
    spread = max((p3 - p1) / abs(mp), (c3 - c1) / abs(mc))
    every_run_better = max(sign * v for v in c) < min(sign * v for v in p)
    if won >= 0.9 and sign * (mc - mp) < 0 and abs(mc - mp) > p3 - p1:
        label = "improved"
    elif spread > bound and not every_run_better:
        label = "unresolved"
    elif sign * (mc - mp) / abs(mp) > bound:
        label = "worse"
    else:
        label = "within bound"
    return {"parent": (mp, p1, p3), "change": (mc, c1, c3), "won": won,
            "pairs": len(matched), "verdict": label}


def series(results, metric):
    return [(r["provenance"]["seed"], r["metrics"][metric]["value"])
            for r in results if metric in r["metrics"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="result file or directory of the parent commit")
    ap.add_argument("change", help="result file or directory of the change")
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parent, change = load(args.parent), load(args.change)
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})

    print(f"{'workload':<14} {'metric':<15} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'won':>9}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            p = series(parent.get((w, False), []), m["name"])
            c = series(change.get((w, False), []), m["name"])
            if not p or not c:
                continue
            v = verdict(p, c, m["bound"], m["better"])
            fmt = "{:.4g} [{:.4g}, {:.4g}]".format
            print(f"{w:<14} {m['name']:<15} {fmt(*v['parent']):>30} "
                  f"{fmt(*v['change']):>30} {v['won']:>5.2f}/{v['pairs']:<3} {v['verdict']}")

    for w in workloads:
        p_runs = parent.get((w, True), [])
        c_runs = change.get((w, True), [])
        if not p_runs or not c_runs:
            continue
        print(f"\nper-layer, {w} (traced medians, parent -> change)")
        for m, v in p_runs[0]["metrics"].items():
            if m not in c_runs[0]["metrics"]:
                continue
            a = statistics.median(x for _, x in series(p_runs, m))
            b = statistics.median(x for _, x in series(c_runs, m))
            if a != b:
                print(f"  {m:<42} {a:>12.6g} -> {b:<12.6g} {v['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

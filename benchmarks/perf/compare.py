#!/usr/bin/env python3
"""Compare two perf-ledger result files made with the same seed.

``python3 benchmarks/perf/compare.py A.json B.json`` prints one row per
(workload, metric) with B's value as a ratio of A's (the base is always
shown) and a verdict:

* ``same``        within the metric's bound — or, for an exact metric
  (every ``sim_*`` metric, every count and ratio), bit-identical;
* ``better`` / ``worse``   beyond the bound, in the metric's direction;
  an exact metric that differs at all is one or the other;
* ``unresolved``  a host-time metric whose repetitions inside either file
  spread (inter-quartile range over median) wider than its bound: the
  files cannot settle it;
* ``info``        per-layer host times, which carry no bound.

Exits non-zero when any row is ``worse``, when either file records a
failed workload, or when the two files used different seeds.  This is
the check a later perf or simplicity PR is held to, and the one that
accepts two sets of runs of the same code as agreeing.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers                                           # noqa: E402


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def verdict(name: str, better: str, bound, a: float, b: float,
            spread_a: float, spread_b: float) -> str:
    if a == b:
        return "same"
    improved = (b < a) == (better == "lower")
    if bound is None:                           # exact metric
        return "better" if improved else "worse"
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    change = abs(b - a)
    allowed = bound * abs(a)
    if name == "setup_s":
        allowed = max(allowed, layers.SETUP_FLOOR_S)
    if change <= allowed:
        return "same"
    return "better" if improved else "worse"


def rows(a: dict, b: dict) -> Iterator[Tuple[str, str, float, float, str]]:
    for workload in a["workloads"]:
        wa, wb = a["workloads"][workload], b["workloads"].get(workload)
        if wb is None:
            continue
        for e2e in layers.END_TO_END:
            va = wa["untraced"]["values"][e2e.name]
            vb = wb["untraced"]["values"][e2e.name]
            sa = spread(wa["untraced"]["samples"].get(e2e.name, []))
            sb = spread(wb["untraced"]["samples"].get(e2e.name, []))
            yield (workload, e2e.name, va, vb,
                   verdict(e2e.name, e2e.better, e2e.bound, va, vb, sa, sb))
        for layer in layers.PER_LAYER:
            va = wa["traced"]["values"][layer.name]
            vb = wb["traced"]["values"][layer.name]
            if layers.is_exact(layer.name):
                result = verdict(layer.name, layer.better, None, va, vb,
                                 0.0, 0.0)
            else:
                result = "info"
            yield workload, layer.name, va, vb, result


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    failed = False
    if a["seed"] != b["seed"]:
        print(f"different seeds: {a['seed']} vs {b['seed']}; simulated "
              "metrics are only comparable on one seed", file=sys.stderr)
        failed = True
    for ledger, path in ((a, argv[0]), (b, argv[1])):
        for workload, entry in ledger["workloads"].items():
            if entry["ops_failed"] or not entry["correct"]:
                print(f"{path}: {workload} failed its output checks",
                      file=sys.stderr)
                failed = True
    if failed:
        return 1
    counts: Dict[str, int] = {}
    print(f"{'workload':24s} {'metric':34s} {'A (base)':>16s} {'B':>16s} "
          f"{'B/A':>8s}  verdict")
    for workload, metric, va, vb, result in rows(a, b):
        counts[result] = counts.get(result, 0) + 1
        ratio = f"{vb / va:8.4f}" if va else f"{'-':>8s}"
        print(f"{workload:24s} {metric:34s} {va:16.6g} {vb:16.6g} "
              f"{ratio}  {result}")
    print(" ".join(f"{key}={counts[key]}" for key in sorted(counts)))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

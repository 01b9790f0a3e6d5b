"""Compare two result sets of the benchmark.

A result set is a directory of result files written by ``run.py`` with
``--trace 0``.  For every workload and end-to-end metric the medians of
the two sets are compared against the metric's bound in BENCHMARK.json:

* ``worse`` / ``better``: B's median is beyond A's by more than the bound;
* ``unchanged``: within the bound, and both sets spread less than it;
* ``unresolved``: a set's run-to-run spread (quartile distance over the
  median) is wider than the bound, so a difference of that size cannot
  be told from noise -- unless every run of B beats every run of A,
  which reads as ``better``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics


def load_set(directory: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, over the untraced results."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        if result.get("trace") != 0:
            continue
        per = out.setdefault(result["workload"], {})
        for name, entry in result["metrics"].items():
            per.setdefault(name, []).append(entry["value"])
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], bound: float, lower: bool) -> tuple:
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b - med_a) / med_a if lower else (med_a - med_b) / med_a
    wide = max(spread(a), spread(b)) > bound
    b_wins = max(b) < min(a) if lower else min(b) > max(a)
    if wide:
        word = "better" if b_wins else "unresolved"
    elif worse_by > bound:
        word = "worse"
    elif worse_by < -bound:
        word = "better"
    else:
        word = "unchanged"
    return med_a, med_b, worse_by, word


def main(dir_a: str, dir_b: str, bench_path: str) -> int:
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    set_a, set_b = load_set(dir_a), load_set(dir_b)
    print(f"{'workload':8s} {'metric':12s} {'unit':5s} {'A median':>12s} "
          f"{'B median':>12s} {'worse by':>9s} {'spread A':>9s} "
          f"{'spread B':>9s} {'bound':>6s}  verdict")
    regressions = 0
    for workload in sorted(set(set_a) | set(set_b)):
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = set_a.get(workload, {}).get(name)
            b = set_b.get(workload, {}).get(name)
            if not a or not b:
                print(f"{workload:8s} {name:12s} missing in "
                      f"{'A' if not a else 'B'}")
                regressions += 1
                continue
            bound = metric["bound"]
            med_a, med_b, worse_by, word = verdict(
                a, b, bound, metric["better"] == "lower"
            )
            regressions += word == "worse"
            print(f"{workload:8s} {name:12s} {metric['unit']:5s} {med_a:12.4f} "
                  f"{med_b:12.4f} {worse_by:+9.1%} {spread(a):9.1%} "
                  f"{spread(b):9.1%} {bound:6.0%}  {word} "
                  f"(n={len(a)}/{len(b)})")
    return 1 if regressions else 0

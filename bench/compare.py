"""Compare two sets of benchmark result files, or summarise one.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/compare.py RESULTS_DIR

Each directory holds the BENCH_*.json files that ``run.py`` writes.  Runs of
the two sets are paired by workload and seed.  For every workload and
end-to-end metric the comparison prints each side's median and quartiles,
the pairs the change wins, and a verdict:

    improved    the change wins at least 9 in 10 pairs (ties count for
                neither) and the medians differ by more than the distance
                between the parent's quartiles
    worse       the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json
    unresolved  either side's quartile spread, as a share of its median, is
                wider than the bound, and not every run of the change beats
                every run of the parent
    no worse    otherwise

Per-layer medians from the traced runs follow as supporting evidence only;
they decide nothing.  With one directory the script prints, per workload and
end-to-end metric, the median, the quartile spread as a share of the median,
and whether that spread is within a third of the bound.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """{(workload, trace): {seed: record}} for every result file in a directory."""
    out: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(runs: dict, metric: str) -> dict:
    return {seed: rec["metrics"][metric]["value"] for seed, rec in runs.items() if metric in rec["metrics"]}


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[str, str]:
    """Verdict for one metric on one workload, and the pair-win tally."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = list(parent.values()), list(change.values())
    qa, qb = quartiles(a), quartiles(b)
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (parent[s] - change[s]) > 0)
    tally = f"{wins}/{len(seeds)}"
    gain = sign * (qa[1] - qb[1])
    if seeds and wins >= 0.9 * len(seeds) and gain > qa[2] - qa[0]:
        return "improved", tally
    if all(sign * (x - y) > 0 for x in a for y in b):
        return "no worse", tally
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    if spread > bound:
        return "unresolved", tally
    if -gain / qa[1] > bound:
        return "worse", tally
    return "no worse", tally


def fmt(q: tuple) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def compare(parent_dir: str, change_dir: str, spec: dict) -> None:
    parent, change = load(parent_dir), load(change_dir)
    print(f"{'workload':10s} {'metric':12s} {'parent median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'wins':6s} verdict")
    for wl in spec["workloads"]:
        pa, ch = parent.get((wl["name"], 0), {}), change.get((wl["name"], 0), {})
        for m in spec["end_to_end"]:
            a, b = values_of(pa, m["name"]), values_of(ch, m["name"])
            if not a or not b:
                print(f"{wl['name']:10s} {m['name']:12s} missing runs")
                continue
            v, tally = verdict(a, b, m["better"], m["bound"])
            print(f"{wl['name']:10s} {m['name']:12s} {fmt(quartiles(list(a.values()))):32s} "
                  f"{fmt(quartiles(list(b.values()))):32s} {tally:6s} {v}")
    print("\nper-layer medians (traced runs; evidence only)")
    for wl in spec["workloads"]:
        pa, ch = parent.get((wl["name"], 1), {}), change.get((wl["name"], 1), {})
        for m in spec["per_layer"]:
            a, b = values_of(pa, m["name"]), values_of(ch, m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a.values()), statistics.median(b.values())
            if ma == mb == 0:
                continue
            delta = f"{(mb - ma) / ma:+.1%}" if ma else "new"
            print(f"{wl['name']:10s} {m['name']:36s} {ma:12.6g} -> {mb:12.6g} {delta:>8s} {m['unit']}")


def summarise(directory: str, spec: dict) -> None:
    runs = load(directory)
    print(f"{'workload':10s} {'metric':12s} {'runs':>4s} {'median':>10s} {'spread':>7s} {'bound/3':>7s}")
    for wl in spec["workloads"]:
        for m in spec["end_to_end"]:
            vals = list(values_of(runs.get((wl["name"], 0), {}), m["name"]).values())
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2
            flag = "ok" if spread <= m["bound"] / 3 else "WIDE"
            print(f"{wl['name']:10s} {m['name']:12s} {len(vals):4d} {q2:10.4g} {spread:7.3f} "
                  f"{m['bound'] / 3:7.3f} {flag}")


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if len(argv) == 1:
        summarise(argv[0], spec)
    else:
        compare(argv[0], argv[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Compare two labelled sets of benchmark runs.

Record runs with run.py's --out/--label, alternating which side runs
first, on the same seeds:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload create-mem --seed $seed --seconds 10 --trace 0 \
          --out runs.bench.csv --label parent
      ...   # the change's build, same arguments, --label change
    done
    python3 perfbench/compare.py runs.bench.csv parent change

For every workload x metric it prints each side's median and quartiles,
the fraction of seed-matched pairs the change wins, and a verdict:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's
              own spread (the distance between its quartiles);
  regression  the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  the parent's spread is wider than the bound and the change
              does not beat every parent run;
  same        none of the above: within the bound.

Per-layer metrics have no bound; they get gain, loss (the mirror of
gain) or same.
"""
import csv
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_defs():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    defs = {}
    for m in spec["end_to_end"]:
        defs[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        defs[m["name"]] = (m["better"], None)
    return defs


def load_runs(paths):
    runs = {}  # (label, workload, trace, metric) -> {seed: value}
    for path in paths:
        with open(path, newline="") as f:
            for row in csv.DictReader(f):
                key = (row["label"], row["workload"], row["trace"], row["metric"])
                runs.setdefault(key, {})[row["seed"]] = float(row["value"])
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def verdict(base, change, better, bound):
    seeds = sorted(set(base) & set(change))
    sign = 1 if better == "higher" else -1
    wins = sum(1 for s in seeds if sign * (change[s] - base[s]) > 0)
    b, c = list(base.values()), list(change.values())
    bq1, bmed, bq3 = quartiles(b)
    _, cmed, _ = quartiles(c)
    spread = bq3 - bq1
    frac = wins / len(seeds) if seeds else 0.0
    losses = sum(1 for s in seeds if sign * (change[s] - base[s]) < 0)
    if frac >= 0.9 and abs(cmed - bmed) > spread:
        return frac, "gain"
    if bound is None:
        if seeds and losses / len(seeds) >= 0.9 and abs(cmed - bmed) > spread:
            return frac, "loss"
        return frac, "same"
    if sign * (cmed - bmed) < -bound * abs(bmed):
        return frac, "regression"
    all_better = all(sign * (x - y) > 0 for x in c for y in b)
    if bmed and spread / abs(bmed) > bound and not all_better:
        return frac, "unresolved"
    return frac, "same"


def main():
    if len(sys.argv) < 4:
        sys.stderr.write("usage: compare.py RUNS.csv [MORE.csv ...] PARENT_LABEL CHANGE_LABEL\n")
        sys.exit(2)
    *paths, base_label, change_label = sys.argv[1:]
    defs = load_defs()
    runs = load_runs(paths)
    keys = sorted({(w, t, m) for (label, w, t, m) in runs if label == base_label})
    print(f"{'workload':<14} {'trace':<5} {'metric':<28} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>6}  verdict")
    for w, t, m in keys:
        base = runs.get((base_label, w, t, m))
        change = runs.get((change_label, w, t, m))
        if not base or not change:
            continue
        better, bound = defs.get(m, ("lower", None))
        frac, v = verdict(base, change, better, bound)
        bq = "/".join(f"{x:.4g}" for x in quartiles(list(base.values())))
        cq = "/".join(f"{x:.4g}" for x in quartiles(list(change.values())))
        print(f"{w:<14} {t:<5} {m:<28} {bq:>32} {cq:>32} {frac:>6.2f}  {v}")


if __name__ == "__main__":
    main()

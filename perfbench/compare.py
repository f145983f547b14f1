#!/usr/bin/env python3
"""Compare two result sets of the benchmark: a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON-lines records perfbench/run.py appends with
--record.  Make both sets with the same benchmark code, run length and
seeds, alternating which side runs first.

For every (end-to-end metric, workload) row it prints each side's median
and quartiles over the --trace 0 runs, how many seed-matched pairs the
change wins, and a verdict against the bound BENCHMARK.json gives that
metric:

  improved    the change wins at least 9 in 10 pairs and the medians
              differ by more than the parent's own quartile spread
  worse       the change's median is worse by more than the bound
  unresolved  fewer than 10 seed-matched pairs, or the parent's spread
              is wider than the bound (unless every change run beats
              every parent run)
  unchanged   otherwise

The 4-process real-backend figures (real_wall_s, speedup) carry no bound;
their rows use the same statistics and say "improved" or "no bound".
Below each workload's rows it prints the per-layer medians of the
--trace 1 runs on both sides with their change, so a gain or a loss shows
in the layer where it happened; a count that moved is marked '*'.
Records from different hosts, compilers, build types, cost models or
problem sizes are refused (exit status 2).  Exit status 1 means some row
is worse.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
# Per-layer metrics that every --trace 0 run also records, compared like
# the end-to-end rows but without a bound.
UNBOUNDED_ROWS = ("real_wall_s", "speedup")
HOST_KEYS = ("cores", "machine")
CONFIG_KEYS = ("compiler", "build_type", "cost_model", "problem",
               "hardware_threads")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def fingerprint(rec):
    return (rec["workload"],) + tuple(
        rec["host"].get(k) for k in HOST_KEYS) + tuple(
        rec["config"].get(k) for k in CONFIG_KEYS)


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric, parent, change):
    """parent/change: {seed: value}.  Returns (row fields, verdict)."""
    pv, cv = list(parent.values()), list(change.values())
    lower = metric["better"] == "lower"
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    pairs = [(parent[s], change[s]) for s in sorted(set(parent) & set(change))]
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    if len(pairs) < MIN_PAIRS or pm == 0:
        return (pm, p1, p3, cm, c1, c3, wins, len(pairs)), "unresolved"
    worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm)
    spread = (p3 - p1) / abs(pm)
    all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1):
        v = "improved"
    elif "bound" not in metric:
        v = "no bound"
    elif worse_by > metric["bound"]:
        v = "worse"
    elif spread > metric["bound"] and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return (pm, p1, p3, cm, c1, c3, wins, len(pairs)), v


def by_seed(records, workload, trace, name):
    out = {}
    for r in records:
        if (r["workload"] == workload and r["trace"] == trace and
                r["correct"] and name in r["metrics"]):
            out[r["seed"]] = r["metrics"][name]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)

    prints = {fingerprint(r) for r in parent + change}
    if len(prints) > len({p[0] for p in prints}):
        print("host/config records differ between runs:", file=sys.stderr)
        for p in sorted(prints, key=str):
            print("  ", dict(zip(("workload",) + HOST_KEYS + CONFIG_KEYS, p)),
                  file=sys.stderr)
        print("refusing to compare", file=sys.stderr)
        return 2
    for side, recs in (("parent", parent), ("change", change)):
        bad = [r for r in recs if not r["correct"]]
        if bad:
            print(f"{side}: {len(bad)} incorrect run(s) left out: " +
                  ", ".join(f"{r['workload']}/seed {r['seed']}" for r in bad))

    workloads = [w["name"] for w in spec["workloads"]]
    any_worse = False
    head = (f"{'metric':16s} {'parent median [q1, q3]':>35s} "
            f"{'change median [q1, q3]':>35s} {'wins':>8s}  verdict")
    for w in workloads:
        if not any(r["workload"] == w for r in parent + change):
            continue
        print(f"\n== {w}\n{head}")
        rows = spec["end_to_end"] + [
            m for m in spec["per_layer"] if m["name"] in UNBOUNDED_ROWS]
        for m in rows:
            p = by_seed(parent, w, 0, m["name"])
            c = by_seed(change, w, 0, m["name"])
            if not p and not c:
                continue
            (pm, p1, p3, cm, c1, c3, wins, n), v = verdict(m, p, c)
            any_worse |= v == "worse"
            bound = f" (bound {m['bound']:.0%})" if "bound" in m else ""
            print(f"{m['name']:16s} {pm:12.6g} [{p1:9.4g}, {p3:9.4g}] "
                  f"{cm:12.6g} [{c1:9.4g}, {c3:9.4g}] {wins:3d}/{n:<3d}  "
                  f"{v}{bound}")
        rows = []
        for m in spec["per_layer"]:
            p = list(by_seed(parent, w, 1, m["name"]).values())
            c = list(by_seed(change, w, 1, m["name"]).values())
            if not p or not c:
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            delta = f"{(cm - pm) / abs(pm):+8.1%}" if pm else (
                "       =" if cm == pm else "     new")
            mark = "*" if m["unit"] in ("count", "bytes") and cm != pm else " "
            rows.append(f"  {mark}{m['name']:30s} {pm:14.6g} {cm:14.6g} "
                        f"{delta} {m['unit']}")
        if rows:
            print(f"  per-layer medians ({'parent':>28s} {'change':>14s}"
                  "    delta)")
            print("\n".join(rows))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())

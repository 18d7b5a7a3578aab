#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric.

    python3 benchmark/compare.py A... -- B...

Each argument is a result.json written by benchmark/run.py, or a directory
holding such files.  A is the parent, B the change.  For every (workload,
end-to-end metric) the report gives each side's median and quartiles over
its runs, the share of (A, B) pairs that B wins, and a verdict with the
bound from BENCHMARK.json:

  improved    B wins at least 9/10 of the pairs and the medians differ by
              more than A's interquartile range
  unresolved  A's interquartile range is wider than the bound and not
              every B run beats every A run
  worse       B's median is worse than A's by more than the bound
  unchanged   otherwise

Runs of one workload and seed must have identical counts on both sides
when both are the same commit.  Exits 1 when a metric is worse, or when A
and B are the same commit and a median moved by more than its bound in
either direction or a count differs.
"""
import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(args):
    sets = []
    for arg in args:
        path = Path(arg)
        for f in sorted(path.glob("*.json")) if path.is_dir() else [path]:
            data = json.loads(f.read_text())
            if "runs" in data:  # skip trace files next to results
                sets.append(data)
    if not sets:
        raise SystemExit(f"compare.py: no result files in {' '.join(args)}")
    return sets


def runs_of(sets):
    return [r for s in sets for r in s["runs"] if r["window_div"] == 1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, better, bound):
    """Returns (verdict, B's win share, relative change of the median)."""
    sign = 1 if better == "higher" else -1
    med_a, med_b = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    pairs = list(zip(a, b)) if len(a) == len(b) else [(x, y) for x in a
                                                       for y in b]
    wins = sum(sign * (y - x) > 0 for x, y in pairs) / len(pairs)
    gain = sign * (med_b - med_a)
    change = (med_b - med_a) / med_a
    if wins >= 0.9 and gain > q3 - q1:
        return "improved", wins, change
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if (q3 - q1) / med_a > bound and not all_better:
        return "unresolved", wins, change
    if -gain / med_a > bound:
        return "worse", wins, change
    return "unchanged", wins, change


def main(argv):
    if "--" not in argv:
        raise SystemExit(__doc__)
    split = argv.index("--")
    side_a, side_b = load(argv[:split]), load(argv[split + 1:])
    runs_a, runs_b = runs_of(side_a), runs_of(side_b)
    commits = {s["host"]["commit"] for s in side_a + side_b}
    same_commit = len(commits) == 1 and None not in commits
    failing = []

    print(f"{'workload':16} {'metric':20} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'B wins':>6}  verdict")
    workloads = [w["name"] for w in SPEC["workloads"]]
    for w in workloads:
        wa = [r for r in runs_a if r["workload"] == w]
        wb = [r for r in runs_b if r["workload"] == w]
        if not wa or not wb:
            print(f"{w:16} (no runs on {'A' if not wa else 'B'})")
            continue
        for m in SPEC["end_to_end"]:
            a = [r["metrics"][m["name"]] for r in wa]
            b = [r["metrics"][m["name"]] for r in wb]
            v, wins, change = verdict(a, b, m["better"], m["bound"])
            cells = []
            for vals in (a, b):
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.5g} "
                             f"[{q1:.5g}, {q3:.5g}] n={len(vals)}")
            print(f"{w:16} {m['name']:20} {cells[0]:>34} {cells[1]:>34} "
                  f"{100 * change:+7.2f}% {wins:6.2f}  {v}")
            if v == "worse" or (same_commit and abs(change) > m["bound"]):
                failing.append(f"{w} {m['name']}: {v}, {100 * change:+.2f}%")
        if same_commit:
            for ra in wa:
                for rb in wb:
                    if ra["seed"] != rb["seed"]:
                        continue
                    keys = set(ra["counts"]) | set(rb["counts"])
                    diff = sorted(k for k in keys
                                  if ra["counts"].get(k) != rb["counts"].get(k))
                    if diff:
                        failing.append(f"{w} seed {ra['seed']}: counts differ: "
                                       f"{', '.join(diff)}")
    scope = "same commit" if same_commit else "different commits"
    print(f"\n{scope}: {len(failing)} failing")
    for f in sorted(set(failing)):
        print(f"  {f}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

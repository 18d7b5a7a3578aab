#!/usr/bin/env python3
"""Runs the nestv simulator benchmark (benchmark/README.md).

    python3 benchmark/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--runs K] [--out DIR]
    python3 benchmark/run.py --smoke

Builds benchmark/nestv_bench on first use, runs each workload in its own
process, takes medians, checks the simulated outputs and prints one JSON
object as the last line of stdout: every end-to-end metric, or with
--trace 1 every per-layer metric.  The full record (samples, counts, host)
goes to DIR/result.json and traces to DIR/trace_<workload>.json.
Exits 1 when an output is wrong and 2 on a bad command line.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "benchmark"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
META = json.loads((HERE / "metrics.json").read_text())
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Counts nestv_bench reads from thread-local storage: reported only where
# the whole run executes on one thread, so they are not part of the
# shards=4 == shards=1 equivalence.
THREAD_LOCAL = {"sim.inline_task_heap_spills", "net.pool.fresh_allocs",
                "net.pool.reuse_ratio", "net.frames_cloned_per_pkt"}
SMOKE_WINDOW_DIV = 20
SMOKE_BUDGET_S = 15
# One invocation must end within 180 s of wall time once built.
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def seed_arg(text):
    if not re.fullmatch(r"[0-9]+", text) or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(
            f"seed must be a whole number in [0, 2^64), got {text!r}")
    return int(text)


def positive_int(text):
    if not re.fullmatch(r"[0-9]+", text) or not 1 <= int(text) <= 3600:
        raise argparse.ArgumentTypeError(
            f"want a whole number in [1, 3600], got {text!r}")
    return int(text)


def nproc():
    return len(os.sched_getaffinity(0))


def loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def git_head():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


# ---- build ------------------------------------------------------------------

def build():
    """Configures (once) and builds nestv_bench; returns the executable."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("run.py: the simulator sources (src/) are missing; "
                         "run from a full checkout")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "nestv_bench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "nestv_bench", "-j", str(min(4, nproc()))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise SystemExit(f"run.py: build step failed: {' '.join(cmd)}")
    return build_dir / "nestv_bench"


# ---- one workload process ---------------------------------------------------

def run_bench(exe, workload, seed, *, seconds=None, iterations=None,
              window_div=1, trace_out=None, deadline=None):
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--window-div", str(window_div)]
    cmd += (["--iterations", str(iterations)] if iterations
            else ["--seconds", str(seconds)])
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run.py: {workload} did not finish in time")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"run.py: nestv_bench failed on {workload} (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def diff_counts(label, got, want, keys=None):
    keys = sorted(set(got) | set(want)) if keys is None else keys
    return [f"{label}: {k} = {got.get(k)!r}, expected {want.get(k)!r}"
            for k in keys if got.get(k) != want.get(k)]


def equivalence_keys(counts):
    """Simulated outputs that must not depend on the shard count."""
    return [k for k in sorted(counts)
            if not k.startswith("sim.conductor.") and k not in THREAD_LOCAL]


def check_outputs(raw, expected):
    """Every way this run's deterministic outputs can be wrong."""
    w, seed, div = raw["workload"], str(raw["seed"]), raw["window_div"]
    its = raw["iterations"]
    counts = its[0]["counts"]
    problems = []
    for n, it in enumerate(its[1:], 1):
        problems += diff_counts(f"iteration {n} vs 0", it["counts"], counts)
    for it in raw["traced"] + raw["untraced_pairs"]:
        problems += diff_counts("traced run vs timed run", it["counts"], counts)
    if div == 1 and seed in expected.get(w, {}):
        problems += diff_counts("golden", counts, expected[w][seed])
    if w == "macro_churn_s4":
        if raw["s1_reference"]:
            ref = raw["s1_reference"][0]["counts"]
            for it in raw["s1_reference"][1:]:
                problems += diff_counts("shards=1 reference", it["counts"], ref)
        else:
            ref = expected.get("macro_churn_s1", {}).get(seed) if div == 1 else None
        if ref:
            problems += diff_counts("shards=4 vs shards=1", counts, ref,
                                    equivalence_keys(counts))
    for name, info in META["per_layer"].items():
        if (info["layer"] == "workload outputs" and w in info["workloads"]
                and not counts.get(name, 0) > 0):
            problems.append(f"{name} is {counts.get(name)!r}, expected > 0")
    return problems


def analyse(raw, expected):
    its = raw["iterations"]
    walls = [it["wall_s"] for it in its]
    metrics = {
        "wall_s": statistics.median(walls),
        "sim_pkts_per_wall_s": statistics.median(
            it["sim_pkts"] / it["wall_s"] for it in its),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    attempted = int(sum(it["attempted"] for it in its))
    failed = int(sum(it["failed"] for it in its))
    problems = check_outputs(raw, expected)
    record = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "window_div": raw["window_div"],
        "iterations": len(its),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted if attempted else 1.0,
        "output_mismatches": len(problems),
        "problems": problems[:20],
        "samples": {"wall_s": walls, "setup_s": raw["setup_s"]},
        "counts": its[0]["counts"],
        "per_layer": None,
    }
    if raw["traced"]:
        record["per_layer"] = per_layer_metrics(raw)
    return record


def per_layer_metrics(raw):
    """Counts of the traced run plus its wall-clock ratios (medians over
    its iterations)."""
    traced = raw["traced"]

    def med(key, its=traced):
        return statistics.median(it[key] for it in its)

    pl = dict(traced[0]["counts"])
    wall = med("wall_s")
    events = pl["sim.events"]
    pl["sim.wall_ns_per_event"] = wall * 1e9 / events
    pl["sim.events_per_wall_s"] = events / wall
    pl["sim.sim_ns_per_wall_s"] = traced[0]["sim_ns"] / wall
    pl["sim.conductor.barrier_wait_frac"] = statistics.median(
        it["barrier_wait_ns"] / (it["workers"] * it["wall_s"] * 1e9)
        for it in traced)
    ref = raw["s1_reference"]
    speedup = med("wall_s", ref) / wall if ref else 1.0
    pl["sim.conductor.speedup_vs_s1"] = speedup
    pl["sim.conductor.parallel_efficiency"] = (
        speedup / pl["sim.conductor.balance_ceiling"])
    pl["scenario.build_s"] = med("build_s")
    pl["scenario.teardown_s"] = med("teardown_s")
    pl["trace_overhead_pct"] = 100.0 * (statistics.median(
        t["wall_s"] / u["wall_s"]
        for t, u in zip(traced, raw["untraced_pairs"])) - 1.0)
    return {name: pl[name] for name in PER_LAYER}


# ---- output -----------------------------------------------------------------

def result_line(records, trace):
    """The contract line: plain metric names for one workload, else
    `workload/metric`; medians over repeated runs."""
    names = PER_LAYER if trace else E2E
    by_workload = {}
    for r in records:
        by_workload.setdefault(r["workload"], []).append(
            r["per_layer"] if trace else r["metrics"])
    metrics = {}
    for w, runs in by_workload.items():
        for name in names:
            key = name if len(by_workload) == 1 else f"{w}/{name}"
            metrics[key] = {"value": statistics.median(r[name] for r in runs),
                            "unit": UNITS[name]}
    return {
        "correct": all(r["output_mismatches"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def host_record(raw, load_before):
    """The host as one nestv_bench process saw it, plus the load."""
    return {
        "nproc": raw["nproc"],
        "hardware_concurrency": raw["hardware_concurrency"],
        "oversubscribed": raw["nproc"] < 4,
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "compiler": raw["compiler"],
        "build_type": raw["build_type"],
        "commit": git_head(),
    }


def write_json(path, data):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1) + "\n")
    tmp.replace(path)


def record_expected(records):
    expected = (json.loads(EXPECTED_PATH.read_text())
                if EXPECTED_PATH.is_file() else {})
    for r in records:
        if r["window_div"] != 1 or r["output_mismatches"]:
            log(f"not recording {r['workload']} seed {r['seed']}")
            continue
        expected.setdefault(r["workload"], {})[str(r["seed"])] = r["counts"]
        log(f"recorded the golden of {r['workload']} seed {r['seed']}")
    write_json(EXPECTED_PATH, {w: dict(sorted(s.items()))
                               for w, s in sorted(expected.items())})


# ---- modes ------------------------------------------------------------------

def smoke(exe, out):
    """Every workload at 1/20 of its window, twice: every metric the
    workload is assigned must be emitted and every count must repeat."""
    start = time.monotonic()
    passes = []
    for _ in range(2):
        passes.append([analyse(run_bench(exe, w, 42, iterations=1,
                                         window_div=SMOKE_WINDOW_DIV,
                                         trace_out=out / f"trace_{w}.json"),
                               {})
                       for w in WORKLOADS])
    elapsed = time.monotonic() - start
    problems = []
    for a, b in zip(*passes):
        w = a["workload"]
        wanted = set(E2E) | {m for m, info in META["per_layer"].items()
                             if w in info["workloads"]}
        missing = wanted - set(a["metrics"]) - set(a["per_layer"])
        problems += [f"{w}: {m} not emitted" for m in sorted(missing)]
        problems += [f"{w}: {p}" for p in a["problems"] + b["problems"]]
        problems += [f"{w}: {p}" for p in
                     diff_counts("second smoke run", b["counts"], a["counts"])]
    if elapsed > SMOKE_BUDGET_S:
        problems.append(f"smoke took {elapsed:.1f} s, budget {SMOKE_BUDGET_S} s")
    for p in problems:
        log(f"smoke: {p}")
    log(f"smoke: {len(WORKLOADS)} workloads x 2 in {elapsed:.2f} s, "
        f"{len(problems)} problems")
    records = passes[0] + passes[1]
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {"smoke_s": {"value": elapsed, "unit": "s"}},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=seed_arg, default=42)
    ap.add_argument("--seconds", type=positive_int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--runs", type=positive_int, default=1,
                    help="processes per workload (same seed)")
    ap.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-expected", action="store_true",
                    help="store this run's counts as the golden for its seed")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")

    started = time.monotonic()
    exe = build()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.smoke:
        line = smoke(exe, args.out)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    expected = (json.loads(EXPECTED_PATH.read_text())
                if EXPECTED_PATH.is_file() else {})
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    # A single-workload run has a wall-clock limit; a whole set does not.
    deadline = (time.monotonic() + RUN_LIMIT_S
                if len(workloads) * args.runs == 1 else None)
    load_before = loadavg()
    records = []
    for w in workloads:
        for _ in range(args.runs):
            trace_out = args.out / f"trace_{w}.json" if args.trace else None
            raw = run_bench(exe, w, args.seed, seconds=args.seconds,
                            trace_out=trace_out, deadline=deadline)
            record = analyse(raw, expected)
            record["trace_file"] = trace_out.name if trace_out else None
            records.append(record)
            m = record["metrics"]
            log(f"{w} seed {args.seed}: wall_s {m['wall_s']:.4f} "
                f"setup_s {m['setup_s']:.6f} rss {m['peak_rss_mb']:.1f} MB, "
                f"{record['iterations']} iterations, "
                f"{record['output_mismatches']} mismatches, "
                f"ops_failed_frac {record['ops_failed_frac']:.3g}")
            for p in record["problems"]:
                log(f"  {p}")
    write_json(args.out / "result.json", {
        "host": host_record(raw, load_before),  # the last process's view
        "seconds": args.seconds,
        "elapsed_s": time.monotonic() - started,
        "runs": records,
    })
    if args.record_expected:
        record_expected(records)
    line = result_line(records, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

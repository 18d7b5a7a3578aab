// Ablation — macro-scale churn: hierarchical fabric, open-loop flow
// arrival/departure, and compact per-flow state.
//
// Runs scenario::run_macro_scale (two-tier ToR/spine fabric with
// deterministic per-flow ECMP, NAT / BrFusion / Hostlo churn flows on the
// Google-trace placement) once per shard count and reports two things:
//   * equivalence: every simulated output of the shards=N run must match
//     the shards=1 run bit-for-bit.  `shards1_equivalence_max_delta` is
//     the max absolute difference over those outputs and CI gates it with
//     check_bench.py --require-zero.  The guarantee holds on multi-path
//     fabrics: ECMP tie-breaks are a pure hash of the flow tuple, so the
//     path — like the keyed wire delivery order — is a property of the
//     flow, not of the execution mode.
//   * bytes of per-flow state: conntrack + flowcache resident bytes per
//     tracked flow at peak occupancy (EXPERIMENTS.md compares it with the
//     node-based structures the slab tables replaced).
//
// Every metric is a simulated output; the wall-clock speed of the sharded
// conductor is measured by benchmark/nestv_bench (macro_churn_s1/s4).
//
// Flags (beyond the common `[seed] [--jobs N] [--shards N]`):
//   --full          200 machines / 100k flows — the EXPERIMENTS.md
//                   macro-scale configuration (minutes of wall time;
//                   nightly CI runs this, the PR bench job runs the
//                   default smoke size).
//   --machines=N    override the machine count.
//   --flows=N       override the churn flow count.  The 10^6-flow point in
//                   EXPERIMENTS.md is `--full --machines=400
//                   --flows=1000000` (use the `=` forms: a bare number is
//                   taken as the seed).
//   --shards N      single configuration, no sweep (the TSan CI entry
//                   point).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "scenario/macro_scale.hpp"

namespace {

using nestv::scenario::MacroScaleConfig;
using nestv::scenario::MacroScaleResult;

MacroScaleConfig base_config(std::uint64_t seed, bool full, int machines,
                             int flows) {
  MacroScaleConfig cfg;
  cfg.seed = seed;
  if (full) {
    // The EXPERIMENTS.md macro-scale point: 200 machines in 20-machine
    // racks under 4 spines, 100k churn flows.  Entries persist past flow
    // completion until idle-GC reaps them, so peak tracked state is set by
    // arrival rate x (idle timeout + flow lifetime) x stacks-per-path.
    cfg.machines = 200;
    cfg.machines_per_rack = 20;
    cfg.spines = 4;
    cfg.trace_users = 256;
    cfg.flows = 100000;
    cfg.arrival_window = nestv::sim::milliseconds(200);
    cfg.drain = nestv::sim::milliseconds(80);
    cfg.conntrack_idle = nestv::sim::milliseconds(60);
    cfg.gc_interval = nestv::sim::milliseconds(25);
    cfg.tcp_streams = 8;
  } else {
    // Smoke size for the PR bench job: still >= 16 machines so the
    // {1, 4, 16} shard sweep is meaningful, but small enough for a
    // shared 1-CPU runner.
    cfg.machines = 16;
    cfg.machines_per_rack = 4;
    cfg.spines = 2;
    cfg.trace_users = 48;
    cfg.flows = 1200;
    cfg.arrival_window = nestv::sim::milliseconds(120);
    cfg.drain = nestv::sim::milliseconds(60);
    cfg.tcp_streams = 2;
  }
  if (machines > 0) cfg.machines = machines;
  if (flows > 0) cfg.flows = flows;
  return cfg;
}

MacroScaleResult run_point(const MacroScaleConfig& base, int shards) {
  MacroScaleConfig cfg = base;
  cfg.shards = shards;
  // Workers = shards keeps the thread count deterministic (independent of
  // the host's core count) and gives each shard its own worker.
  cfg.max_workers = static_cast<unsigned>(shards);
  return nestv::scenario::run_macro_scale(cfg);
}

/// Max absolute difference over every simulated (deterministic) output.
/// Zero means the sharded run is the single-engine run, bit for bit.
double max_delta(const MacroScaleResult& a, const MacroScaleResult& b) {
  const auto xs = nestv::scenario::simulated_outputs(a);
  const auto ys = nestv::scenario::simulated_outputs(b);
  double d = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    d = std::fmax(d, std::fabs(xs[i].second - ys[i].second));
  }
  return d;
}

void print_point(const MacroScaleResult& r, double delta) {
  std::printf(
      "  shards=%-2d workers=%-2u events=%llu  epochs=%llu (%llu fused)  "
      "posts=%llu  delta=%.17g\n",
      r.shards, r.worker_threads,
      static_cast<unsigned long long>(r.events_total),
      static_cast<unsigned long long>(r.epochs),
      static_cast<unsigned long long>(r.fused_epochs),
      static_cast<unsigned long long>(r.cross_posts), delta);
}

std::uint64_t sum_u64(const std::vector<std::uint64_t>& v) {
  std::uint64_t s = 0;
  for (const std::uint64_t x : v) s += x;
  return s;
}

nestv::sim::ConductorStats conductor_info(const MacroScaleResult& r) {
  return {r.epochs,       r.fused_epochs, r.cross_posts, r.drained_posts,
          r.idle_windows, r.barrier_wait_ns};
}

void add_sim_outputs(nestv::bench::JsonReport& report,
                     const MacroScaleResult& r) {
  for (const auto& [name, value] : nestv::scenario::simulated_outputs(r)) {
    report.add(name, value);
  }
}

void print_state_summary(const MacroScaleResult& r) {
  std::printf(
      "\nper-flow state at peak occupancy (%llu connections, %llu cached "
      "paths):\n"
      "  compact tables : %8.1f B/flow  (%llu B resident: conntrack %llu, "
      "flowcache %llu)\n",
      static_cast<unsigned long long>(r.conntrack_peak_entries),
      static_cast<unsigned long long>(r.flowcache_entries_at_peak),
      r.state_bytes_per_flow,
      static_cast<unsigned long long>(r.state_bytes_at_peak),
      static_cast<unsigned long long>(r.conntrack_bytes_at_peak),
      static_cast<unsigned long long>(r.flowcache_bytes_at_peak));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nestv;
  const auto args =
      bench::parse_args(argc, argv, {"--full", "--machines=", "--flows="});
  bool full = false;
  int machines = 0;
  int flows = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strncmp(argv[i], "--machines=", 11) == 0) {
      machines = static_cast<int>(
          bench::whole_number_arg("--machines", argv[i] + 11, 1 << 16));
    } else if (std::strncmp(argv[i], "--flows=", 8) == 0) {
      flows = static_cast<int>(
          bench::whole_number_arg("--flows", argv[i] + 8, 1 << 30));
    }
  }
  const MacroScaleConfig base = base_config(args.seed, full, machines, flows);

  std::printf(
      "ablation: macro-scale churn (%d machines, %d racks x %d, %d spines, "
      "%d flows)\n",
      base.machines,
      (base.machines + base.machines_per_rack - 1) / base.machines_per_rack,
      base.machines_per_rack, base.spines, base.flows);

  if (args.shards > 0) {
    // Single configuration — the TSan CI job's entry point.
    const auto r = run_point(base, args.shards);
    print_point(r, 0.0);
    print_state_summary(r);
    bench::JsonReport report("abl_macro_scale", args.seed);
    report.set_execution_info(r.shards, r.worker_threads,
                              r.per_shard_events);
    report.set_conductor_info(conductor_info(r));
    add_sim_outputs(report, r);
    report.write();
    return 0;
  }

  // The sweep must stay within machines (a shard needs at least one
  // machine), so --machines= overrides trim it.
  std::vector<int> sweep;
  for (int shards : {1, 4, 16}) {
    if (shards <= base.machines) sweep.push_back(shards);
  }

  std::vector<MacroScaleResult> results;
  double equivalence_delta = 0.0;
  for (int shards : sweep) {
    results.push_back(run_point(base, shards));
    const double delta = max_delta(results.front(), results.back());
    if (delta > equivalence_delta) equivalence_delta = delta;
    print_point(results.back(), delta);
  }
  const auto& base_r = results.front();
  print_state_summary(base_r);

  bench::JsonReport report("abl_macro_scale", args.seed);
  // Execution shape of the widest configuration.
  const auto& widest = results.back();
  report.set_execution_info(widest.shards, widest.worker_threads,
                            widest.per_shard_events);
  report.set_conductor_info(conductor_info(widest));

  // Simulated outputs of the shards=1 baseline: deterministic, gated.
  add_sim_outputs(report, base_r);
  // The acceptance gate: CI runs check_bench.py --require-zero on this.
  report.add("shards1_equivalence_max_delta", equivalence_delta);
  // Cross-shard traffic and epoch-loop counts are deterministic per shard
  // count (they describe the simulated fabric and the conductor's window
  // schedule, not the host).
  for (const auto& r : results) {
    if (r.shards == 1) continue;
    const std::string suffix = "_s" + std::to_string(r.shards);
    report.add("cross_posts" + suffix, static_cast<double>(r.cross_posts));
    report.add("epochs" + suffix, static_cast<double>(r.epochs));
    report.add("fused_epochs" + suffix, static_cast<double>(r.fused_epochs));
    report.add("drained_posts" + suffix,
               static_cast<double>(r.drained_posts));
    report.add("idle_windows" + suffix,
               static_cast<double>(sum_u64(r.idle_windows)));
  }
  std::printf(
      "\nequivalence max delta over sweep: %.17g (must be exactly 0)\n",
      equivalence_delta);
  report.write();
  return equivalence_delta == 0.0 ? 0 : 1;
}

// Ablation — the burst datapath (virtio kick coalescing + NAPI polling).
//
// Sweeps the NAPI budget against message size on the three datapaths the
// burst layer touches: NAT (nested virtio/vhost), BrFusion (fused bridge,
// same virtio rings) and Hostlo (cross-VM loopback with queue reflection).
// For each point the interesting output is events per packet — how many
// discrete queue events the simulator executed per wire frame — plus the
// simulated throughput/latency so the sweep shows batching is a simulator
// optimisation, not a behaviour change: coalescing folds completion events
// while the virtio_kick / ring-work charges keep the simulated cost bill.
//
// The bench also proves the master switch: a run with batch_size = 1 and
// deliberately weird burst knobs must be bit-identical to a run with the
// default CostModel.  `batch1_equivalence_max_delta` is the largest
// absolute difference across every simulated metric of that pair and is
// gated at exactly zero in CI (tools/check_bench.py --require-zero).
#include <cmath>
#include <cstring>

#include "bench_util.hpp"

namespace {

using namespace nestv;

enum class Path { kNat, kBrFusion, kHostlo };

const char* to_string(Path p) {
  switch (p) {
    case Path::kNat: return "NAT";
    case Path::kBrFusion: return "BrFusion";
    case Path::kHostlo: return "Hostlo";
  }
  return "?";
}

/// One measured point; budget == 0 means batching off (batch_size = 1).
bench::MicroPoint batch_point(Path path, std::uint32_t budget,
                              std::uint32_t msg_bytes, std::uint64_t seed) {
  scenario::TestbedConfig config;
  if (budget > 0) {
    config.costs.batch_size = 32;
    config.costs.napi_budget = budget;
  }
  const auto rr_window = sim::milliseconds(150);
  const auto stream_window = sim::milliseconds(200);
  switch (path) {
    case Path::kNat:
      return bench::micro_point(scenario::ServerMode::kNat, msg_bytes, seed,
                                rr_window, stream_window, config);
    case Path::kBrFusion:
      return bench::micro_point(scenario::ServerMode::kBrFusion, msg_bytes,
                                seed, rr_window, stream_window, config);
    case Path::kHostlo:
      return bench::micro_point(scenario::CrossVmMode::kHostlo, msg_bytes,
                                seed, rr_window, stream_window, config);
  }
  return {};
}

double events_per_packet(const bench::MicroPoint& p) {
  return p.stats.packets
             ? static_cast<double>(p.stats.events) /
                   static_cast<double>(p.stats.packets)
             : 0.0;
}

double coalesced_pct(const bench::MicroPoint& p) {
  const double logical =
      static_cast<double>(p.stats.events + p.stats.events_coalesced);
  return logical > 0.0
             ? 100.0 * static_cast<double>(p.stats.events_coalesced) / logical
             : 0.0;
}

/// Largest absolute difference across every simulated metric of two runs
/// of the same scenario.  Zero means bit-identical simulation.
double max_metric_delta(const bench::MicroPoint& a,
                        const bench::MicroPoint& b) {
  double d = 0.0;
  d = std::max(d, std::fabs(a.throughput_mbps - b.throughput_mbps));
  d = std::max(d, std::fabs(a.latency_us - b.latency_us));
  d = std::max(d, std::fabs(a.latency_stddev_us - b.latency_stddev_us));
  auto udiff = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(x > y ? x - y : y - x);
  };
  d = std::max(d, udiff(a.transactions, b.transactions));
  d = std::max(d, udiff(a.stats.events, b.stats.events));
  d = std::max(d, udiff(a.stats.events_coalesced, b.stats.events_coalesced));
  d = std::max(d, udiff(a.stats.frames_cloned, b.stats.frames_cloned));
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nestv;
  const auto args = bench::parse_args(argc, argv);
  const auto seed = args.seed;
  const auto& sizes = bench::message_sizes();
  // budget 0 = batching off; the rest sweep the NAPI poll budget with
  // batch_size = 32 fixed.
  const std::uint32_t budgets[] = {0, 4, 16, 64};
  const Path paths[] = {Path::kNat, Path::kBrFusion, Path::kHostlo};

  struct Input {
    Path path;
    std::uint32_t budget;
    std::uint32_t size;
  };
  std::vector<Input> inputs;
  for (const auto path : paths) {
    for (const auto budget : budgets) {
      for (const auto size : sizes) inputs.push_back({path, budget, size});
    }
  }
  const auto points =
      bench::parallel_sweep(inputs, args.jobs, [seed](const Input& in) {
        return batch_point(in.path, in.budget, in.size, seed);
      });

  std::printf("ablation: burst datapath (NAPI budget x message size)\n");
  std::printf("%-9s %7s %8s | %12s %10s | %10s %10s\n", "path", "budget",
              "msg(B)", "stream Mbps", "lat us", "ev/pkt", "coal%");

  bench::JsonReport report("abl_batching", seed);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto& in = inputs[i];
    const auto& p = points[i];
    char budget_str[16];
    if (in.budget) {
      std::snprintf(budget_str, sizeof budget_str, "%u", in.budget);
    } else {
      std::strcpy(budget_str, "off");
    }
    std::printf("%-9s %7s %8u | %12.0f %10.1f | %10.2f %9.1f%%\n",
                to_string(in.path), budget_str, in.size, p.throughput_mbps,
                p.latency_us, events_per_packet(p), coalesced_pct(p));
    if ((i + 1) % sizes.size() == 0) std::printf("\n");

    if (in.size != 1280) continue;
    // Headline per (path, budget) @1280B.
    char prefix[48];
    if (in.budget) {
      std::snprintf(prefix, sizeof prefix, "%s_b%u", to_string(in.path),
                    in.budget);
    } else {
      std::snprintf(prefix, sizeof prefix, "%s_off", to_string(in.path));
    }
    report.add(std::string(prefix) + "_stream_mbps_1280B",
               p.throughput_mbps);
    report.add(std::string(prefix) + "_events_per_packet_1280B",
               events_per_packet(p));
    report.add(std::string(prefix) + "_coalesced_pct_1280B",
               coalesced_pct(p));
  }

  // Per-path summary @1280B: event reduction of the largest budget vs off.
  const std::size_t n_budgets = sizeof(budgets) / sizeof(budgets[0]);
  const std::size_t n_paths = sizeof(paths) / sizeof(paths[0]);
  std::size_t si_1280 = 0;
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    if (sizes[si] == 1280) si_1280 = si;
  }
  const std::size_t stride = n_budgets * sizes.size();
  for (std::size_t pi = 0; pi < n_paths; ++pi) {
    const auto& off = points[pi * stride + si_1280];
    const auto& b64 =
        points[pi * stride + (n_budgets - 1) * sizes.size() + si_1280];
    const double reduction =
        events_per_packet(off) > 0.0
            ? 100.0 * (1.0 - events_per_packet(b64) / events_per_packet(off))
            : 0.0;
    std::printf("%s @1280B: events/packet %.2f -> %.2f (-%.1f%%), "
                "stream %+.1f%%\n",
                to_string(paths[pi]), events_per_packet(off),
                events_per_packet(b64), reduction,
                100.0 * (b64.throughput_mbps / off.throughput_mbps - 1.0));
    report.add(std::string(to_string(paths[pi])) +
                   "_event_reduction_pct_b64_1280B",
               reduction);
    report.add(std::string(to_string(paths[pi])) +
                   "_stream_delta_pct_b64_1280B",
               100.0 * (b64.throughput_mbps / off.throughput_mbps - 1.0));
  }

  // Master-switch proof: batch_size = 1 with hostile burst knobs must be
  // bit-identical to the default CostModel on every datapath.
  double equiv_delta = 0.0;
  for (std::size_t pi = 0; pi < n_paths; ++pi) {
    const auto path = paths[pi];
    const auto& baseline = points[pi * stride + si_1280];
    scenario::TestbedConfig cfg;
    cfg.costs.batch_size = 1;
    cfg.costs.napi_budget = 3;
    cfg.costs.virtio_kick = 99999;
    bench::MicroPoint knobs;
    switch (path) {
      case Path::kNat:
        knobs = bench::micro_point(scenario::ServerMode::kNat, 1280, seed,
                                   sim::milliseconds(150),
                                   sim::milliseconds(200), cfg);
        break;
      case Path::kBrFusion:
        knobs = bench::micro_point(scenario::ServerMode::kBrFusion, 1280,
                                   seed, sim::milliseconds(150),
                                   sim::milliseconds(200), cfg);
        break;
      case Path::kHostlo:
        knobs = bench::micro_point(scenario::CrossVmMode::kHostlo, 1280,
                                   seed, sim::milliseconds(150),
                                   sim::milliseconds(200), cfg);
        break;
    }
    equiv_delta = std::max(equiv_delta, max_metric_delta(baseline, knobs));
  }
  std::printf("\nbatch_size=1 equivalence: max metric delta = %g "
              "(must be exactly 0)\n",
              equiv_delta);
  report.add("batch1_equivalence_max_delta", equiv_delta);

  bench::DatapathStats totals;
  for (const auto& p : points) totals += p.stats;
  bench::add_datapath_stats(report, totals);
  bench::record_execution(report, args, totals);
  report.write();
  return 0;
}

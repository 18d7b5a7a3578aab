// Fig 10 — "Hostlo overhead: micro-benchmark": Netperf throughput and
// latency for cross-VM intra-pod traffic under SameNode (baseline) /
// Hostlo / NAT / Overlay, across message sizes.  Paper @1024B: Hostlo
// +17.9% throughput vs NAT, -27% vs Overlay, 5.3x below SameNode; latency
// -87.3% vs NAT, -89.8% vs Overlay, ~2x SameNode, flat across sizes.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace nestv;
  const auto args = bench::parse_args(argc, argv);
  const auto seed = args.seed;
  const scenario::CrossVmMode modes[] = {
      scenario::CrossVmMode::kSameNode, scenario::CrossVmMode::kHostlo,
      scenario::CrossVmMode::kNatCrossVm, scenario::CrossVmMode::kOverlay};
  const auto& sizes = bench::message_sizes();

  struct Input {
    scenario::CrossVmMode mode;
    std::uint32_t size;
  };
  std::vector<Input> inputs;
  for (const auto mode : modes) {
    for (const auto size : sizes) inputs.push_back({mode, size});
  }
  const auto points =
      bench::parallel_sweep(inputs, args.jobs, [seed](const Input& in) {
        return bench::micro_point(in.mode, in.size, seed);
      });

  std::printf("fig 10: Hostlo micro-benchmark overhead (cross-VM pod)\n");
  std::printf("%-9s %8s | %12s | %10s %10s\n", "mode", "msg(B)",
              "stream Mbps", "lat us", "stddev");

  double tput_1024[4] = {0, 0, 0, 0};
  double lat_1024[4] = {0, 0, 0, 0};
  double hostlo_lat_min = 1e18, hostlo_lat_max = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto mode = inputs[i].mode;
    const auto size = inputs[i].size;
    const auto& p = points[i];
    const std::size_t mi = i / sizes.size();
    std::printf("%-9s %8u | %12.0f | %10.1f %10.1f\n", to_string(mode),
                size, p.throughput_mbps, p.latency_us,
                p.latency_stddev_us);
    if (size == 1024) {
      tput_1024[mi] = p.throughput_mbps;
      lat_1024[mi] = p.latency_us;
    }
    if (mode == scenario::CrossVmMode::kHostlo) {
      hostlo_lat_min = std::min(hostlo_lat_min, p.latency_us);
      hostlo_lat_max = std::max(hostlo_lat_max, p.latency_us);
    }
    if ((i + 1) % sizes.size() == 0) std::printf("\n");
  }
  // Index: 0=SameNode 1=Hostlo 2=NAT 3=Overlay.
  std::printf("@1024B throughput: Hostlo vs NAT %+.1f%% [paper +17.9%%], "
              "vs Overlay %+.1f%% [paper -27%%], SameNode/Hostlo = %.1fx "
              "[paper 5.3x]\n",
              100.0 * (tput_1024[1] / tput_1024[2] - 1.0),
              100.0 * (tput_1024[1] / tput_1024[3] - 1.0),
              tput_1024[0] / tput_1024[1]);
  std::printf("@1024B latency: Hostlo vs NAT %+.1f%% [paper -87.3%%], vs "
              "Overlay %+.1f%% [paper -89.8%%], Hostlo/SameNode = %.2fx "
              "[paper ~2x]\n",
              100.0 * (lat_1024[1] / lat_1024[2] - 1.0),
              100.0 * (lat_1024[1] / lat_1024[3] - 1.0),
              lat_1024[1] / lat_1024[0]);
  std::printf("Hostlo latency spread across sizes: %.1f .. %.1f us "
              "(paper: 'remains stable across all message sizes')\n",
              hostlo_lat_min, hostlo_lat_max);
  bench::JsonReport report("fig10_hostlo_micro", seed);
  report.add("hostlo_vs_nat_stream_pct_1024B",
             100.0 * (tput_1024[1] / tput_1024[2] - 1.0), 17.9);
  report.add("hostlo_vs_overlay_stream_pct_1024B",
             100.0 * (tput_1024[1] / tput_1024[3] - 1.0), -27.0);
  report.add("samenode_over_hostlo_stream_ratio_1024B",
             tput_1024[0] / tput_1024[1], 5.3);
  report.add("hostlo_vs_nat_latency_pct_1024B",
             100.0 * (lat_1024[1] / lat_1024[2] - 1.0), -87.3);
  report.add("hostlo_vs_overlay_latency_pct_1024B",
             100.0 * (lat_1024[1] / lat_1024[3] - 1.0), -89.8);
  report.add("hostlo_over_samenode_latency_ratio_1024B",
             lat_1024[1] / lat_1024[0], 2.0);
  bench::DatapathStats totals;
  for (const auto& p : points) totals += p.stats;
  bench::add_datapath_stats(report, totals);
  bench::record_execution(report, args, totals);
  report.write();
  return 0;
}

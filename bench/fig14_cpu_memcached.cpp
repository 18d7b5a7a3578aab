// Fig 14 — "CPU usage, Memcached" (Hostlo evaluation): client+server and
// host-side usr/sys/soft/guest breakdowns for SameNode / Hostlo / NAT /
// Overlay.  Paper: Hostlo raises client+server kernel time ~46.7% over
// SameNode, host guest-time +89.8% (two VMs instead of one), and the host
// kernel spends ~1.68 cores on behalf of the VMs (vhost) for Hostlo, NAT
// and Overlay alike.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace nestv;
  const auto seed = bench::parse_args(argc, argv).seed;
  const scenario::CrossVmMode modes[] = {
      scenario::CrossVmMode::kSameNode, scenario::CrossVmMode::kHostlo,
      scenario::CrossVmMode::kNatCrossVm, scenario::CrossVmMode::kOverlay};

  std::printf("fig 14: CPU usage, Memcached intra-pod (cores)\n");
  double guest_time[4] = {0, 0, 0, 0};
  double kworkers[4] = {0, 0, 0, 0};
  int mi = 0;
  for (const auto mode : modes) {
    scenario::TestbedConfig config;
    config.seed = seed;
    auto s = scenario::make_cross_vm(mode, 7200, config);
    const auto r = bench::run_macro(s, bench::MacroApp::kMemcached, 7200,
                                    seed, sim::milliseconds(250));
    std::printf("  %s:\n", to_string(mode));
    bench::print_cpu_rows(r);
    for (const auto& row : r.cpu) {
      if (row.account == "host") guest_time[mi] = row.guest;
      if (row.account == "host/kworkers") kworkers[mi] = row.sys;
    }
    ++mi;
    std::printf("\n");
  }
  std::printf("host guest-time: Hostlo vs SameNode %+.1f%% [paper +89.8%%, "
              "two VMs vs one]\n",
              100.0 * (guest_time[1] / guest_time[0] - 1.0));
  std::printf("host kernel on behalf of VMs (vhost & friends): "
              "Hostlo %.2f, NAT %.2f, Overlay %.2f cores [paper: ~1.68 "
              "cores, similar across the three]\n",
              kworkers[1], kworkers[2], kworkers[3]);
  bench::JsonReport report("fig14_cpu_memcached", seed);
  report.add("hostlo_vs_samenode_guest_time_pct",
             100.0 * (guest_time[1] / guest_time[0] - 1.0), 89.8);
  report.add("hostlo_kworker_cores", kworkers[1], 1.68);
  report.add("nat_kworker_cores", kworkers[2], 1.68);
  report.add("overlay_kworker_cores", kworkers[3], 1.68);
  report.write();
  return 0;
}

// Fig 15 — "CPU usage, NGINX" (Hostlo evaluation): as fig 14 with NGINX,
// where the paper reports smaller increases (client+server +17.1%, guest
// +36.9% vs SameNode) because the constant-rate load is lighter.
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace nestv;
  const auto seed = bench::parse_args(argc, argv).seed;
  const scenario::CrossVmMode modes[] = {
      scenario::CrossVmMode::kSameNode, scenario::CrossVmMode::kHostlo,
      scenario::CrossVmMode::kNatCrossVm, scenario::CrossVmMode::kOverlay};

  std::printf("fig 15: CPU usage, NGINX intra-pod (cores)\n");
  double guest_time[4] = {0, 0, 0, 0};
  int mi = 0;
  for (const auto mode : modes) {
    scenario::TestbedConfig config;
    config.seed = seed;
    auto s = scenario::make_cross_vm(mode, 7300, config);
    const auto r = bench::run_macro(s, bench::MacroApp::kNginx, 7300, seed,
                                    sim::milliseconds(250));
    std::printf("  %s:\n", to_string(mode));
    bench::print_cpu_rows(r);
    for (const auto& row : r.cpu) {
      if (row.account == "host") guest_time[mi] = row.guest;
    }
    ++mi;
    std::printf("\n");
  }
  std::printf("host guest-time: Hostlo vs SameNode %+.1f%% [paper +36.9%%]\n",
              100.0 * (guest_time[1] / guest_time[0] - 1.0));
  bench::JsonReport report("fig15_cpu_nginx", seed);
  report.add("hostlo_vs_samenode_guest_time_pct",
             100.0 * (guest_time[1] / guest_time[0] - 1.0), 36.9);
  report.write();
  return 0;
}

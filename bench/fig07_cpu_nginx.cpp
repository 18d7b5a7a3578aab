// Fig 7 — "CPU usage breakdown, NGINX": same as fig 6 with NGINX, where
// the paper reports "similar observations of higher magnitude".
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace nestv;
  const auto seed = bench::parse_args(argc, argv).seed;
  const scenario::ServerMode modes[] = {scenario::ServerMode::kNoCont,
                                        scenario::ServerMode::kNat,
                                        scenario::ServerMode::kBrFusion};
  std::printf("fig 7: CPU breakdown, NGINX (cores over the run)\n");

  double soft[3] = {0, 0, 0};
  int mi = 0;
  for (const auto mode : modes) {
    scenario::TestbedConfig config;
    config.seed = seed;
    auto s = scenario::make_single_server(mode, 80, config);
    const auto r = bench::run_macro(s, bench::MacroApp::kNginx, 80, seed,
                                    sim::milliseconds(300));
    std::printf("  %s:\n", to_string(mode));
    bench::print_cpu_rows(r);
    for (const auto& row : r.cpu) {
      if (row.account == "vm/vm1") soft[mi] = row.soft;
    }
    ++mi;
    std::printf("\n");
  }
  if (soft[1] > 0) {
    std::printf("VM softirq: BrFusion vs NAT = %+.1f%% (paper: large cut)\n",
                100.0 * (soft[2] / soft[1] - 1.0));
  }
  bench::JsonReport report("fig07_cpu_nginx", seed);
  report.add("vm_softirq_cores_nat", soft[1]);
  report.add("vm_softirq_cores_brfusion", soft[2]);
  if (soft[1] > 0) {
    report.add("brfusion_vs_nat_softirq_pct",
               100.0 * (soft[2] / soft[1] - 1.0));
  }
  report.write();
  return 0;
}

// Fig 6 — "CPU usage breakdown, Kafka": usr/sys/soft/guest cores at the
// VM level (6b) and for the application inside the VM (6a), under
// NoCont / NAT / BrFusion.  The paper's key observation: BrFusion cuts the
// guest's softirq time by ~67% versus NAT (the removed netfilter hooks).
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace nestv;
  const auto seed = bench::parse_args(argc, argv).seed;
  const scenario::ServerMode modes[] = {scenario::ServerMode::kNoCont,
                                        scenario::ServerMode::kNat,
                                        scenario::ServerMode::kBrFusion};
  std::printf("fig 6: CPU breakdown, Kafka (cores over the run)\n");

  double soft[3] = {0, 0, 0};
  int mi = 0;
  for (const auto mode : modes) {
    scenario::TestbedConfig config;
    config.seed = seed;
    auto s = scenario::make_single_server(mode, 9092, config);
    const auto r = bench::run_macro(s, bench::MacroApp::kKafka, 9092, seed,
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
    std::printf(
        "VM softirq: BrFusion vs NAT = %+.1f%% (paper: -67%% of the "
        "soft-interrupt time)\n",
        100.0 * (soft[2] / soft[1] - 1.0));
  }
  bench::JsonReport report("fig06_cpu_kafka", seed);
  report.add("vm_softirq_cores_nat", soft[1]);
  report.add("vm_softirq_cores_brfusion", soft[2]);
  if (soft[1] > 0) {
    report.add("brfusion_vs_nat_softirq_pct",
               100.0 * (soft[2] / soft[1] - 1.0), -67.0);
  }
  report.write();
  return 0;
}

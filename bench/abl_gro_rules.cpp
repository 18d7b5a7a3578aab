// Ablation — the two mechanisms behind fig 2, isolated:
//   (a) GRO at the receiving pod: without it, every MTU chunk of the
//       resegmented NAT path pays full per-packet protocol costs;
//   (b) standing netfilter rules: the per-packet chain-scan tax that the
//       nested layer pays once per MTU packet in guest softirq.
// Each is swept independently on the NAT scenario at 1280B.
#include <cstdio>

#include "bench_util.hpp"

namespace {

using namespace nestv;

double nat_stream(std::uint64_t seed, bool gro, int standing_rules) {
  scenario::TestbedConfig config;
  config.seed = seed;
  config.costs.nf_standing_rules = standing_rules;
  auto s = scenario::make_single_server(scenario::ServerMode::kNat, 5001,
                                        config);
  if (!gro) s.server.stack->set_gro(false);
  workload::Netperf np(s.bed->engine(), s.client, s.server, 5001);
  return np.run_tcp_stream(1280, sim::milliseconds(200)).throughput_mbps;
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = nestv::bench::parse_args(argc, argv).seed;
  std::printf("ablation: mechanisms behind the fig 2 degradation (NAT "
              "stream @1280B)\n\n");

  std::printf("(a) pod-side GRO:\n");
  const double with_gro = nat_stream(seed, true, 6);
  const double without_gro = nat_stream(seed, false, 6);
  std::printf("    gro on : %7.0f Mbps\n", with_gro);
  std::printf("    gro off: %7.0f Mbps (%.1f%%)\n", without_gro,
              100.0 * (without_gro / with_gro - 1.0));

  std::printf("\n(b) standing netfilter rules (guest chains):\n");
  double mbps_0 = 0, mbps_64 = 0;
  for (const int rules : {0, 6, 16, 32, 64}) {
    const double mbps = nat_stream(seed, true, rules);
    std::printf("    %3d rules: %7.0f Mbps\n", rules, mbps);
    if (rules == 0) mbps_0 = mbps;
    if (rules == 64) mbps_64 = mbps;
  }
  std::printf("\nexpectation: throughput falls monotonically with rule "
              "count; GRO-off costs the pod the coalescing win.\n");
  nestv::bench::JsonReport report("abl_gro_rules", seed);
  report.add("nat_stream_mbps_gro_on", with_gro);
  report.add("nat_stream_mbps_gro_off", without_gro);
  report.add("gro_off_delta_pct", 100.0 * (without_gro / with_gro - 1.0));
  report.add("nat_stream_mbps_0_rules", mbps_0);
  report.add("nat_stream_mbps_64_rules", mbps_64);
  report.add("rules_64_vs_0_delta_pct", 100.0 * (mbps_64 / mbps_0 - 1.0));
  report.write();
  return 0;
}

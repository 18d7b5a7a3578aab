// Ablation — vhost acceleration vs QEMU-userspace virtio emulation.
//
// Section 5.1 notes every VM NIC uses "Vhost in their backend"; section
// 5.3.4 attributes the ~1.68 host-kernel cores to it.  This bench runs the
// NoCont Netperf pair with and without vhost to quantify what that backend
// choice is worth on this datapath.
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace nestv;
  const auto seed = bench::parse_args(argc, argv).seed;

  std::printf("ablation: vhost vs QEMU-emulated virtio (NoCont topology)\n");
  std::printf("%-12s | %12s | %10s\n", "backend", "stream Mbps", "rr lat us");

  double tput[2] = {0, 0}, lat[2] = {0, 0};
  int i = 0;
  for (const bool use_vhost : {true, false}) {
    scenario::TestbedConfig config;
    config.seed = seed;
    config.use_vhost = use_vhost;
    auto s = scenario::make_single_server(scenario::ServerMode::kNoCont,
                                          5001, config);
    workload::Netperf np(s.bed->engine(), s.client, s.server, 5001);
    const auto rr = np.run_udp_rr(1280, sim::milliseconds(150));
    const auto st = np.run_tcp_stream(1280, sim::milliseconds(200));
    std::printf("%-12s | %12.0f | %10.1f\n",
                use_vhost ? "vhost" : "qemu-emul", st.throughput_mbps,
                rr.mean_latency_us);
    tput[i] = st.throughput_mbps;
    lat[i] = rr.mean_latency_us;
    ++i;
  }
  std::printf("\nvhost gain: %.2fx throughput, %.1f%% lower latency\n",
              tput[0] / tput[1], 100.0 * (1.0 - lat[0] / lat[1]));
  bench::JsonReport report("abl_vhost", seed);
  report.add("vhost_stream_mbps_1280B", tput[0]);
  report.add("qemu_stream_mbps_1280B", tput[1]);
  report.add("vhost_throughput_gain_ratio", tput[0] / tput[1]);
  report.add("vhost_latency_reduction_pct",
             100.0 * (1.0 - lat[0] / lat[1]));
  report.write();
  return 0;
}

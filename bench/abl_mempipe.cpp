// Ablation — Hostlo vs a MemPipe-style shared-memory localhost.
//
// Section 4.3.2 names MemPipe [41] "the best-suited solution" for
// transparent cross-VM shared memory, but notes that "leveraging this
// solution to transparently replace a pod's localhost interface would also
// be a challenge" and that "there is no concept of isolation".  This bench
// quantifies the trade: MemPipe avoids the host-kernel reflect entirely
// (faster), at the price of point-to-point-only semantics and no
// multiplexing/isolation — which is exactly why the paper built Hostlo.
#include <cstdio>

#include "bench_util.hpp"
#include "vmm/mempipe.hpp"

namespace {

using namespace nestv;

struct PairResult {
  double rr_us;
  double stream_mbps;
  double host_module_cores;
};

PairResult run_mempipe(std::uint64_t seed) {
  scenario::TestbedConfig config;
  config.seed = seed;
  scenario::Testbed bed(config);
  vmm::Vm& vm1 = bed.create_vm_with_uplink("vm1");
  vmm::Vm& vm2 = bed.create_vm_with_uplink("vm2");
  vmm::MemPipe pipe(vm1, vm2);

  container::Pod& pod = bed.create_pod("pod");
  auto& fa = pod.add_fragment(vm1);
  auto& fb = pod.add_fragment(vm2);
  const net::Ipv4Cidr subnet(net::Ipv4Address(169, 254, 210, 0), 24);
  fa.stack->add_interface(pipe.endpoint_a(),
                          {"mp0", bed.machine().allocate_mac(),
                           subnet.host(1), subnet, 1500, 1448});
  fb.stack->add_interface(pipe.endpoint_b(),
                          {"mp0", bed.machine().allocate_mac(),
                           subnet.host(2), subnet, 1500, 1448});

  scenario::Endpoint a, b;
  a.stack = fa.stack.get();
  a.local_ip = subnet.host(1);
  a.service_ip = subnet.host(2);
  a.app = &vm1.make_app_core("client");
  b.stack = fb.stack.get();
  b.local_ip = subnet.host(2);
  b.service_ip = subnet.host(2);
  b.app = &vm2.make_app_core("server");

  bed.machine().ledger().reset_all();
  const auto t0 = bed.engine().now();
  workload::Netperf np(bed.engine(), a, b, 6001);
  const auto rr = np.run_udp_rr(1024, sim::milliseconds(150));
  const auto st = np.run_tcp_stream(1024, sim::milliseconds(200));
  const auto wall = bed.engine().now() - t0;
  const auto* kworkers = bed.machine().ledger().find("host/kworkers");
  return {rr.mean_latency_us, st.throughput_mbps,
          kworkers != nullptr
              ? kworkers->cores(sim::CpuCategory::kSys, wall)
              : 0.0};
}

PairResult run_hostlo(std::uint64_t seed) {
  scenario::TestbedConfig config;
  config.seed = seed;
  auto s = scenario::make_cross_vm(scenario::CrossVmMode::kHostlo, 6001,
                                   config);
  s.bed->machine().ledger().reset_all();
  const auto t0 = s.bed->engine().now();
  workload::Netperf np(s.bed->engine(), s.client, s.server, 6001);
  const auto rr = np.run_udp_rr(1024, sim::milliseconds(150));
  const auto st = np.run_tcp_stream(1024, sim::milliseconds(200));
  const auto wall = s.bed->engine().now() - t0;
  const auto* kworkers = s.bed->machine().ledger().find("host/kworkers");
  return {rr.mean_latency_us, st.throughput_mbps,
          kworkers != nullptr
              ? kworkers->cores(sim::CpuCategory::kSys, wall)
              : 0.0};
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = nestv::bench::parse_args(argc, argv).seed;
  std::printf("ablation: Hostlo vs MemPipe-style shared-memory localhost "
              "@1024B\n");
  std::printf("%-9s | %10s | %12s | %16s\n", "transport", "rr lat us",
              "stream Mbps", "host-kernel cores");
  const auto hostlo = run_hostlo(seed);
  const auto mempipe = run_mempipe(seed);
  std::printf("%-9s | %10.1f | %12.0f | %16.3f\n", "hostlo", hostlo.rr_us,
              hostlo.stream_mbps, hostlo.host_module_cores);
  std::printf("%-9s | %10.1f | %12.0f | %16.3f\n", "mempipe", mempipe.rr_us,
              mempipe.stream_mbps, mempipe.host_module_cores);
  std::printf(
      "\nmempipe vs hostlo: %.1f%% latency, %.2fx throughput, host-kernel "
      "involvement %s\n",
      100.0 * (mempipe.rr_us / hostlo.rr_us - 1.0),
      mempipe.stream_mbps / hostlo.stream_mbps,
      mempipe.host_module_cores < 0.001 ? "none (guest-to-guest pages)"
                                        : "present");
  std::printf("the price: point-to-point only, no queue multiplexing, no "
              "isolation (section 4.3.2's objection).\n");
  nestv::bench::JsonReport report("abl_mempipe", seed);
  report.add("hostlo_rr_latency_us_1024B", hostlo.rr_us);
  report.add("mempipe_rr_latency_us_1024B", mempipe.rr_us);
  report.add("mempipe_vs_hostlo_latency_pct",
             100.0 * (mempipe.rr_us / hostlo.rr_us - 1.0));
  report.add("mempipe_over_hostlo_stream_ratio",
             mempipe.stream_mbps / hostlo.stream_mbps);
  report.add("mempipe_host_kernel_cores", mempipe.host_module_cores);
  report.write();
  return 0;
}

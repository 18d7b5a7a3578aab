// Ablation — Hostlo reflect fan-out vs number of served VMs.
//
// Section 4.2's design reflects every frame to *all* queues, so the host
// kernel module's per-packet work grows linearly with the number of VMs a
// pod spans.  This bench sweeps the queue count and reports the UDP_RR
// latency and host-module CPU per transaction between a fixed pair of
// endpoints — the scalability cost of the broadcast design.
#include <cstdio>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace nestv;
  const auto seed = bench::parse_args(argc, argv).seed;

  std::printf("ablation: Hostlo reflect cost vs served-VM count\n");
  std::printf("%6s | %10s | %14s | %14s\n", "VMs", "rr lat us",
              "host-mod cores", "drops@endpoints");

  double lat_first = 0, lat_last = 0, cores_first = 0, cores_last = 0;
  for (const int vms : {2, 3, 4, 6, 8}) {
    scenario::TestbedConfig config;
    config.seed = seed;
    scenario::Testbed bed(config);

    container::Pod& pod = bed.create_pod("pod");
    std::vector<vmm::Vm*> vm_ptrs;
    for (int i = 0; i < vms; ++i) {
      vmm::Vm& vm =
          bed.create_vm_with_uplink("vm" + std::to_string(i + 1));
      pod.add_fragment(vm);
      vm_ptrs.push_back(&vm);
    }
    std::vector<core::HostloCni::EndpointInfo> eps;
    bed.hostlo_cni().attach_pod(
        pod, [&](std::vector<core::HostloCni::EndpointInfo> e) {
          eps = std::move(e);
        });
    bed.run_until_ready([&eps] { return !eps.empty(); });

    scenario::Endpoint a, b;
    a.stack = eps[0].fragment->stack.get();
    a.local_ip = eps[0].ip;
    a.service_ip = eps[1].ip;
    a.app = &vm_ptrs[0]->make_app_core("client");
    b.stack = eps[1].fragment->stack.get();
    b.local_ip = eps[1].ip;
    b.service_ip = eps[1].ip;
    b.app = &vm_ptrs[1]->make_app_core("server");

    bed.machine().ledger().reset_all();
    const auto t0 = bed.engine().now();
    workload::Netperf np(bed.engine(), a, b, 6001);
    const auto rr = np.run_udp_rr(256, sim::milliseconds(100));
    const auto wall = bed.engine().now() - t0;

    const auto* kworkers = bed.machine().ledger().find("host/kworkers");
    // Frames reflected to the N-2 uninvolved endpoints are MAC-filtered
    // and dropped in their guests: count them.
    std::uint64_t bystander_drops = 0;
    for (int i = 2; i < vms; ++i) {
      bystander_drops +=
          pod.fragments()[static_cast<std::size_t>(i)]->stack->packets_dropped();
    }
    const double cores = kworkers != nullptr
                             ? kworkers->cores(sim::CpuCategory::kSys, wall)
                             : 0.0;
    std::printf("%6d | %10.1f | %14.3f | %14llu\n", vms, rr.mean_latency_us,
                cores, static_cast<unsigned long long>(bystander_drops));
    if (vms == 2) {
      lat_first = rr.mean_latency_us;
      cores_first = cores;
    }
    if (vms == 8) {
      lat_last = rr.mean_latency_us;
      cores_last = cores;
    }
  }
  std::printf("\nexpectation: latency and host-module CPU grow with the "
              "fan-out; bystander guests pay the MAC-filter cost.\n");
  bench::JsonReport report("abl_hostlo_queues", seed);
  report.add("rr_latency_us_2vms", lat_first);
  report.add("rr_latency_us_8vms", lat_last);
  report.add("latency_growth_ratio_8_over_2", lat_last / lat_first);
  report.add("host_module_cores_2vms", cores_first);
  report.add("host_module_cores_8vms", cores_last);
  report.write();
  return 0;
}

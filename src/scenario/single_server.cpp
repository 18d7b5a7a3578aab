#include "scenario/single_server.hpp"

#include <cassert>

#include "scenario/deploy.hpp"

namespace nestv::scenario {

const char* to_string(ServerMode m) {
  switch (m) {
    case ServerMode::kNoCont: return "NoCont";
    case ServerMode::kNat: return "NAT";
    case ServerMode::kNatFlowCache: return "NAT+FlowCache";
    case ServerMode::kBrFusion: return "BrFusion";
  }
  return "?";
}

SingleServer make_single_server(ServerMode mode, std::uint16_t service_port,
                                TestbedConfig config) {
  SingleServer s;
  s.bed = std::make_unique<Testbed>(config);
  Testbed& bed = *s.bed;
  s.client = bed.host_client("client");

  if (mode == ServerMode::kNoCont) {
    vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
    s.vm = &vm;
    const net::Ipv4Address ip =
        vm.stack().iface_ip(vm.stack().ifindex_of("eth0"));
    s.server = guest_endpoint(vm, vm.stack(), &vm.make_app_core("server"),
                              ip, ip);
    return s;
  }

  PodSpec spec;
  spec.mode = mode == ServerMode::kNat
                  ? PodMode::kNat
                  : (mode == ServerMode::kNatFlowCache ? PodMode::kNatFlowCache
                                                       : PodMode::kBrFusion);
  spec.port = service_port;
  spec.srv_vm = "vm1";
  spec.srv_pod = "pod1";
  spec.srv = "server";
  const auto pod = deploy_pod(bed, std::move(spec), wait_on(bed));
  assert(pod->srv_ctr->state() == container::ContainerState::kRunning);
  s.vm = pod->srv_vm;
  s.pod = pod->srv_frag->pod;
  s.srv_container = pod->srv_ctr;
  s.boot_duration = pod->srv_boot;
  s.server = pod->server();
  return s;
}

}  // namespace nestv::scenario

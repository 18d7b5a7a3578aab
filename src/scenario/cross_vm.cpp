#include "scenario/cross_vm.hpp"

#include "scenario/deploy.hpp"

namespace nestv::scenario {

const char* to_string(CrossVmMode m) {
  switch (m) {
    case CrossVmMode::kSameNode: return "SameNode";
    case CrossVmMode::kHostlo: return "Hostlo";
    case CrossVmMode::kNatCrossVm: return "NAT";
    case CrossVmMode::kOverlay: return "Overlay";
  }
  return "?";
}

CrossVm make_cross_vm(CrossVmMode mode, std::uint16_t service_port,
                      TestbedConfig config) {
  CrossVm s;
  s.bed = std::make_unique<Testbed>(config);
  PodSpec spec;
  spec.port = service_port;
  spec.cli = "client";
  spec.srv = "server";
  switch (mode) {
    case CrossVmMode::kSameNode:
      // One pod in one VM: the server joins the client's namespace and
      // the two talk over the pod's localhost.
      spec.srv_vm = "vm1";
      spec.srv_pod = "pod1";
      break;
    case CrossVmMode::kHostlo:
      // One pod disaggregated over two VMs.
      spec.mode = PodMode::kHostlo;
      spec.cli_vm = "vm1";
      spec.srv_vm = "vm2";
      spec.srv_pod = "pod1";
      break;
    case CrossVmMode::kNatCrossVm:
    case CrossVmMode::kOverlay:
      spec.mode = mode == CrossVmMode::kOverlay ? PodMode::kOverlay
                                                : PodMode::kNat;
      spec.cli_vm = "vm1";
      spec.srv_vm = "vm2";
      spec.cli_pod = "pod-a";
      spec.srv_pod = "pod-b";
      break;
  }
  const bool one_pod = spec.cli_pod.empty();
  const auto pod = deploy_pod(*s.bed, std::move(spec), wait_on(*s.bed));
  s.client = pod->client();
  s.server = pod->server();
  s.overlay = std::move(pod->overlay);
  if (one_pod) s.pod = pod->srv_frag->pod;
  return s;
}

}  // namespace nestv::scenario

// scenario/deploy: every pod mode deploys and carries a UDP round trip,
// both synchronously on a plain Testbed and under a 2-shard conductor, and
// the server's dial address follows the mode's rule:
//   NAT      - the server VM's eth0 (DNAT publishes the port there);
//   BrFusion - the pod's own eth0 (the pod NIC sits on the host bridge);
//   Hostlo   - the server fragment's Hostlo endpoint (eps[1]);
//   Overlay  - the server container's ov0.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "scenario/deploy.hpp"
#include "vmm/fabric.hpp"

namespace nestv::scenario {
namespace {

constexpr std::uint16_t kSrvPort = 7000;
constexpr std::uint16_t kCliPort = 40000;

PodSpec spec_for(PodMode mode) {
  PodSpec spec;
  spec.mode = mode;
  spec.port = kSrvPort;
  spec.srv_vm = "vm-srv";
  spec.srv_pod = "pod";
  spec.srv = "srv";
  if (mode == PodMode::kHostlo || mode == PodMode::kOverlay) {
    spec.cli_vm = "vm-cli";
    spec.cli = "cli";
  }
  return spec;
}

net::Ipv4Address iface(net::StackBackend& stack, const char* name) {
  return stack.iface_ip(stack.ifindex_of(name));
}

/// The address the mode's rule says a peer dials.
net::Ipv4Address expected_service_ip(const PodDeployment& d) {
  switch (d.spec.mode) {
    case PodMode::kNat:
    case PodMode::kNatFlowCache: return iface(d.srv_vm->stack(), "eth0");
    case PodMode::kBrFusion: return iface(*d.srv_frag->stack, "eth0");
    case PodMode::kHostlo: return d.eps.at(1).ip;
    case PodMode::kOverlay: return iface(*d.srv_frag->stack, "ov0");
  }
  return {};
}

/// Binds an echo on the server and sends one datagram from `client`;
/// the returned flag flips when the reply lands.
std::shared_ptr<bool> start_round_trip(const Endpoint& client,
                                       const Endpoint& server) {
  bind_udp_echo(server, kSrvPort);
  auto replied = std::make_shared<bool>(false);
  client.stack->udp_bind(kCliPort, client.app,
                         [replied](net::StackBackend::UdpDelivery&) {
                           *replied = true;
                         });
  client.stack->udp_send(client.local_ip, kCliPort, server.service_ip,
                         kSrvPort, 128, client.app);
  return replied;
}

class DeployModes : public ::testing::TestWithParam<PodMode> {};

TEST_P(DeployModes, RoundTripOnTestbed) {
  Testbed bed;
  const auto pod = deploy_pod(bed, spec_for(GetParam()), wait_on(bed));
  ASSERT_TRUE(pod->ready());
  const Endpoint server = pod->server();
  EXPECT_EQ(server.service_ip, expected_service_ip(*pod));
  if (GetParam() == PodMode::kBrFusion) {
    // The fused pod NIC hangs off the host bridge, so it is addressed
    // from the host bridge's subnet.
    EXPECT_TRUE(
        bed.machine().config().bridge_subnet.contains(server.service_ip));
  }
  if (GetParam() == PodMode::kHostlo) {
    // One pod split across two VMs, each fragment on a Hostlo endpoint.
    EXPECT_NE(pod->srv_vm, pod->cli_vm);
    EXPECT_GE(pod->srv_frag->stack->ifindex_of("hostlo0"), 1);
    EXPECT_GE(pod->cli_frag->stack->ifindex_of("hostlo0"), 1);
  }
  const Endpoint client =
      pod->is_pair() ? pod->client() : bed.host_client("client");
  const auto replied = start_round_trip(client, server);
  bed.run_for(sim::milliseconds(50));
  EXPECT_TRUE(*replied);
}

TEST_P(DeployModes, RoundTripOnConductor) {
  const sim::CostModel costs;
  sim::ShardedConductor conductor(
      2, vmm::HierarchicalFabric::min_link_latency(costs), 1);
  // Declared before the machines: their host stacks point into its ports.
  vmm::HierarchicalFabric fabric(conductor.shard(0), costs, {}, &conductor);
  const auto beds = make_machines(conductor, 2, 7, costs, [](int i) {
    return net::Ipv4Cidr(net::Ipv4Address(192, 168, std::uint8_t(100 + i), 0),
                         24);
  });
  for (const auto& bed : beds) fabric.attach(bed->machine());

  // The pod lives on machine 1; a server pod is dialled from a host
  // process on machine 0, across the fabric and the shard boundary.
  const auto pod = deploy_pod(*beds[1], spec_for(GetParam()));
  EXPECT_FALSE(pod->ready());
  ASSERT_TRUE(run_until_deployed(
      conductor, [&pod] { return pod->ready(); }, sim::seconds(30)));
  const Endpoint server = pod->server();
  EXPECT_EQ(server.service_ip, expected_service_ip(*pod));
  const Endpoint client =
      pod->is_pair() ? pod->client() : beds[0]->host_client("client");
  const auto replied = start_round_trip(client, server);
  conductor.run_until(conductor.now() + sim::milliseconds(50));
  EXPECT_TRUE(*replied);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, DeployModes,
    ::testing::Values(PodMode::kNat, PodMode::kNatFlowCache,
                      PodMode::kBrFusion, PodMode::kHostlo,
                      PodMode::kOverlay),
    [](const ::testing::TestParamInfo<PodMode>& info) -> std::string {
      switch (info.param) {
        case PodMode::kNat: return "Nat";
        case PodMode::kNatFlowCache: return "NatFlowCache";
        case PodMode::kBrFusion: return "BrFusion";
        case PodMode::kHostlo: return "Hostlo";
        case PodMode::kOverlay: return "Overlay";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace nestv::scenario

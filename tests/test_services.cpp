// Tests for ClusterIP services (kube-proxy layer) and their interaction
// with the paper's pod networking modes.
#include <gtest/gtest.h>

#include <set>

#include "core/service.hpp"
#include "scenario/testbed.hpp"

namespace nestv {
namespace {

struct ServiceFixture : ::testing::Test {
  scenario::Testbed bed{scenario::TestbedConfig{.seed = 9}};
  vmm::Vm& vm1 = bed.create_vm_with_uplink("vm1");
  vmm::Vm& vm2 = bed.create_vm_with_uplink("vm2");
  core::ServiceRegistry services;

  container::Pod::Fragment& brfusion_pod(vmm::Vm& vm,
                                         const std::string& name) {
    container::Pod& pod = bed.create_pod(name);
    auto& frag = pod.add_fragment(vm);
    bool ready = false;
    bed.runtime_for(vm).create_container(
        frag, name, bed.brfusion_cni().attach_fn({}),
        [&ready](container::Container&, sim::Duration) { ready = true; });
    bed.run_until_ready([&ready] { return ready; });
    return frag;
  }
};

TEST_F(ServiceFixture, AllocatesClusterIpsFromServiceCidr) {
  services.add_node(vm1);
  const auto& a = services.expose("svc-a", 80, {{net::Ipv4Address(1, 1, 1, 1), 80}});
  const auto& b = services.expose("svc-b", 80, {{net::Ipv4Address(1, 1, 1, 2), 80}});
  const net::Ipv4Cidr cidr(net::Ipv4Address(10, 96, 0, 0), 16);
  EXPECT_TRUE(cidr.contains(a.cluster_ip));
  EXPECT_TRUE(cidr.contains(b.cluster_ip));
  EXPECT_NE(a.cluster_ip, b.cluster_ip);
}

TEST_F(ServiceFixture, ReExposeKeepsClusterIp) {
  services.add_node(vm1);
  const auto ip1 = services.expose("svc", 80, {{net::Ipv4Address(1, 1, 1, 1), 80}}).cluster_ip;
  const auto ip2 = services.expose("svc", 81, {{net::Ipv4Address(1, 1, 1, 2), 81}}).cluster_ip;
  EXPECT_EQ(ip1, ip2);
  EXPECT_EQ(services.service_count(), 1u);
}

TEST_F(ServiceFixture, BrFusionBackendsReachableViaServiceVip) {
  // Two BrFusion pods (one per VM) behind one ClusterIP, dialed from a
  // third party: possible *because* BrFusion pod addresses live on the
  // host-level network — no overlay needed.
  auto& frag_a = brfusion_pod(vm1, "backend-a");
  auto& frag_b = brfusion_pod(vm2, "backend-b");
  const auto ip_a = frag_a.stack->iface_ip(frag_a.stack->ifindex_of("eth0"));
  const auto ip_b = frag_b.stack->iface_ip(frag_b.stack->ifindex_of("eth0"));

  // A client VM whose kube-proxy knows the service.
  vmm::Vm& client_vm = bed.create_vm_with_uplink("vm3");
  services.add_node(client_vm);
  const auto& svc =
      services.expose("web", 8080, {{ip_a, 8080}, {ip_b, 8080}});

  int got_a = 0, got_b = 0;
  frag_a.stack->udp_bind(
      8080, nullptr, [&](const net::NetworkStack::UdpDelivery& d) {
        ++got_a;
        frag_a.stack->udp_send(ip_a, 8080, d.src_ip, d.src_port, 8, nullptr);
      });
  frag_b.stack->udp_bind(
      8080, nullptr, [&](const net::NetworkStack::UdpDelivery& d) {
        ++got_b;
        frag_b.stack->udp_send(ip_b, 8080, d.src_ip, d.src_port, 8, nullptr);
      });

  int replies = 0;
  const auto client_ip =
      client_vm.stack().iface_ip(client_vm.stack().ifindex_of("eth0"));
  client_vm.stack().udp_bind(
      5000, nullptr,
      [&](const net::NetworkStack::UdpDelivery&) { ++replies; });
  // Distinct source ports => distinct flows => round-robin across backends.
  for (std::uint16_t i = 0; i < 6; ++i) {
    client_vm.stack().udp_send(client_ip, 5000, svc.cluster_ip, 8080, 32,
                               nullptr);
    bed.run_for(sim::milliseconds(2));
  }
  bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(got_a + got_b, 6);
  EXPECT_EQ(replies, 6);  // replies un-DNAT back to the VIP flow
}

TEST_F(ServiceFixture, RoundRobinSpreadsNewFlows) {
  auto& frag_a = brfusion_pod(vm1, "a");
  auto& frag_b = brfusion_pod(vm2, "b");
  const auto ip_a = frag_a.stack->iface_ip(frag_a.stack->ifindex_of("eth0"));
  const auto ip_b = frag_b.stack->iface_ip(frag_b.stack->ifindex_of("eth0"));
  vmm::Vm& client_vm = bed.create_vm_with_uplink("vm3");
  services.add_node(client_vm);
  const auto& svc = services.expose("rr", 80, {{ip_a, 80}, {ip_b, 80}});

  int got_a = 0, got_b = 0;
  frag_a.stack->udp_bind(80, nullptr,
                         [&](const net::NetworkStack::UdpDelivery&) { ++got_a; });
  frag_b.stack->udp_bind(80, nullptr,
                         [&](const net::NetworkStack::UdpDelivery&) { ++got_b; });
  const auto client_ip =
      client_vm.stack().iface_ip(client_vm.stack().ifindex_of("eth0"));
  for (std::uint16_t i = 0; i < 10; ++i) {
    // Fresh source port per datagram -> each is a new conntrack flow.
    client_vm.stack().udp_send(client_ip,
                               static_cast<std::uint16_t>(6000 + i),
                               svc.cluster_ip, 80, 16, nullptr);
    bed.run_for(sim::milliseconds(2));
  }
  EXPECT_EQ(got_a, 5);
  EXPECT_EQ(got_b, 5);
}

TEST_F(ServiceFixture, FlowAffinityPinsBackend) {
  auto& frag_a = brfusion_pod(vm1, "a");
  auto& frag_b = brfusion_pod(vm2, "b");
  const auto ip_a = frag_a.stack->iface_ip(frag_a.stack->ifindex_of("eth0"));
  const auto ip_b = frag_b.stack->iface_ip(frag_b.stack->ifindex_of("eth0"));
  vmm::Vm& client_vm = bed.create_vm_with_uplink("vm3");
  services.add_node(client_vm);
  const auto& svc = services.expose("aff", 80, {{ip_a, 80}, {ip_b, 80}});

  std::set<int> hit;
  frag_a.stack->udp_bind(80, nullptr,
                         [&](const net::NetworkStack::UdpDelivery&) { hit.insert(1); });
  frag_b.stack->udp_bind(80, nullptr,
                         [&](const net::NetworkStack::UdpDelivery&) { hit.insert(2); });
  const auto client_ip =
      client_vm.stack().iface_ip(client_vm.stack().ifindex_of("eth0"));
  // Same 5-tuple every time: conntrack must pin a single backend.
  for (int i = 0; i < 8; ++i) {
    client_vm.stack().udp_send(client_ip, 7000, svc.cluster_ip, 80, 16,
                               nullptr);
    bed.run_for(sim::milliseconds(2));
  }
  EXPECT_EQ(hit.size(), 1u);
}

TEST_F(ServiceFixture, AddBackendReprogramsNodes) {
  auto& frag_a = brfusion_pod(vm1, "a");
  const auto ip_a = frag_a.stack->iface_ip(frag_a.stack->ifindex_of("eth0"));
  vmm::Vm& client_vm = bed.create_vm_with_uplink("vm3");
  services.add_node(client_vm);
  services.expose("grow", 80, {{ip_a, 80}});

  auto& frag_b = brfusion_pod(vm2, "b");
  const auto ip_b = frag_b.stack->iface_ip(frag_b.stack->ifindex_of("eth0"));
  services.add_backend("grow", {ip_b, 80});
  ASSERT_NE(services.find("grow"), nullptr);
  EXPECT_EQ(services.find("grow")->backends.size(), 2u);

  // New flows can now land on b.
  int got_b = 0;
  frag_b.stack->udp_bind(80, nullptr,
                         [&](const net::NetworkStack::UdpDelivery&) { ++got_b; });
  frag_a.stack->udp_bind(80, nullptr,
                         [](const net::NetworkStack::UdpDelivery&) {});
  const auto client_ip =
      client_vm.stack().iface_ip(client_vm.stack().ifindex_of("eth0"));
  for (std::uint16_t i = 0; i < 4; ++i) {
    client_vm.stack().udp_send(client_ip,
                               static_cast<std::uint16_t>(8000 + i),
                               services.find("grow")->cluster_ip, 80, 16,
                               nullptr);
    bed.run_for(sim::milliseconds(2));
  }
  EXPECT_GT(got_b, 0);
}

TEST_F(ServiceFixture, BridgeNatBackendOnOtherVmIsUnreachable) {
  // The section 2 problem, demonstrated: a bridge+NAT pod's address is
  // VM-local (172.17.0.0/16 exists independently in every VM), so a
  // service endpoint on another VM cannot be reached without an overlay.
  container::Pod& pod = bed.create_pod("natpod");
  auto& frag = pod.add_fragment(vm1);
  bool ready = false;
  bed.runtime_for(vm1).create_container(
      frag, "c", bed.nat_cni().attach_fn({}),
      [&ready](container::Container&, sim::Duration) { ready = true; });
  bed.run_until_ready([&ready] { return ready; });
  const auto pod_ip = frag.stack->iface_ip(frag.stack->ifindex_of("eth0"));

  vmm::Vm& client_vm = bed.create_vm_with_uplink("vm3");
  services.add_node(client_vm);
  const auto& svc = services.expose("broken", 80, {{pod_ip, 80}});

  int got = 0;
  frag.stack->udp_bind(80, nullptr,
                       [&](const net::NetworkStack::UdpDelivery&) { ++got; });
  const auto client_ip =
      client_vm.stack().iface_ip(client_vm.stack().ifindex_of("eth0"));
  client_vm.stack().udp_send(client_ip, 9000, svc.cluster_ip, 80, 16,
                             nullptr);
  bed.run_for(sim::milliseconds(20));
  EXPECT_EQ(got, 0);  // 172.17.0.x is not routable from vm3
}

}  // namespace
}  // namespace nestv

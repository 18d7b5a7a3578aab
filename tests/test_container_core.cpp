// Tests for the container substrate and the core contribution layer:
// pods, runtime boot flow, GuestDockerNetwork, the three CNI plugins and
// the orchestrator<->VMM protocol.
#include <gtest/gtest.h>

#include "container/pod.hpp"
#include "container/runtime.hpp"
#include "core/cni.hpp"
#include "core/docker_net.hpp"
#include "core/protocol.hpp"
#include "scenario/testbed.hpp"

namespace nestv {
namespace {

struct CoreFixture : ::testing::Test {
  scenario::Testbed bed{scenario::TestbedConfig{.seed = 7}};

  container::Container* boot(container::Pod::Fragment& frag,
                             container::Runtime::AttachFn attach,
                             const std::string& name = "c") {
    container::Container* out = nullptr;
    bed.runtime_for(*frag.vm).create_container(
        frag, name, std::move(attach),
        [&out](container::Container& c, sim::Duration) { out = &c; });
    bed.run_until_ready([&out] { return out != nullptr; });
    return out;
  }
};

// ---- pod / container basics ---------------------------------------------------

TEST_F(CoreFixture, PodFragmentsHaveOwnNamespaces) {
  vmm::Vm& vm1 = bed.create_vm_with_uplink("vm1");
  vmm::Vm& vm2 = bed.create_vm_with_uplink("vm2");
  container::Pod& pod = bed.create_pod("p");
  auto& f1 = pod.add_fragment(vm1);
  auto& f2 = pod.add_fragment(vm2);
  EXPECT_NE(f1.stack.get(), f2.stack.get());
  EXPECT_TRUE(pod.is_cross_vm());
  EXPECT_EQ(f1.pod, &pod);
}

TEST_F(CoreFixture, SingleFragmentPodIsNotCrossVm) {
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  container::Pod& pod = bed.create_pod("p");
  pod.add_fragment(vm);
  EXPECT_FALSE(pod.is_cross_vm());
}

TEST_F(CoreFixture, ContainerStateMachine) {
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  container::Pod& pod = bed.create_pod("p");
  auto& frag = pod.add_fragment(vm);
  container::Container* c = boot(
      frag,
      [](container::Pod::Fragment&,
         std::function<void(container::Runtime::AttachOutcome)> done) {
        done({true, -1, net::Ipv4Address{}});
      });
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state(), container::ContainerState::kRunning);
  EXPECT_GT(c->boot_duration(), sim::milliseconds(100));  // runtime + app
  EXPECT_NE(c->app_core(), nullptr);
}

TEST_F(CoreFixture, FailedAttachStopsContainer) {
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  container::Pod& pod = bed.create_pod("p");
  auto& frag = pod.add_fragment(vm);
  container::Container* c = boot(
      frag,
      [](container::Pod::Fragment&,
         std::function<void(container::Runtime::AttachOutcome)> done) {
        done({false, -1, net::Ipv4Address{}});
      });
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state(), container::ContainerState::kStopped);
}

TEST_F(CoreFixture, BootDurationsVaryAcrossRuns) {
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  container::Pod& pod = bed.create_pod("p");
  auto& frag = pod.add_fragment(vm);
  auto attach = [](container::Pod::Fragment&,
                   std::function<void(container::Runtime::AttachOutcome)>
                       done) { done({true, -1, net::Ipv4Address{}}); };
  const auto d1 = boot(frag, attach, "c1")->boot_duration();
  const auto d2 = boot(frag, attach, "c2")->boot_duration();
  EXPECT_NE(d1, d2);  // lognormal phase sampling
}

// ---- GuestDockerNetwork ---------------------------------------------------------

TEST_F(CoreFixture, DockerNetworkAssignsSequentialAddresses) {
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  core::GuestDockerNetwork net(vm);
  container::Pod& pod_a = bed.create_pod("a");
  container::Pod& pod_b = bed.create_pod("b");
  auto& fa = pod_a.add_fragment(vm);
  auto& fb = pod_b.add_fragment(vm);
  const auto at_a = net.attach(fa, 1448);
  const auto at_b = net.attach(fb, 1448);
  EXPECT_EQ(at_a.ip, net::Ipv4Address(172, 17, 0, 2));
  EXPECT_EQ(at_b.ip, net::Ipv4Address(172, 17, 0, 3));
  EXPECT_EQ(net.gateway_ip(), net::Ipv4Address(172, 17, 0, 1));
}

TEST_F(CoreFixture, DockerNetworkEndToEnd) {
  // host client -> VM_IP:8080 --DNAT--> container; reply masquerades back.
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  core::GuestDockerNetwork net(vm);
  container::Pod& pod = bed.create_pod("p");
  auto& frag = pod.add_fragment(vm);
  const auto attachment = net.attach(frag, 1448);
  net.publish_port(8080, attachment.ip);

  int got = 0;
  frag.stack->udp_bind(
      8080, nullptr,
      [&](const net::NetworkStack::UdpDelivery& d) {
        ++got;
        frag.stack->udp_send(attachment.ip, 8080, d.src_ip, d.src_port, 32,
                             nullptr);
      });
  int reply = 0;
  bed.machine().stack().udp_bind(
      5555, nullptr,
      [&](const net::NetworkStack::UdpDelivery&) { ++reply; });

  const auto vm_ip = vm.stack().iface_ip(vm.stack().ifindex_of("eth0"));
  bed.machine().stack().udp_send(bed.machine().bridge_ip(), 5555, vm_ip,
                                 8080, 64, nullptr);
  bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(got, 1);
  EXPECT_EQ(reply, 1);
}

TEST_F(CoreFixture, ContainerEgressIsMasqueraded) {
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  core::GuestDockerNetwork net(vm);
  container::Pod& pod = bed.create_pod("p");
  auto& frag = pod.add_fragment(vm);
  const auto attachment = net.attach(frag, 1448);

  net::Ipv4Address seen_src;
  bed.machine().stack().udp_bind(
      7777, nullptr, [&](const net::NetworkStack::UdpDelivery& d) {
        seen_src = d.src_ip;
      });
  frag.stack->udp_send(attachment.ip, 1234, bed.machine().bridge_ip(), 7777,
                       16, nullptr);
  bed.run_for(sim::milliseconds(10));
  // The host must see the VM's address, not 172.17.0.x.
  const auto vm_ip = vm.stack().iface_ip(vm.stack().ifindex_of("eth0"));
  EXPECT_EQ(seen_src, vm_ip);
}

// ---- OrchVmmChannel --------------------------------------------------------------

TEST_F(CoreFixture, ChannelAddsLatencyAndCounts) {
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  bool done = false;
  const auto t0 = bed.engine().now();
  sim::TimePoint t_done = 0;
  bed.channel().request_nic(vm, [&](vmm::Vmm::ProvisionedNic) {
    done = true;
    t_done = bed.engine().now();
  });
  bed.run_until_ready([&done] { return done; });
  EXPECT_GE(t_done - t0, 2u * sim::microseconds(250));  // two message hops
  EXPECT_EQ(bed.channel().messages_sent(), 2u);
}

// ---- BridgeNatCni -------------------------------------------------------------------

TEST_F(CoreFixture, NatCniWiresPodBehindDockerBridge) {
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  container::Pod& pod = bed.create_pod("p");
  auto& frag = pod.add_fragment(vm);
  core::Cni::Options opts;
  opts.publish_ports = {9000};
  container::Container* c = boot(frag, bed.nat_cni().attach_fn(opts));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->state(), container::ContainerState::kRunning);
  const int eth0 = frag.stack->ifindex_of("eth0");
  ASSERT_GE(eth0, 1);
  EXPECT_TRUE(net::Ipv4Cidr(net::Ipv4Address(172, 17, 0, 0), 16)
                  .contains(frag.stack->iface_ip(eth0)));
  // The guest stack now has the DNAT publish rules (TCP + UDP).
  EXPECT_EQ(vm.stack()
                .netfilter()
                .nat_chain(net::Hook::kPrerouting)
                .rules.size(),
            2u);
}

TEST_F(CoreFixture, NatCniSharesOneDockerNetworkPerVm) {
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  container::Pod& pod_a = bed.create_pod("a");
  container::Pod& pod_b = bed.create_pod("b");
  auto& fa = pod_a.add_fragment(vm);
  auto& fb = pod_b.add_fragment(vm);
  boot(fa, bed.nat_cni().attach_fn({}), "a");
  boot(fb, bed.nat_cni().attach_fn({}), "b");
  EXPECT_NE(fa.stack->iface_ip(fa.stack->ifindex_of("eth0")),
            fb.stack->iface_ip(fb.stack->ifindex_of("eth0")));
  EXPECT_EQ(&bed.nat_cni().network_for(vm), &bed.nat_cni().network_for(vm));
}

// ---- BrFusionCni -----------------------------------------------------------------------

TEST_F(CoreFixture, BrFusionPodNicOnHostBridgeSubnet) {
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  container::Pod& pod = bed.create_pod("p");
  auto& frag = pod.add_fragment(vm);
  container::Container* c = boot(frag, bed.brfusion_cni().attach_fn({}));
  ASSERT_NE(c, nullptr);
  const int eth0 = frag.stack->ifindex_of("eth0");
  ASSERT_GE(eth0, 1);
  // Section 3: the pod NIC lives directly on the *host-level* network.
  EXPECT_TRUE(bed.machine().config().bridge_subnet.contains(
      frag.stack->iface_ip(eth0)));
  // The guest stack is not involved: no DNAT was installed in the VM.
  EXPECT_TRUE(
      vm.stack().netfilter().nat_chain(net::Hook::kPrerouting).rules.empty());
  EXPECT_EQ(bed.vmm().nics_provisioned(), 1u);
}

TEST_F(CoreFixture, BrFusionPodReachableFromHostDirectly) {
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  container::Pod& pod = bed.create_pod("p");
  auto& frag = pod.add_fragment(vm);
  boot(frag, bed.brfusion_cni().attach_fn({}));
  const auto pod_ip = frag.stack->iface_ip(frag.stack->ifindex_of("eth0"));

  int got = 0;
  frag.stack->udp_bind(
      9, nullptr, [&](const net::NetworkStack::UdpDelivery&) { ++got; });
  bed.machine().stack().udp_send(bed.machine().bridge_ip(), 1000, pod_ip, 9,
                                 64, nullptr);
  bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(got, 1);
  // The VM's own stack never forwarded anything for this traffic.
  EXPECT_EQ(vm.stack().packets_forwarded(), 0u);
}

// ---- HostloCni -------------------------------------------------------------------------

TEST_F(CoreFixture, HostloCniGivesEachFragmentAnEndpoint) {
  vmm::Vm& vm1 = bed.create_vm_with_uplink("vm1");
  vmm::Vm& vm2 = bed.create_vm_with_uplink("vm2");
  container::Pod& pod = bed.create_pod("p");
  pod.add_fragment(vm1);
  pod.add_fragment(vm2);

  std::vector<core::HostloCni::EndpointInfo> eps;
  bed.hostlo_cni().attach_pod(
      pod, [&](std::vector<core::HostloCni::EndpointInfo> e) {
        eps = std::move(e);
      });
  bed.run_until_ready([&eps] { return !eps.empty(); });
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_NE(eps[0].ip, eps[1].ip);
  EXPECT_EQ(bed.vmm().hostlos_created(), 1u);
  // Both endpoints are on the same pod-local /24.
  EXPECT_EQ(eps[0].ip.value() >> 8, eps[1].ip.value() >> 8);
}

TEST_F(CoreFixture, HostloEndToEndCommunication) {
  vmm::Vm& vm1 = bed.create_vm_with_uplink("vm1");
  vmm::Vm& vm2 = bed.create_vm_with_uplink("vm2");
  container::Pod& pod = bed.create_pod("p");
  auto& f1 = pod.add_fragment(vm1);
  auto& f2 = pod.add_fragment(vm2);
  std::vector<core::HostloCni::EndpointInfo> eps;
  bed.hostlo_cni().attach_pod(
      pod, [&](std::vector<core::HostloCni::EndpointInfo> e) {
        eps = std::move(e);
      });
  bed.run_until_ready([&eps] { return !eps.empty(); });

  int got = 0;
  f2.stack->udp_bind(
      9, nullptr, [&](const net::NetworkStack::UdpDelivery&) { ++got; });
  f1.stack->udp_send(eps[0].ip, 1000, eps[1].ip, 9, 64, nullptr);
  bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(got, 1);
  // The traffic never touched the host bridge or either VM's main stack.
  EXPECT_EQ(vm1.stack().packets_forwarded(), 0u);
  EXPECT_EQ(vm2.stack().packets_forwarded(), 0u);
}

TEST_F(CoreFixture, HostloPodsGetDistinctSubnets) {
  vmm::Vm& vm1 = bed.create_vm_with_uplink("vm1");
  vmm::Vm& vm2 = bed.create_vm_with_uplink("vm2");
  container::Pod& p1 = bed.create_pod("p1");
  container::Pod& p2 = bed.create_pod("p2");
  p1.add_fragment(vm1);
  p1.add_fragment(vm2);
  p2.add_fragment(vm1);
  p2.add_fragment(vm2);

  std::vector<core::HostloCni::EndpointInfo> e1, e2;
  bed.hostlo_cni().attach_pod(
      p1, [&](std::vector<core::HostloCni::EndpointInfo> e) { e1 = e; });
  bed.hostlo_cni().attach_pod(
      p2, [&](std::vector<core::HostloCni::EndpointInfo> e) { e2 = e; });
  bed.run_until_ready([&] { return !e1.empty() && !e2.empty(); });
  EXPECT_NE(e1[0].ip.value() >> 8, e2[0].ip.value() >> 8);
}

}  // namespace
}  // namespace nestv

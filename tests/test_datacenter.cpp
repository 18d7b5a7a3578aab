// Multi-host fabric tests: routing between machines, cross-host VM and
// overlay traffic, the intra-host scoping of Hostlo, and the shared
// peer-route set the fabric routes its members through.
#include <gtest/gtest.h>

#include "net/bridge.hpp"
#include "net/vxlan.hpp"
#include "vmm/fabric.hpp"
#include "vmm/vmm.hpp"

namespace nestv {
namespace {

struct DatacenterFixture : ::testing::Test {
  sim::Engine engine;
  sim::CostModel costs{};
  vmm::HierarchicalFabric tor{engine, costs};
  std::unique_ptr<vmm::PhysicalMachine> host_a;
  std::unique_ptr<vmm::PhysicalMachine> host_b;
  std::unique_ptr<vmm::Vmm> vmm_a;
  std::unique_ptr<vmm::Vmm> vmm_b;

  void SetUp() override {
    vmm::PhysicalMachine::Config ca;
    ca.name = "host-a";
    ca.seed = 1;
    ca.bridge_subnet = net::Ipv4Cidr(net::Ipv4Address(192, 168, 1, 0), 24);
    vmm::PhysicalMachine::Config cb;
    cb.name = "host-b";
    cb.seed = 2;
    cb.bridge_subnet = net::Ipv4Cidr(net::Ipv4Address(192, 168, 2, 0), 24);
    host_a = std::make_unique<vmm::PhysicalMachine>(engine, costs, ca);
    host_b = std::make_unique<vmm::PhysicalMachine>(engine, costs, cb);
    vmm_a = std::make_unique<vmm::Vmm>(*host_a);
    vmm_b = std::make_unique<vmm::Vmm>(*host_b);
    tor.attach(*host_a);
    tor.attach(*host_b);
  }

  vmm::Vm& vm_on(vmm::Vmm& vmm, vmm::PhysicalMachine& machine,
                 const std::string& name) {
    vmm::Vm& vm = vmm.create_vm({.name = name});
    net::TapDevice& tap = machine.make_tap("tap-" + name);
    vmm::VirtioNic& nic = vm.create_nic("eth0");
    nic.attach_host_tap(tap);
    net::InterfaceConfig cfg;
    cfg.name = "eth0";
    cfg.mac = machine.allocate_mac();
    cfg.ip = machine.allocate_bridge_ip();
    cfg.subnet = machine.config().bridge_subnet;
    cfg.gso_bytes = costs.gso_virtio;
    const int ifindex = vm.stack().add_interface(nic, cfg);
    vm.stack().routes().add_default(machine.bridge_ip(), ifindex);
    return vm;
  }
};

TEST_F(DatacenterFixture, HostsReachEachOther) {
  sim::Duration rtt = 0;
  const auto b_ext =
      host_b->stack().iface_ip(host_b->stack().ifindex_of("ext0"));
  host_a->stack().ping(b_ext, 56, [&](sim::Duration d) { rtt = d; });
  engine.run_until(sim::milliseconds(10));
  EXPECT_GT(rtt, 0u);
}

TEST_F(DatacenterFixture, CrossHostVmUdp) {
  vmm::Vm& va = vm_on(*vmm_a, *host_a, "va");
  vmm::Vm& vb = vm_on(*vmm_b, *host_b, "vb");
  const auto ip_a = va.stack().iface_ip(va.stack().ifindex_of("eth0"));
  const auto ip_b = vb.stack().iface_ip(vb.stack().ifindex_of("eth0"));

  int got = 0;
  vb.stack().udp_bind(7, nullptr,
                      [&](const net::NetworkStack::UdpDelivery&) { ++got; });
  va.stack().udp_send(ip_a, 1000, ip_b, 7, 64, nullptr);
  engine.run_until(sim::milliseconds(20));
  EXPECT_EQ(got, 1);
  // The packet crossed both host kernels.
  EXPECT_GE(host_a->stack().packets_forwarded(), 1u);
  EXPECT_GE(host_b->stack().packets_forwarded(), 1u);
}

TEST_F(DatacenterFixture, CrossHostVmTcp) {
  vmm::Vm& va = vm_on(*vmm_a, *host_a, "va");
  vmm::Vm& vb = vm_on(*vmm_b, *host_b, "vb");
  const auto ip_a = va.stack().iface_ip(va.stack().ifindex_of("eth0"));
  const auto ip_b = vb.stack().iface_ip(vb.stack().ifindex_of("eth0"));

  std::uint64_t received = 0;
  vb.stack().tcp_listen(80, nullptr, [&](net::TcpSocket sock) {
    sock.set_on_receive([&](std::uint32_t n) { received += n; });
  });
  net::TcpSocket client = va.stack().tcp_connect(ip_a, ip_b, 80, nullptr);
  client.set_on_connected([&client] { client.send(50000); });
  engine.run_until(sim::seconds(2));
  EXPECT_EQ(received, 50000u);
}

TEST_F(DatacenterFixture, CrossHostOverlayTunnel) {
  // A VXLAN tunnel between VMs on different hosts: the overlay outer UDP
  // rides the fabric routes — the only production cross-node option the
  // paper compares (Docker Overlay), now actually crossing nodes.
  vmm::Vm& va = vm_on(*vmm_a, *host_a, "va");
  vmm::Vm& vb = vm_on(*vmm_b, *host_b, "vb");
  const auto ip_a = va.stack().iface_ip(va.stack().ifindex_of("eth0"));
  const auto ip_b = vb.stack().iface_ip(vb.stack().ifindex_of("eth0"));

  net::Bridge ov_a(engine, "ov-a", costs);
  net::Bridge ov_b(engine, "ov-b", costs);
  net::VxlanDevice vx_a(engine, "vx-a", costs, va.stack(), ip_a);
  net::VxlanDevice vx_b(engine, "vx-b", costs, vb.stack(), ip_b);
  net::Device::connect(vx_a, 0, ov_a, ov_a.add_port());
  net::Device::connect(vx_b, 0, ov_b, ov_b.add_port());
  net::PortBackend mem_a(engine, "ma", costs), mem_b(engine, "mb", costs);
  net::Device::connect(mem_a, 0, ov_a, ov_a.add_port());
  net::Device::connect(mem_b, 0, ov_b, ov_b.add_port());
  const auto mac_a = net::MacAddress::local_from_id(200);
  const auto mac_b = net::MacAddress::local_from_id(201);
  vx_a.add_remote(mac_b, ip_b);
  vx_b.add_remote(mac_a, ip_a);

  std::vector<net::EthernetFrame> delivered;
  mem_b.set_rx([&](net::EthernetFrame&& f) { delivered.push_back(std::move(f)); });

  net::EthernetFrame inner;
  inner.src = mac_a;
  inner.dst = mac_b;
  inner.packet.proto = net::L4Proto::kUdp;
  inner.packet.src_ip = net::Ipv4Address(10, 99, 0, 1);
  inner.packet.dst_ip = net::Ipv4Address(10, 99, 0, 2);
  inner.packet.payload_bytes = 500;
  mem_a.xmit(std::move(inner));
  engine.run_until(sim::milliseconds(20));

  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].packet.payload_bytes, 500u);
  EXPECT_EQ(vx_b.decapsulated(), 1u);
}

TEST_F(DatacenterFixture, HostloIsScopedToOneHost) {
  // Structural property: a Hostlo's queues are objects of one host kernel;
  // the Vmm creating it only ever serves its own machine's VMs.  Cross-host
  // pods must use an overlay (the paper's related-work contrast).
  vmm::Vm& va1 = vm_on(*vmm_a, *host_a, "va1");
  vmm::Vm& va2 = vm_on(*vmm_a, *host_a, "va2");
  std::vector<vmm::Vm*> vms{&va1, &va2};
  bool done = false;
  vmm_a->create_hostlo(vms, [&](vmm::Vmm::ProvisionedHostlo h) {
    done = true;
    EXPECT_EQ(h.hostlo->queue_count(), 2);
  });
  engine.run_until(sim::milliseconds(100));
  EXPECT_TRUE(done);
  // Both endpoints exist in host-a's kernel; host-b is untouched.
  EXPECT_EQ(vmm_b->hostlos_created(), 0u);
  EXPECT_EQ(vmm_a->hostlos_created(), 1u);
}

TEST_F(DatacenterFixture, DistinctLedgersPerHost) {
  vmm::Vm& va = vm_on(*vmm_a, *host_a, "va");
  vmm::Vm& vb = vm_on(*vmm_b, *host_b, "vb");
  va.softirq().submit_as(sim::CpuCategory::kSoft, 100, [] {});
  vb.softirq().submit_as(sim::CpuCategory::kSoft, 200, [] {});
  engine.run();
  EXPECT_EQ(host_a->host_account().get(sim::CpuCategory::kGuest), 100u);
  EXPECT_EQ(host_b->host_account().get(sim::CpuCategory::kGuest), 200u);
}

TEST_F(DatacenterFixture, DuplicateVmSubnetIsARuntimeError) {
  // A config error, not a debug-build invariant: it must throw in Release
  // builds too (an assert would vanish under NDEBUG).
  vmm::PhysicalMachine::Config cc;
  cc.name = "host-c";
  cc.seed = 3;
  cc.bridge_subnet = host_a->config().bridge_subnet;  // clash with host-a
  vmm::PhysicalMachine host_c(engine, costs, cc);
  EXPECT_THROW(tor.attach(host_c), std::invalid_argument);
  EXPECT_EQ(tor.machine_count(), 2u);  // the fabric is unchanged
}

TEST_F(DatacenterFixture, ForeignEngineWithoutConductorIsARuntimeError) {
  sim::Engine other;
  vmm::PhysicalMachine::Config cc;
  cc.name = "host-c";
  cc.seed = 3;
  cc.bridge_subnet = net::Ipv4Cidr(net::Ipv4Address(192, 168, 3, 0), 24);
  vmm::PhysicalMachine host_c(other, costs, cc);
  EXPECT_THROW(tor.attach(host_c), std::invalid_argument);
}

// ---- full-mesh topology beyond two machines ----------------------------

struct FullMeshFixture : ::testing::Test {
  static constexpr int kMachines = 4;
  sim::Engine engine;
  sim::CostModel costs{};
  vmm::HierarchicalFabric tor{engine, costs};
  std::vector<std::unique_ptr<vmm::PhysicalMachine>> hosts;
  std::vector<std::unique_ptr<vmm::Vmm>> vmms;

  void SetUp() override {
    for (int i = 0; i < kMachines; ++i) {
      vmm::PhysicalMachine::Config c;
      c.name = "host-" + std::to_string(i);
      c.seed = std::uint64_t(i + 1);
      c.bridge_subnet = net::Ipv4Cidr(
          net::Ipv4Address(192, 168, std::uint8_t(10 + i), 0), 24);
      hosts.push_back(
          std::make_unique<vmm::PhysicalMachine>(engine, costs, c));
      vmms.push_back(std::make_unique<vmm::Vmm>(*hosts.back()));
      tor.attach(*hosts.back());
    }
  }

  vmm::Vm& vm_on(int i, const std::string& name) {
    vmm::PhysicalMachine& machine = *hosts[std::size_t(i)];
    vmm::Vm& vm = vmms[std::size_t(i)]->create_vm({.name = name});
    net::TapDevice& tap = machine.make_tap("tap-" + name);
    vmm::VirtioNic& nic = vm.create_nic("eth0");
    nic.attach_host_tap(tap);
    net::InterfaceConfig cfg;
    cfg.name = "eth0";
    cfg.mac = machine.allocate_mac();
    cfg.ip = machine.allocate_bridge_ip();
    cfg.subnet = machine.config().bridge_subnet;
    cfg.gso_bytes = costs.gso_virtio;
    const int ifindex = vm.stack().add_interface(nic, cfg);
    vm.stack().routes().add_default(machine.bridge_ip(), ifindex);
    return vm;
  }
};

TEST_F(FullMeshFixture, ExtIpsAllocatedSequentiallyAndDistinct) {
  std::vector<net::Ipv4Address> ips;
  for (auto& host : hosts) {
    ips.push_back(host->stack().iface_ip(host->stack().ifindex_of("ext0")));
  }
  for (int i = 0; i < kMachines; ++i) {
    EXPECT_EQ(ips[std::size_t(i)],
              net::Ipv4Address(10, 10, 0, std::uint8_t(i + 1)));
  }
}

TEST_F(FullMeshFixture, RoutesInstalledBothDirectionsForEveryPair) {
  // Every ordered machine pair exchanges a VM-to-VM datagram — which only
  // works if attach() installed the VM-subnet route in both directions at
  // every attach, including between machines attached before and after
  // each other.
  std::vector<vmm::Vm*> vms;
  for (int i = 0; i < kMachines; ++i) {
    vms.push_back(&vm_on(i, "v" + std::to_string(i)));
  }
  int expected = 0, got = 0;
  for (int i = 0; i < kMachines; ++i) {
    vms[std::size_t(i)]->stack().udp_bind(
        9000, nullptr,
        [&got](const net::NetworkStack::UdpDelivery&) { ++got; });
  }
  for (int i = 0; i < kMachines; ++i) {
    for (int j = 0; j < kMachines; ++j) {
      if (i == j) continue;
      const auto src = vms[std::size_t(i)]->stack().iface_ip(
          vms[std::size_t(i)]->stack().ifindex_of("eth0"));
      const auto dst = vms[std::size_t(j)]->stack().iface_ip(
          vms[std::size_t(j)]->stack().ifindex_of("eth0"));
      vms[std::size_t(i)]->stack().udp_send(
          src, std::uint16_t(10000 + i), dst, 9000, 128, nullptr);
      ++expected;
    }
  }
  engine.run_until(sim::milliseconds(100));
  EXPECT_EQ(got, expected);
}

TEST_F(FullMeshFixture, CrossMachineTcpStreamTwoHopsAway) {
  // A bulk TCP transfer between machines 0 and 2 — attached neither first
  // nor adjacent — crossing both host kernels and the ToR.
  vmm::Vm& va = vm_on(0, "va");
  vmm::Vm& vc = vm_on(2, "vc");
  const auto ip_a = va.stack().iface_ip(va.stack().ifindex_of("eth0"));
  const auto ip_c = vc.stack().iface_ip(vc.stack().ifindex_of("eth0"));

  std::uint64_t received = 0;
  vc.stack().tcp_listen(80, nullptr, [&](net::TcpSocket sock) {
    sock.set_on_receive([&](std::uint32_t n) { received += n; });
  });
  net::TcpSocket client = va.stack().tcp_connect(ip_a, ip_c, 80, nullptr);
  client.set_on_connected([&client] { client.send(200000); });
  engine.run_until(sim::seconds(3));
  EXPECT_EQ(received, 200000u);
  EXPECT_GE(hosts[0]->stack().packets_forwarded(), 1u);
  EXPECT_GE(hosts[2]->stack().packets_forwarded(), 1u);
}

// ---- mesh routes from one shared peer-route set -------------------------

/// Machines attached one by one to a fabric of type `Fabric` on one engine.
template <typename Fabric>
struct MeshWorld {
  sim::Engine engine;
  sim::CostModel costs{};
  Fabric fabric{engine, costs};
  std::vector<std::unique_ptr<vmm::PhysicalMachine>> hosts;

  static net::Ipv4Cidr subnet(int i) {
    return net::Ipv4Cidr(
        net::Ipv4Address(192, 168, std::uint8_t(10 + i), 0), 24);
  }
  void grow_to(int n) {
    while (int(hosts.size()) < n) {
      const int i = int(hosts.size());
      vmm::PhysicalMachine::Config c;
      c.name = "host-" + std::to_string(i);
      c.seed = std::uint64_t(i + 1);
      c.bridge_subnet = subnet(i);
      hosts.push_back(
          std::make_unique<vmm::PhysicalMachine>(engine, costs, c));
      fabric.attach(*hosts.back());
    }
  }
  net::NetworkStack& stack(int i) { return hosts[std::size_t(i)]->stack(); }
  net::Ipv4Address ext_ip(int i) {
    return stack(i).iface_ip(stack(i).ifindex_of("ext0"));
  }
};

template <typename Fabric>
class MeshRoutes : public ::testing::Test {};
using Fabrics = ::testing::Types<vmm::HierarchicalFabric>;
TYPED_TEST_SUITE(MeshRoutes, Fabrics);

// What the per-host full mesh decided: a member's VM subnet leaves through
// ext0 toward that member's ext0 address; the host's own subnet stays on
// br0; fabric addresses are on-link via ext0; anything else has no route.
TYPED_TEST(MeshRoutes, LookupsMatchTheFullMeshDecision) {
  constexpr int kMachines = 8;
  MeshWorld<TypeParam> w;
  w.grow_to(kMachines);
  for (int i = 0; i < kMachines; ++i) {
    auto& st = w.stack(i);
    const int ext0 = st.ifindex_of("ext0");
    for (int j = 0; j < kMachines; ++j) {
      const net::Ipv4Address dst = w.subnet(j).host(7);
      const auto r = st.routes().lookup(dst);
      ASSERT_TRUE(r.has_value()) << i << " -> " << j;
      if (i == j) {
        EXPECT_EQ(r->ifindex, st.ifindex_of("br0"));
        EXPECT_EQ(r->next_hop, dst);
      } else {
        EXPECT_EQ(r->ifindex, ext0) << i << " -> " << j;
        EXPECT_EQ(r->next_hop, w.ext_ip(j)) << i << " -> " << j;
      }
      const auto on_link = st.routes().lookup(w.ext_ip(j));
      ASSERT_TRUE(on_link.has_value());
      EXPECT_EQ(on_link->ifindex, ext0);
      EXPECT_EQ(on_link->next_hop, w.ext_ip(j));
    }
    EXPECT_FALSE(
        st.routes().lookup(net::Ipv4Address(203, 0, 113, 9)).has_value());
    EXPECT_FALSE(st.routes().lookup(w.subnet(kMachines).host(7)).has_value());
  }
}

// Every attach is one route's worth of generation on each earlier member
// (flowcache and ONCache stamps go stale exactly as under a per-host add),
// while a host's own table does not grow with the fabric.
TYPED_TEST(MeshRoutes, AttachMovesGenerationWithoutGrowingOwnRoutes) {
  MeshWorld<TypeParam> w;
  w.grow_to(8);
  const std::size_t own_at_8 = w.stack(0).routes().size();
  const std::uint64_t gen_at_8 = w.stack(0).routes().generation();
  w.grow_to(9);
  EXPECT_EQ(w.stack(0).routes().generation(), gen_at_8 + 1);
  EXPECT_EQ(w.stack(8).routes().lookup(w.subnet(0).host(7))->next_hop,
            w.ext_ip(0));
  w.grow_to(64);
  EXPECT_EQ(w.stack(0).routes().generation(), gen_at_8 + 56);
  EXPECT_EQ(w.stack(0).routes().size(), own_at_8);
  EXPECT_EQ(w.stack(63).routes().size(), own_at_8);
  EXPECT_EQ(w.stack(0).routes().lookup(w.subnet(63).host(7))->next_hop,
            w.ext_ip(63));
}

}  // namespace
}  // namespace nestv

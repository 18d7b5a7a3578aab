// Unit tests for the VMM substrate: machine, VM, virtio/vhost, QMP
// hot-plug, the Vmm protocol operations and the Hostlo multi-queue TAP.
// Also hosts the vhost charge-symmetry regression (the RX cost used to be
// computed on a moved-from frame, silently dropping the byte-proportional
// term) and the HostloTap reflect-path frames_cloned accounting test.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/netfilter.hpp"
#include "net/packet_pool.hpp"
#include "net/stack.hpp"
#include "vmm/hostlo_tap.hpp"
#include "vmm/machine.hpp"
#include "vmm/qmp.hpp"
#include "vmm/virtio.hpp"
#include "vmm/vm.hpp"
#include "vmm/vmm.hpp"

namespace nestv::vmm {
namespace {

struct VmmFixture : ::testing::Test {
  sim::Engine engine;
  sim::CostModel costs{};
  std::unique_ptr<PhysicalMachine> machine;
  std::unique_ptr<Vmm> vmm;

  void SetUp() override {
    machine = std::make_unique<PhysicalMachine>(engine, costs);
    vmm = std::make_unique<Vmm>(*machine);
  }

  /// Creates a VM with a configured uplink on the host bridge.
  Vm& vm_with_uplink(const std::string& name) {
    Vm& vm = vmm->create_vm({.name = name});
    net::TapDevice& tap = machine->make_tap("tap-" + name);
    VirtioNic& nic = vm.create_nic("eth0");
    nic.attach_host_tap(tap);
    net::InterfaceConfig cfg;
    cfg.name = "eth0";
    cfg.mac = machine->allocate_mac();
    cfg.ip = machine->allocate_bridge_ip();
    cfg.subnet = machine->config().bridge_subnet;
    cfg.gso_bytes = costs.gso_virtio;
    const int ifindex = vm.stack().add_interface(nic, cfg);
    vm.stack().routes().add_default(machine->bridge_ip(), ifindex);
    return vm;
  }
};

// ---- machine -----------------------------------------------------------------

TEST_F(VmmFixture, MachineAllocatesDistinctAddresses) {
  const auto ip1 = machine->allocate_bridge_ip();
  const auto ip2 = machine->allocate_bridge_ip();
  EXPECT_NE(ip1, ip2);
  EXPECT_TRUE(machine->config().bridge_subnet.contains(ip1));
  EXPECT_NE(machine->allocate_mac(), machine->allocate_mac());
}

TEST_F(VmmFixture, HostStackOwnsBridgeIp) {
  EXPECT_EQ(machine->stack().iface_ip(machine->stack().ifindex_of("br0")),
            machine->bridge_ip());
}

TEST_F(VmmFixture, AppCoreChargesUserAccount) {
  auto& core = machine->make_app_core("netperf");
  core.submit_as(sim::CpuCategory::kUsr, 1000, [] {});
  engine.run();
  const auto* acc = machine->ledger().find("host/netperf");
  ASSERT_NE(acc, nullptr);
  EXPECT_EQ(acc->get(sim::CpuCategory::kUsr), 1000u);
}

TEST_F(VmmFixture, KernelWorkerChargesHostSys) {
  auto& worker = machine->make_kernel_worker("vhost-x");
  worker.submit(500, [] {});
  engine.run();
  EXPECT_EQ(machine->host_account().get(sim::CpuCategory::kSys), 500u);
}

// ---- vm ------------------------------------------------------------------------

TEST(VmmStandingRules, FollowTheCostModel) {
  // Built without a Testbed: the machine and the VM still install the
  // cost model's standing-rule count, not a default of their own.
  sim::Engine engine;
  sim::CostModel costs{};
  costs.nf_standing_rules = 2;
  PhysicalMachine machine(engine, costs);
  Vmm vmm(machine);
  Vm& vm = vmm.create_vm({.name = "vm1"});
  EXPECT_EQ(machine.stack().netfilter().filter_chain(net::Hook::kForward)
                .standing,
            2u);
  EXPECT_EQ(vm.stack().netfilter().filter_chain(net::Hook::kForward).standing,
            2u);
}

TEST_F(VmmFixture, GuestCpuAlsoBillsHostGuestTime) {
  Vm& vm = vmm->create_vm({.name = "vm1"});
  vm.softirq().submit_as(sim::CpuCategory::kSoft, 700, [] {});
  auto& app = vm.make_app_core("srv");
  app.submit_as(sim::CpuCategory::kUsr, 300, [] {});
  engine.run();

  EXPECT_EQ(vm.account().get(sim::CpuCategory::kSoft), 700u);
  EXPECT_EQ(vm.account().get(sim::CpuCategory::kUsr), 300u);
  // Host view: all guest execution is "guest" time (fig 14).
  EXPECT_EQ(machine->host_account().get(sim::CpuCategory::kGuest), 1000u);
}

TEST_F(VmmFixture, PerAppAccountTracked) {
  Vm& vm = vmm->create_vm({.name = "vm1"});
  auto& app = vm.make_app_core("kafka");
  app.submit_as(sim::CpuCategory::kUsr, 123, [] {});
  engine.run();
  const auto* acc = machine->ledger().find("vm/vm1/kafka");
  ASSERT_NE(acc, nullptr);
  EXPECT_EQ(acc->get(sim::CpuCategory::kUsr), 123u);
}

// ---- virtio / vhost ---------------------------------------------------------------

TEST_F(VmmFixture, GuestToHostTraversesVhostAndTap) {
  Vm& vm = vm_with_uplink("vm1");
  int host_got = 0;
  machine->stack().udp_bind(
      9, nullptr, [&](const net::NetworkStack::UdpDelivery&) { ++host_got; });
  const auto vm_ip = vm.stack().iface_ip(vm.stack().ifindex_of("eth0"));
  vm.stack().udp_send(vm_ip, 1000, machine->bridge_ip(), 9, 64, nullptr);
  engine.run();
  EXPECT_EQ(host_got, 1);
  EXPECT_GE(vm.nics()[0]->tx_frames(), 1u);
  // vhost work landed in host sys time.
  EXPECT_GT(machine->host_account().get(sim::CpuCategory::kSys), 0u);
}

TEST_F(VmmFixture, HostToGuestDelivery) {
  Vm& vm = vm_with_uplink("vm1");
  int vm_got = 0;
  vm.stack().udp_bind(
      9, nullptr, [&](const net::NetworkStack::UdpDelivery&) { ++vm_got; });
  const auto vm_ip = vm.stack().iface_ip(vm.stack().ifindex_of("eth0"));
  machine->stack().udp_send(machine->bridge_ip(), 1000, vm_ip, 9, 64,
                            nullptr);
  engine.run();
  EXPECT_EQ(vm_got, 1);
  EXPECT_GE(vm.nics()[0]->rx_frames(), 1u);
}

TEST_F(VmmFixture, TwoVmsTalkThroughHostBridge) {
  Vm& vm1 = vm_with_uplink("vm1");
  Vm& vm2 = vm_with_uplink("vm2");
  int got = 0;
  vm2.stack().udp_bind(
      9, nullptr, [&](const net::NetworkStack::UdpDelivery&) { ++got; });
  const auto ip1 = vm1.stack().iface_ip(vm1.stack().ifindex_of("eth0"));
  const auto ip2 = vm2.stack().iface_ip(vm2.stack().ifindex_of("eth0"));
  vm1.stack().udp_send(ip1, 1000, ip2, 9, 64, nullptr);
  engine.run();
  EXPECT_EQ(got, 1);
}

TEST_F(VmmFixture, EmulatedVirtioCostsMoreThanVhost) {
  // Compare the backend workers' CPU time directly: the QEMU-emulated
  // device (no vhost) must burn more host CPU per frame.
  sim::SerialResource w_fast(engine, "w-fast");
  sim::SerialResource w_slow(engine, "w-slow");
  VirtioNic fast(engine, costs, nullptr, &w_fast, true);
  VirtioNic slow(engine, costs, nullptr, &w_slow, false);

  net::EthernetFrame f;
  f.packet.payload_bytes = 1000;
  fast.xmit(net::EthernetFrame(f));
  slow.xmit(std::move(f));
  engine.run();
  EXPECT_GT(w_slow.busy_time(), w_fast.busy_time());
}

// ---- QMP hot-plug ---------------------------------------------------------------------

TEST_F(VmmFixture, QmpHotplugTakesMilliseconds) {
  Vm& vm = vmm->create_vm({.name = "vm1"});
  bool done = false;
  sim::Duration elapsed = 0;
  vmm->qmp(vm).device_add_nic(machine->allocate_mac(),
                              [&](net::MacAddress, sim::Duration e) {
                                done = true;
                                elapsed = e;
                              });
  engine.run();
  EXPECT_TRUE(done);
  // QMP rtt (~1ms) + PCI probe (~9ms): single-digit-to-tens of ms.
  EXPECT_GT(elapsed, sim::milliseconds(2));
  EXPECT_LT(elapsed, sim::milliseconds(100));
}

TEST_F(VmmFixture, QmpDeviceDelCompletes) {
  Vm& vm = vmm->create_vm({.name = "vm1"});
  bool deleted = false;
  vmm->qmp(vm).device_del_nic(machine->allocate_mac(),
                              [&] { deleted = true; });
  engine.run();
  EXPECT_TRUE(deleted);
  EXPECT_EQ(vmm->qmp(vm).commands_executed(), 1u);
}

// ---- Vmm protocol ops --------------------------------------------------------------------

TEST_F(VmmFixture, ProvisionNicReturnsIdentifier) {
  Vm& vm = vm_with_uplink("vm1");
  Vmm::ProvisionedNic result;
  bool done = false;
  vmm->provision_nic(vm, [&](Vmm::ProvisionedNic nic) {
    result = nic;
    done = true;
  });
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_NE(result.nic, nullptr);
  EXPECT_NE(result.host_tap, nullptr);
  EXPECT_FALSE(result.mac.is_broadcast());
  EXPECT_GT(result.hotplug_elapsed, 0u);
  EXPECT_EQ(vmm->nics_provisioned(), 1u);
}

TEST_F(VmmFixture, CreateHostloProvisionsOneEndpointPerVm) {
  Vm& vm1 = vm_with_uplink("vm1");
  Vm& vm2 = vm_with_uplink("vm2");
  std::vector<Vm*> vms{&vm1, &vm2};
  Vmm::ProvisionedHostlo result;
  bool done = false;
  vmm->create_hostlo(vms, [&](Vmm::ProvisionedHostlo h) {
    result = std::move(h);
    done = true;
  });
  engine.run();
  ASSERT_TRUE(done);
  ASSERT_NE(result.hostlo, nullptr);
  EXPECT_EQ(result.hostlo->queue_count(), 2);
  ASSERT_EQ(result.endpoints.size(), 2u);
  EXPECT_NE(result.endpoints[0].mac, result.endpoints[1].mac);
}

// ---- HostloTap semantics -------------------------------------------------------------------

TEST_F(VmmFixture, HostloReflectsToAllQueuesIncludingSender) {
  // Section 4.2: "it sends back any received Ethernet frame to all of its
  // queues".
  Vm& vm1 = vmm->create_vm({.name = "vm1"});
  Vm& vm2 = vmm->create_vm({.name = "vm2"});
  Vm& vm3 = vmm->create_vm({.name = "vm3"});
  auto& worker = machine->make_kernel_worker("hostlo");
  HostloTap hostlo(engine, "hostlo0", costs, &worker);

  std::vector<int> rx_counts(3, 0);
  std::vector<VirtioNic*> endpoints;
  Vm* vms[3] = {&vm1, &vm2, &vm3};
  for (int i = 0; i < 3; ++i) {
    VirtioNic& nic = vms[i]->create_nic("hlo");
    hostlo.add_queue(nic);
    nic.set_rx([&rx_counts, i](net::EthernetFrame) { ++rx_counts[i]; });
    endpoints.push_back(&nic);
  }
  ASSERT_EQ(hostlo.queue_count(), 3);

  net::EthernetFrame f;
  f.src = machine->allocate_mac();
  f.dst = machine->allocate_mac();
  f.packet.payload_bytes = 64;
  endpoints[0]->xmit(std::move(f));
  engine.run();

  EXPECT_EQ(rx_counts[0], 1);  // the writer's own queue gets the echo
  EXPECT_EQ(rx_counts[1], 1);
  EXPECT_EQ(rx_counts[2], 1);
  EXPECT_EQ(hostlo.frames_reflected(), 1u);
  EXPECT_EQ(hostlo.deliveries(), 3u);
}

TEST_F(VmmFixture, HostloReflectCostScalesWithQueues) {
  auto& worker2 = machine->make_kernel_worker("h2");
  auto& worker8 = machine->make_kernel_worker("h8");
  HostloTap small(engine, "h2", costs, &worker2);
  HostloTap big(engine, "h8", costs, &worker8);

  Vm& vm = vmm->create_vm({.name = "vmq"});
  // append(): GCC 12 reports a false -Wrestrict on "s" + string.
  for (int i = 0; i < 2; ++i) {
    small.add_queue(vm.create_nic(std::string("s").append(std::to_string(i))));
  }
  for (int i = 0; i < 8; ++i) {
    big.add_queue(vm.create_nic(std::string("b").append(std::to_string(i))));
  }

  net::EthernetFrame f;
  f.packet.payload_bytes = 100;
  small.rx_from_queue(0, net::EthernetFrame(f));
  big.rx_from_queue(0, std::move(f));
  engine.run();
  EXPECT_GT(worker8.busy_time(), worker2.busy_time());
}

TEST_F(VmmFixture, FindVmByName) {
  vmm->create_vm({.name = "alpha"});
  vmm->create_vm({.name = "beta"});
  EXPECT_NE(vmm->find_vm("alpha"), nullptr);
  EXPECT_EQ(vmm->find_vm("gamma"), nullptr);
}

// ---- vhost charge symmetry (moved-from regression) --------------------------

TEST(VhostCharges, TxAndRxAreByteDependentAndSymmetric) {
  // Regression: deliver_to_guest used to compute host_side_cost() on a
  // frame already moved into the completion closure, dropping the
  // byte-proportional copy term from every RX charge.  TX and RX of the
  // same frame must charge the vhost worker identically, and bigger frames
  // must charge strictly more.
  sim::Engine engine;
  sim::CostModel costs;
  sim::SerialResource w_tx(engine, "vhost-tx");
  sim::SerialResource w_rx(engine, "vhost-rx");
  vmm::VirtioNic tx_nic(engine, costs, nullptr, &w_tx, true);
  vmm::VirtioNic rx_nic(engine, costs, nullptr, &w_rx, true);

  net::EthernetFrame big;
  big.packet.payload_bytes = 1400;
  tx_nic.xmit(net::EthernetFrame(big));
  rx_nic.deliver_to_guest(std::move(big));
  engine.run();
  EXPECT_GT(w_rx.busy_time(), 0u);
  EXPECT_EQ(w_tx.busy_time(), w_rx.busy_time());

  // Byte dependence on the RX side specifically.
  sim::Engine engine2;
  sim::SerialResource w_small(engine2, "vhost-s");
  vmm::VirtioNic small_nic(engine2, costs, nullptr, &w_small, true);
  net::EthernetFrame small;
  small.packet.payload_bytes = 64;
  small_nic.deliver_to_guest(std::move(small));
  engine2.run();
  EXPECT_LT(w_small.busy_time(), w_rx.busy_time());
}

// ---- HostloTap reflect accounting -------------------------------------------

class HostloCloneFixture : public ::testing::Test {
 protected:
  /// Reflects one 64B frame through an n-queue Hostlo and returns the
  /// number of deep frame copies the reflect performed.
  static std::uint64_t clones_for_reflect(sim::CostModel costs, int queues) {
    sim::Engine engine;
    vmm::PhysicalMachine machine(engine, costs);
    vmm::Vmm vmm(machine);
    auto& worker = machine.make_kernel_worker("hostlo");
    vmm::HostloTap hostlo(engine, "hostlo0", costs, &worker);
    vmm::Vm& vm = vmm.create_vm({.name = "vm1"});
    int delivered = 0;
    for (int i = 0; i < queues; ++i) {
      // append(): GCC 12 reports a false -Wrestrict on "q" + string.
      vmm::VirtioNic& nic =
          vm.create_nic(std::string("q").append(std::to_string(i)));
      hostlo.add_queue(nic);
      nic.set_rx([&delivered](net::EthernetFrame) { ++delivered; });
    }
    net::EthernetFrame f;
    f.packet.payload_bytes = 64;
    const std::uint64_t before = net::PacketPool::frames_cloned();
    hostlo.rx_from_queue(0, std::move(f));
    engine.run();
    EXPECT_EQ(delivered, queues);
    EXPECT_EQ(hostlo.deliveries(), static_cast<std::uint64_t>(queues));
    return net::PacketPool::frames_cloned() - before;
  }
};

TEST_F(HostloCloneFixture, ReflectClonesAllQueuesButLast) {
  sim::CostModel costs;
  EXPECT_EQ(clones_for_reflect(costs, 3), 2u);
  EXPECT_EQ(clones_for_reflect(costs, 5), 4u);
}

}  // namespace
}  // namespace nestv::vmm

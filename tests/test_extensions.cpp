// Tests for the extension subsystems: ICMP, pcap capture, MemPipe and
// VirtFS shared volumes.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/docker_net.hpp"
#include "net/pcap.hpp"
#include "net/wire.hpp"
#include "scenario/testbed.hpp"
#include "storage/virtfs.hpp"
#include "vmm/mempipe.hpp"

namespace nestv {
namespace {

// ---- ICMP -------------------------------------------------------------------

struct IcmpFixture : ::testing::Test {
  scenario::Testbed bed{scenario::TestbedConfig{.seed = 3}};
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  net::Ipv4Address vm_ip =
      vm.stack().iface_ip(vm.stack().ifindex_of("eth0"));
};

TEST_F(IcmpFixture, PingEchoRoundTrip) {
  sim::Duration rtt = 0;
  bed.machine().stack().ping(vm_ip, 56, [&](sim::Duration d) { rtt = d; });
  bed.run_for(sim::milliseconds(10));
  EXPECT_GT(rtt, 0u);
  EXPECT_LT(rtt, sim::milliseconds(1));
}

TEST_F(IcmpFixture, PingLatencyBelowUdpRr) {
  // An in-kernel echo skips both app wakeups: it must beat an app-level
  // RTT over the same path.
  // Warm the ARP caches first, then measure a steady-state ping.
  bed.machine().stack().ping(vm_ip, 56, {});
  bed.run_for(sim::milliseconds(10));
  sim::Duration ping_rtt = 0;
  bed.machine().stack().ping(vm_ip, 56,
                             [&](sim::Duration d) { ping_rtt = d; });
  bed.run_for(sim::milliseconds(10));

  vm.stack().udp_bind(7, nullptr,
                      [this](const net::NetworkStack::UdpDelivery& d) {
                        vm.stack().udp_send(vm_ip, 7, d.src_ip, d.src_port,
                                            56, nullptr);
                      });
  sim::TimePoint t0 = bed.engine().now();
  sim::Duration udp_rtt = 0;
  bed.machine().stack().udp_bind(
      8, nullptr, [&](const net::NetworkStack::UdpDelivery&) {
        udp_rtt = bed.engine().now() - t0;
      });
  bed.machine().stack().udp_send(bed.machine().bridge_ip(), 8, vm_ip, 7, 56,
                                 nullptr);
  bed.run_for(sim::milliseconds(10));
  ASSERT_GT(udp_rtt, 0u);
  EXPECT_LT(ping_rtt, udp_rtt);
}

TEST_F(IcmpFixture, UnansweredPingNeverFires) {
  bool fired = false;
  bed.machine().stack().ping(net::Ipv4Address(203, 0, 113, 77), 56,
                             [&](sim::Duration) { fired = true; });
  bed.run_for(sim::milliseconds(50));
  EXPECT_FALSE(fired);
}

TEST_F(IcmpFixture, PortUnreachableReported) {
  int errors = 0;
  std::uint8_t type = 0, code = 0;
  bed.machine().stack().set_icmp_error_handler([&](const net::Packet& p) {
    ++errors;
    type = p.icmp_type;
    code = p.icmp_code;
  });
  bed.machine().stack().udp_send(bed.machine().bridge_ip(), 5000, vm_ip,
                                 4242, 64, nullptr);  // nothing bound
  bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(type, 3);
  EXPECT_EQ(code, 3);
  EXPECT_EQ(vm.stack().icmp_errors_sent(), 1u);
}

TEST_F(IcmpFixture, TtlExceededFromForwarder) {
  // The VM forwards for the pod behind its docker network.  A pod datagram
  // for the host whose TTL dies at the VM is dropped there, and the pod
  // hears time-exceeded from the VM's docker0 gateway address.
  core::GuestDockerNetwork docker(vm);
  container::Pod& pod = bed.create_pod("p");
  container::Pod::Fragment& frag = pod.add_fragment(vm);
  const auto at = docker.attach(frag, 1448);
  std::vector<net::Packet> errors;
  frag.stack->set_icmp_error_handler(
      [&](const net::Packet& p) { errors.push_back(p); });
  int got = 0;
  bed.machine().stack().udp_bind(
      7, nullptr, [&](const net::NetworkStack::UdpDelivery&) { ++got; });

  net::EthernetFrame f;
  f.src = frag.stack->iface_mac(at.ifindex);
  f.dst = vm.stack().iface_mac(vm.stack().ifindex_of("docker0"));
  f.packet.src_ip = at.ip;
  f.packet.dst_ip = bed.machine().bridge_ip();
  f.packet.src_port = 1000;
  f.packet.dst_port = 7;
  f.packet.payload_bytes = 64;
  f.packet.ttl = 1;
  // Port 1 of docker0 is the pod's veth; the bridge hands the frame to the
  // VM through its docker0 port backend.
  docker.bridge().ingress(std::move(f), 1);
  bed.run_for(sim::milliseconds(10));

  EXPECT_EQ(got, 0);
  EXPECT_EQ(vm.stack().packets_forwarded(), 0u);
  EXPECT_EQ(vm.stack().icmp_errors_sent(), 1u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].icmp_type, 11);
  EXPECT_EQ(errors[0].src_ip, docker.gateway_ip());
}

// ---- pcap ---------------------------------------------------------------------

TEST(Pcap, WritesValidHeaderAndFrames) {
  const std::string path = "/tmp/nestv_test_capture.pcap";
  {
    scenario::Testbed bed{scenario::TestbedConfig{.seed = 4}};
    vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
    net::PcapWriter writer(path);
    bed.machine().stack().attach_capture(&writer);

    const auto vm_ip = vm.stack().iface_ip(vm.stack().ifindex_of("eth0"));
    vm.stack().udp_bind(7, nullptr,
                        [](const net::NetworkStack::UdpDelivery&) {});
    bed.machine().stack().udp_send(bed.machine().bridge_ip(), 9, vm_ip, 7,
                                   100, nullptr);
    bed.run_for(sim::milliseconds(10));
    EXPECT_GE(writer.frames_written(), 1u);
    bed.machine().stack().attach_capture(nullptr);
  }
  // Validate the global header magic + linktype.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::uint32_t magic = 0;
  ASSERT_EQ(std::fread(&magic, 4, 1, f), 1u);
  EXPECT_EQ(magic, 0xa1b2c3d4u);
  std::fseek(f, 20, SEEK_SET);
  std::uint32_t linktype = 0;
  ASSERT_EQ(std::fread(&linktype, 4, 1, f), 1u);
  EXPECT_EQ(linktype, 1u);  // Ethernet
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Pcap, RecordsParseableIpv4) {
  const std::string path = "/tmp/nestv_test_capture2.pcap";
  {
    sim::Engine engine;
    net::PcapWriter writer(path);
    net::EthernetFrame frame;
    frame.src = net::MacAddress::local_from_id(1);
    frame.dst = net::MacAddress::local_from_id(2);
    frame.packet.src_ip = net::Ipv4Address(10, 0, 0, 1);
    frame.packet.dst_ip = net::Ipv4Address(10, 0, 0, 2);
    frame.packet.proto = net::L4Proto::kUdp;
    frame.packet.payload_bytes = 32;
    writer.record(sim::microseconds(1500), frame);
    writer.flush();
    EXPECT_EQ(writer.frames_written(), 1u);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  // Skip global header (24) + record header (16), read the frame.
  std::fseek(f, 24 + 16, SEEK_SET);
  std::vector<std::uint8_t> frame_bytes(14 + 20 + 8 + 32);
  ASSERT_EQ(std::fread(frame_bytes.data(), 1, frame_bytes.size(), f),
            frame_bytes.size());
  std::fclose(f);
  const std::vector<std::uint8_t> ip(frame_bytes.begin() + 14,
                                     frame_bytes.end());
  const auto parsed = net::wire::parse_ipv4(ip);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst_ip, net::Ipv4Address(10, 0, 0, 2));
  std::remove(path.c_str());
}

// ---- MemPipe -------------------------------------------------------------------

struct MemPipeFixture : ::testing::Test {
  scenario::Testbed bed{scenario::TestbedConfig{.seed = 5}};
  vmm::Vm& vm1 = bed.create_vm_with_uplink("vm1");
  vmm::Vm& vm2 = bed.create_vm_with_uplink("vm2");
  vmm::MemPipe pipe{vm1, vm2};
};

TEST_F(MemPipeFixture, TransfersFramesBothWays) {
  std::vector<net::EthernetFrame> at_b, at_a;
  pipe.endpoint_a().set_rx(
      [&](net::EthernetFrame&& f) { at_a.push_back(std::move(f)); });
  pipe.endpoint_b().set_rx(
      [&](net::EthernetFrame&& f) { at_b.push_back(std::move(f)); });

  net::EthernetFrame f;
  f.packet.payload_bytes = 100;
  pipe.endpoint_a().xmit(net::EthernetFrame(f));
  pipe.endpoint_b().xmit(std::move(f));
  bed.run_for(sim::milliseconds(1));
  EXPECT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_a.size(), 1u);
  EXPECT_EQ(pipe.frames_transferred(), 2u);
}

TEST_F(MemPipeFixture, UsableAsPodLocalhost) {
  // Wire a two-fragment pod over MemPipe instead of Hostlo and run UDP RR.
  container::Pod& pod = bed.create_pod("p");
  auto& fa = pod.add_fragment(vm1);
  auto& fb = pod.add_fragment(vm2);
  const net::Ipv4Cidr subnet(net::Ipv4Address(169, 254, 200, 0), 24);
  const auto ip_a = subnet.host(1);
  const auto ip_b = subnet.host(2);
  fa.stack->add_interface(pipe.endpoint_a(),
                          {"mp0", bed.machine().allocate_mac(), ip_a,
                           subnet, 1500, 1448});
  fb.stack->add_interface(pipe.endpoint_b(),
                          {"mp0", bed.machine().allocate_mac(), ip_b,
                           subnet, 1500, 1448});

  int got = 0;
  fb.stack->udp_bind(7, nullptr,
                     [&](const net::NetworkStack::UdpDelivery&) { ++got; });
  fa.stack->udp_send(ip_a, 1000, ip_b, 7, 64, nullptr);
  bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(got, 1);
}

TEST_F(MemPipeFixture, NoHostKernelInvolvement) {
  net::EthernetFrame f;
  f.packet.payload_bytes = 1000;
  const auto host_sys_before =
      bed.machine().host_account().get(sim::CpuCategory::kSys);
  pipe.endpoint_a().xmit(std::move(f));
  bed.run_for(sim::milliseconds(1));
  // MemPipe is guest-to-guest shared memory: no vhost/host-module time.
  EXPECT_EQ(bed.machine().host_account().get(sim::CpuCategory::kSys),
            host_sys_before);
}

// ---- VirtFS ---------------------------------------------------------------------

struct VirtfsFixture : ::testing::Test {
  scenario::Testbed bed{scenario::TestbedConfig{.seed = 6}};
  vmm::Vm& vm1 = bed.create_vm_with_uplink("vm1");
  vmm::Vm& vm2 = bed.create_vm_with_uplink("vm2");
  storage::HostFileStore store{bed.machine()};
};

TEST_F(VirtfsFixture, WriteThenReadSameMount) {
  storage::VirtfsMount mount(store, vm1);
  std::uint64_t version = 0;
  mount.write("data/log", 4096, [&](std::uint64_t v) { version = v; });
  bed.run_for(sim::milliseconds(5));
  EXPECT_EQ(version, 1u);

  storage::VirtfsMount::ReadResult r;
  mount.read("data/log", [&](storage::VirtfsMount::ReadResult rr) { r = rr; });
  bed.run_for(sim::milliseconds(5));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.bytes, 4096u);
  EXPECT_EQ(r.version, 1u);
}

TEST_F(VirtfsFixture, CrossVmConsistency) {
  // Section 4.3.1's requirement: both VMs of a disaggregated pod see the
  // same volume state, because the host is authoritative (write-through).
  storage::SharedVolume volume(store, "vol-analytics");
  auto& m1 = volume.mount_in(vm1);
  auto& m2 = volume.mount_in(vm2);

  bool written = false;
  m1.write(volume.path_of("state.db"), 1024,
           [&](std::uint64_t) { written = true; });
  bed.run_until_ready([&written] { return written; });

  storage::VirtfsMount::ReadResult r;
  m2.read(volume.path_of("state.db"),
          [&](storage::VirtfsMount::ReadResult rr) { r = rr; });
  bed.run_for(sim::milliseconds(5));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.bytes, 1024u);
  EXPECT_EQ(r.version, 1u);
}

TEST_F(VirtfsFixture, VersionsAdvancePerWrite) {
  storage::VirtfsMount m1(store, vm1);
  storage::VirtfsMount m2(store, vm2);
  std::uint64_t v_last = 0;
  m1.write("f", 10, [&](std::uint64_t v) { v_last = v; });
  bed.run_for(sim::milliseconds(5));
  m2.write("f", 10, [&](std::uint64_t v) { v_last = v; });
  bed.run_for(sim::milliseconds(5));
  EXPECT_EQ(v_last, 2u);
  EXPECT_EQ(store.stat("f")->size, 20u);
}

TEST_F(VirtfsFixture, UnlinkRemoves) {
  storage::VirtfsMount mount(store, vm1);
  mount.write("tmp", 1, {});
  bed.run_for(sim::milliseconds(5));
  bool existed = false;
  mount.unlink("tmp", [&](bool e) { existed = e; });
  bed.run_for(sim::milliseconds(5));
  EXPECT_TRUE(existed);
  EXPECT_FALSE(store.exists("tmp"));
}

TEST_F(VirtfsFixture, OpsTakeTransportTime) {
  storage::VirtfsMount mount(store, vm1);
  const auto t0 = bed.engine().now();
  sim::TimePoint t_done = 0;
  mount.write("slow", 1, [&](std::uint64_t) { t_done = bed.engine().now(); });
  bed.run_for(sim::milliseconds(5));
  EXPECT_GE(t_done - t0, sim::microseconds(14));  // >= one transport RTT
}

TEST_F(VirtfsFixture, ListByPrefix) {
  storage::VirtfsMount mount(store, vm1);
  mount.write("a/1", 1, {});
  mount.write("a/2", 1, {});
  mount.write("b/1", 1, {});
  bed.run_for(sim::milliseconds(10));
  EXPECT_EQ(store.list("a/").size(), 2u);
  EXPECT_EQ(store.file_count(), 3u);
}

}  // namespace
}  // namespace nestv

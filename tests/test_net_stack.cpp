// Integration tests for NetworkStack: UDP, TCP, loopback, forwarding, GRO,
// forced resegmentation and the VXLAN device.  ARP is the shared link
// layer's, tested once per backend in test_stack_backend.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/bridge.hpp"
#include "net/stack.hpp"
#include "net/vxlan.hpp"
#include "sim/engine.hpp"

namespace nestv::net {
namespace {

const sim::CostModel kCosts{};

/// Two stacks on one bridge: 10.0.0.1 (alice) and 10.0.0.2 (bob).
struct TwoStacks : ::testing::Test {
  sim::Engine engine;
  Bridge bridge{engine, "br", kCosts};
  PortBackend port_a{engine, "pa", kCosts};
  PortBackend port_b{engine, "pb", kCosts};
  NetworkStack alice{engine, "alice", kCosts, nullptr};
  NetworkStack bob{engine, "bob", kCosts, nullptr};
  Ipv4Address ip_a{10, 0, 0, 1};
  Ipv4Address ip_b{10, 0, 0, 2};

  void SetUp() override {
    Device::connect(port_a, 0, bridge, bridge.add_port());
    Device::connect(port_b, 0, bridge, bridge.add_port());
    const Ipv4Cidr subnet(Ipv4Address(10, 0, 0, 0), 24);
    alice.add_interface(port_a, {"eth0", MacAddress::local_from_id(1), ip_a,
                                 subnet, 1500, 1448});
    bob.add_interface(port_b, {"eth0", MacAddress::local_from_id(2), ip_b,
                               subnet, 1500, 1448});
  }
};

// ---- UDP -------------------------------------------------------------------------

TEST_F(TwoStacks, UdpDeliveryCarriesMetadata) {
  NetworkStack::UdpDelivery seen{};
  bob.udp_bind(7, nullptr,
               [&](NetworkStack::UdpDelivery& d) { seen = std::move(d); });
  alice.udp_send(ip_a, 1234, ip_b, 7, 321, nullptr);
  engine.run();
  EXPECT_EQ(seen.bytes, 321u);
  EXPECT_EQ(seen.src_ip, ip_a);
  EXPECT_EQ(seen.src_port, 1234);
}

TEST_F(TwoStacks, UdpToUnboundPortDropped) {
  alice.udp_send(ip_a, 1000, ip_b, 999, 64, nullptr);
  engine.run();
  EXPECT_GT(bob.packets_dropped(), 0u);
}

TEST_F(TwoStacks, UdpUnbindStopsDelivery) {
  int got = 0;
  bob.udp_bind(7, nullptr, [&](const NetworkStack::UdpDelivery&) { ++got; });
  alice.udp_send(ip_a, 1000, ip_b, 7, 64, nullptr);
  engine.run();
  bob.udp_unbind(7);
  alice.udp_send(ip_a, 1000, ip_b, 7, 64, nullptr);
  engine.run();
  EXPECT_EQ(got, 1);
}

TEST_F(TwoStacks, UdpEchoRoundTripTimed) {
  bob.udp_bind(7, nullptr, [&](const NetworkStack::UdpDelivery& d) {
    bob.udp_send(ip_b, 7, d.src_ip, d.src_port, d.bytes, nullptr);
  });
  sim::TimePoint reply_at = 0;
  alice.udp_bind(8, nullptr, [&](const NetworkStack::UdpDelivery&) {
    reply_at = engine.now();
  });
  alice.udp_send(ip_a, 8, ip_b, 7, 64, nullptr);
  engine.run();
  EXPECT_GT(reply_at, 0u);
  EXPECT_LT(reply_at, sim::milliseconds(1));  // LAN round trip is microseconds
}

// ---- loopback -----------------------------------------------------------------------

TEST_F(TwoStacks, LoopbackDelivery) {
  int got = 0;
  alice.udp_bind(7, nullptr, [&](const NetworkStack::UdpDelivery&) { ++got; });
  alice.udp_send(Ipv4Address(127, 0, 0, 1), 99, Ipv4Address(127, 0, 0, 1), 7,
                 64, nullptr);
  engine.run();
  EXPECT_EQ(got, 1);
}

TEST_F(TwoStacks, OwnAddressIsLocal) {
  int got = 0;
  alice.udp_bind(7, nullptr, [&](const NetworkStack::UdpDelivery&) { ++got; });
  alice.udp_send(ip_a, 99, ip_a, 7, 64, nullptr);  // to own eth0 address
  engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(alice.arp_requests_sent(), 0u);  // never left the stack
}

// ---- TCP -------------------------------------------------------------------------------

TEST_F(TwoStacks, TcpHandshakeEstablishes) {
  bool accepted = false;
  bob.tcp_listen(80, nullptr, [&](TcpSocket) { accepted = true; });
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  bool connected = false;
  client.set_on_connected([&] { connected = true; });
  engine.run();
  EXPECT_TRUE(accepted);
  EXPECT_TRUE(connected);
  EXPECT_TRUE(client.established());
}

TEST_F(TwoStacks, TcpTransfersExactByteCount) {
  std::uint64_t received = 0;
  bob.tcp_listen(80, nullptr, [&](TcpSocket sock) {
    sock.set_on_receive([&](std::uint32_t n) { received += n; });
  });
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  client.set_on_connected([&client] { client.send(10000); });
  engine.run();
  EXPECT_EQ(received, 10000u);
  EXPECT_EQ(client.bytes_sent(), 10000u);
  EXPECT_EQ(client.retransmits(), 0u);
}

TEST_F(TwoStacks, TcpSegmentsRespectGso) {
  // gso is 1448 on these interfaces; a 10KB write must arrive in several
  // deliveries, cumulatively complete.
  std::uint64_t received = 0;
  bob.tcp_listen(80, nullptr, [&](TcpSocket sock) {
    sock.set_on_receive([&](std::uint32_t n) { received += n; });
  });
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  client.set_on_connected([&client] { client.send(10 * 1448); });
  engine.run();
  EXPECT_EQ(received, 10u * 1448u);
}

TEST_F(TwoStacks, TcpBidirectional) {
  std::uint64_t bob_got = 0, alice_got = 0;
  bob.tcp_listen(80, nullptr, [&](TcpSocket sock) {
    auto server = std::make_shared<TcpSocket>(sock);
    server->set_on_receive([&, server](std::uint32_t n) {
      bob_got += n;
      server->send(n * 2);  // reply with twice the bytes
    });
  });
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  client.set_on_connected([&client] { client.send(500); });
  client.set_on_receive([&](std::uint32_t n) { alice_got += n; });
  engine.run();
  EXPECT_EQ(bob_got, 500u);
  EXPECT_EQ(alice_got, 1000u);
}

TEST_F(TwoStacks, TcpOnQueuedFiresAfterSyscall) {
  bob.tcp_listen(80, nullptr, [](TcpSocket) {});
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  bool queued = false;
  client.set_on_connected([&client, &queued] {
    client.send(100, [&queued] { queued = true; });
  });
  engine.run();
  EXPECT_TRUE(queued);
}

TEST_F(TwoStacks, TcpCloseCompletesCleanly) {
  bool closed = false;
  bob.tcp_listen(80, nullptr, [&](TcpSocket sock) {
    sock.set_on_closed([&] { closed = true; });
  });
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  client.set_on_connected([&client] {
    client.send(100);
    client.close();
  });
  engine.run();
  EXPECT_TRUE(closed);
  EXPECT_FALSE(client.established());
}

TEST_F(TwoStacks, TcpConnectToClosedPortGetsNothing) {
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 81, nullptr);
  bool connected = false;
  client.set_on_connected([&] { connected = true; });
  // Run a bounded slice (SYN retransmits would otherwise keep the queue
  // alive for a while).
  engine.run_until(sim::milliseconds(50));
  EXPECT_FALSE(connected);
}

TEST_F(TwoStacks, TcpNagleCoalescesStreamWrites) {
  // Many small writes while data is in flight must produce fewer, larger
  // segments: total delivered equals total sent.
  std::uint64_t received = 0;
  int deliveries = 0;
  bob.tcp_listen(80, nullptr, [&](TcpSocket sock) {
    sock.set_on_receive([&](std::uint32_t n) {
      received += n;
      ++deliveries;
    });
  });
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  client.set_on_connected([&client] {
    for (int i = 0; i < 100; ++i) client.send(100);
  });
  engine.run();
  EXPECT_EQ(received, 10000u);
  EXPECT_LT(deliveries, 100);
}

// ---- forwarding + DNAT through a middle stack ------------------------------------------

struct ForwardingFixture : ::testing::Test {
  sim::Engine engine;
  // alice -- br1 -- router -- br2 -- bob
  Bridge br1{engine, "br1", kCosts};
  Bridge br2{engine, "br2", kCosts};
  PortBackend pa{engine, "pa", kCosts}, pr1{engine, "pr1", kCosts},
      pr2{engine, "pr2", kCosts}, pb{engine, "pb", kCosts};
  NetworkStack alice{engine, "alice", kCosts, nullptr};
  NetworkStack router{engine, "router", kCosts, nullptr};
  NetworkStack bob{engine, "bob", kCosts, nullptr};
  Ipv4Address ip_a{10, 0, 1, 2}, ip_r1{10, 0, 1, 1}, ip_r2{10, 0, 2, 1},
      ip_b{10, 0, 2, 2};

  void SetUp() override {
    Device::connect(pa, 0, br1, br1.add_port());
    Device::connect(pr1, 0, br1, br1.add_port());
    Device::connect(pr2, 0, br2, br2.add_port());
    Device::connect(pb, 0, br2, br2.add_port());
    const Ipv4Cidr net1(Ipv4Address(10, 0, 1, 0), 24);
    const Ipv4Cidr net2(Ipv4Address(10, 0, 2, 0), 24);
    const int a_if = alice.add_interface(
        pa, {"eth0", MacAddress::local_from_id(11), ip_a, net1, 1500, 1448});
    router.add_interface(pr1, {"eth0", MacAddress::local_from_id(12), ip_r1,
                               net1, 1500, 1448});
    router.add_interface(pr2, {"eth1", MacAddress::local_from_id(13), ip_r2,
                               net2, 1500, 1448});
    const int b_if = bob.add_interface(
        pb, {"eth0", MacAddress::local_from_id(14), ip_b, net2, 1500, 1448});
    alice.routes().add_default(ip_r1, a_if);
    bob.routes().add_default(ip_r2, b_if);
    router.set_forwarding(true);
  }
};

TEST_F(ForwardingFixture, RoutesAcrossSubnets) {
  int got = 0;
  bob.udp_bind(7, nullptr, [&](const NetworkStack::UdpDelivery&) { ++got; });
  alice.udp_send(ip_a, 1000, ip_b, 7, 64, nullptr);
  engine.run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(router.packets_forwarded(), 1u);
}

TEST_F(ForwardingFixture, TtlExpiresInLoops) {
  // TTL is what ends a forwarding loop: each hop takes one, and the hop
  // that would take the last drops the datagram and reports time-exceeded.
  int got = 0;
  bob.udp_bind(7, nullptr, [&](const NetworkStack::UdpDelivery&) { ++got; });
  std::vector<Packet> errors;
  alice.set_icmp_error_handler([&](const Packet& p) { errors.push_back(p); });
  auto alice_to_bob = [this](std::uint8_t ttl) {
    EthernetFrame f;
    f.src = MacAddress::local_from_id(11);
    f.dst = MacAddress::local_from_id(12);
    f.packet.src_ip = ip_a;
    f.packet.dst_ip = ip_b;
    f.packet.src_port = 1000;
    f.packet.dst_port = 7;
    f.packet.payload_bytes = 64;
    f.packet.ttl = ttl;
    pr1.ingress(std::move(f), 0);
    engine.run();
  };
  alice_to_bob(2);  // one hop left after the router: delivered
  EXPECT_EQ(got, 1);
  EXPECT_EQ(router.packets_forwarded(), 1u);
  const std::uint64_t dropped = router.packets_dropped();
  alice_to_bob(1);  // dies at the router
  EXPECT_EQ(got, 1);
  EXPECT_EQ(router.packets_forwarded(), 1u);
  EXPECT_EQ(router.packets_dropped(), dropped + 1);
  EXPECT_EQ(router.icmp_errors_sent(), 1u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].icmp_type, 11);  // time exceeded
  EXPECT_EQ(errors[0].icmp_code, 0);   // in transit
  EXPECT_EQ(errors[0].src_ip, ip_r1);
}

// The router is multi-homed (eth0 on 10.0.1/24, eth1 on 10.0.2/24): its
// ICMP errors and pings must come from the interface the traffic uses, not
// from whichever interface was added first.
TEST_F(ForwardingFixture, IcmpTimeExceededComesFromReceivingInterface) {
  std::vector<Ipv4Address> error_sources;
  bob.set_icmp_error_handler(
      [&](const Packet& p) { error_sources.push_back(p.src_ip); });
  // A bob -> alice datagram whose TTL dies at the router, arriving on eth1.
  EthernetFrame f;
  f.src = MacAddress::local_from_id(14);
  f.dst = MacAddress::local_from_id(13);
  f.packet.src_ip = ip_b;
  f.packet.dst_ip = ip_a;
  f.packet.src_port = 1000;
  f.packet.dst_port = 7;
  f.packet.payload_bytes = 64;
  f.packet.ttl = 1;
  pr2.ingress(std::move(f), 0);
  engine.run();
  EXPECT_EQ(router.icmp_errors_sent(), 1u);
  ASSERT_EQ(error_sources.size(), 1u);
  EXPECT_EQ(error_sources[0], ip_r2);
}

TEST_F(ForwardingFixture, IcmpPortUnreachableComesFromAddressedInterface) {
  std::vector<Ipv4Address> error_sources;
  bob.set_icmp_error_handler(
      [&](const Packet& p) { error_sources.push_back(p.src_ip); });
  bob.udp_send(ip_b, 1000, ip_r2, 999, 64, nullptr);  // nothing bound
  engine.run();
  ASSERT_EQ(error_sources.size(), 1u);
  EXPECT_EQ(error_sources[0], ip_r2);
}

TEST_F(ForwardingFixture, PingSourceIsTheEgressInterface) {
  // Bob drops ICMP from the router's eth0 address, so only a ping sourced
  // from eth1 (the route toward bob) gets its echo reply.
  Rule not_eth0;
  not_eth0.match.proto = L4Proto::kIcmp;
  not_eth0.match.src = Ipv4Cidr(ip_r1, 32);
  not_eth0.target = TargetKind::kDrop;
  bob.netfilter().add_filter_rule(Hook::kInput, not_eth0);
  int replies = 0;
  router.ping(ip_b, 56, [&](sim::Duration) { ++replies; });
  router.ping(ip_a, 56, [&](sim::Duration) { ++replies; });
  engine.run();
  EXPECT_EQ(replies, 2);
}

TEST_F(ForwardingFixture, ForwardingDisabledDrops) {
  router.set_forwarding(false);
  int got = 0;
  bob.udp_bind(7, nullptr, [&](const NetworkStack::UdpDelivery&) { ++got; });
  alice.udp_send(ip_a, 1000, ip_b, 7, 64, nullptr);
  engine.run();
  EXPECT_EQ(got, 0);
  EXPECT_GT(router.packets_dropped(), 0u);
}

TEST_F(ForwardingFixture, TcpThroughRouter) {
  std::uint64_t received = 0;
  bob.tcp_listen(80, nullptr, [&](TcpSocket sock) {
    sock.set_on_receive([&](std::uint32_t n) { received += n; });
  });
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  client.set_on_connected([&client] { client.send(5000); });
  engine.run();
  EXPECT_EQ(received, 5000u);
}

TEST_F(ForwardingFixture, ForcedResegmentSplitsAndReassembles) {
  // Router linearizes to 1000-byte pieces; bob's GRO re-coalesces; the
  // byte stream is intact either way.
  router.set_forced_resegment(1000);
  alice.set_iface_gso(alice.ifindex_of("eth0"), 8000);

  std::uint64_t received = 0;
  bob.tcp_listen(80, nullptr, [&](TcpSocket sock) {
    sock.set_on_receive([&](std::uint32_t n) { received += n; });
  });
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  client.set_on_connected([&client] { client.send(16000); });
  engine.run();
  EXPECT_EQ(received, 16000u);
  // The router forwarded more packets than alice emitted segments.
  EXPECT_GT(router.packets_forwarded(), 16000u / 8000u);
}

TEST_F(ForwardingFixture, GroCoalescesAtReceiver) {
  router.set_forced_resegment(1000);
  alice.set_iface_gso(alice.ifindex_of("eth0"), 8000);

  int deliveries = 0;
  std::uint64_t received = 0;
  bob.tcp_listen(80, nullptr, [&](TcpSocket sock) {
    sock.set_on_receive([&](std::uint32_t n) {
      received += n;
      ++deliveries;
    });
  });
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  client.set_on_connected([&client] { client.send(8000); });
  engine.run();
  EXPECT_EQ(received, 8000u);
  // 8 chunks of 1000 arrive; GRO merges them into far fewer deliveries.
  EXPECT_LE(deliveries, 3);
}

TEST_F(ForwardingFixture, GroDisabledDeliversPerChunk) {
  router.set_forced_resegment(1000);
  alice.set_iface_gso(alice.ifindex_of("eth0"), 8000);
  bob.set_gro(false);

  int deliveries = 0;
  std::uint64_t received = 0;
  bob.tcp_listen(80, nullptr, [&](TcpSocket sock) {
    sock.set_on_receive([&](std::uint32_t n) {
      received += n;
      ++deliveries;
    });
  });
  TcpSocket client = alice.tcp_connect(ip_a, ip_b, 80, nullptr);
  client.set_on_connected([&client] { client.send(8000); });
  engine.run();
  EXPECT_EQ(received, 8000u);
  // Without GRO the TCP layer sees (nearly) every wire chunk; deliveries
  // may still batch at the app wakeup, so just require more than with GRO.
  EXPECT_GE(deliveries, 1);
  EXPECT_EQ(bob.packets_delivered(), 8u + 2u);  // 8 data chunks + handshake ACK...
}

// ---- VXLAN ---------------------------------------------------------------------------------

TEST_F(TwoStacks, VxlanEncapsulatesAndDecapsulates) {
  // Overlay bridges on both sides, VTEPs riding alice/bob underlay.
  Bridge ov_a(engine, "ov-a", kCosts);
  Bridge ov_b(engine, "ov-b", kCosts);
  VxlanDevice vx_a(engine, "vxlan-a", kCosts, alice, ip_a);
  VxlanDevice vx_b(engine, "vxlan-b", kCosts, bob, ip_b);
  Device::connect(vx_a, 0, ov_a, ov_a.add_port());
  Device::connect(vx_b, 0, ov_b, ov_b.add_port());

  // One overlay member behind each bridge.
  PortBackend mem_a(engine, "ma", kCosts), mem_b(engine, "mb", kCosts);
  Device::connect(mem_a, 0, ov_a, ov_a.add_port());
  Device::connect(mem_b, 0, ov_b, ov_b.add_port());
  const auto mac_a = MacAddress::local_from_id(100);
  const auto mac_b = MacAddress::local_from_id(101);
  vx_a.add_remote(mac_b, ip_b);
  vx_b.add_remote(mac_a, ip_a);

  std::vector<EthernetFrame> at_b;
  mem_b.set_rx([&](EthernetFrame&& f) { at_b.push_back(std::move(f)); });

  EthernetFrame inner;
  inner.src = mac_a;
  inner.dst = mac_b;
  inner.packet.proto = L4Proto::kUdp;
  inner.packet.src_ip = Ipv4Address(10, 99, 0, 1);
  inner.packet.dst_ip = Ipv4Address(10, 99, 0, 2);
  inner.packet.payload_bytes = 77;
  mem_a.xmit(std::move(inner));
  engine.run();

  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0].packet.payload_bytes, 77u);
  EXPECT_EQ(at_b[0].dst, mac_b);
  EXPECT_EQ(vx_a.encapsulated(), 1u);
  EXPECT_EQ(vx_b.decapsulated(), 1u);
}

}  // namespace
}  // namespace nestv::net

// IPv4 fragmentation/reassembly of oversized UDP datagrams.
#include <gtest/gtest.h>

#include "net/bridge.hpp"
#include "net/stack.hpp"
#include "sim/engine.hpp"

namespace nestv::net {
namespace {

const sim::CostModel kCosts{};

struct FragFixture : ::testing::Test {
  sim::Engine engine;
  Bridge bridge{engine, "br", kCosts};
  PortBackend pa{engine, "pa", kCosts}, pb{engine, "pb", kCosts};
  NetworkStack alice{engine, "alice", kCosts, nullptr};
  NetworkStack bob{engine, "bob", kCosts, nullptr};
  Ipv4Address ip_a{10, 0, 0, 1}, ip_b{10, 0, 0, 2};

  void SetUp() override {
    Device::connect(pa, 0, bridge, bridge.add_port());
    Device::connect(pb, 0, bridge, bridge.add_port());
    const Ipv4Cidr subnet(Ipv4Address(10, 0, 0, 0), 24);
    alice.add_interface(pa, {"eth0", MacAddress::local_from_id(1), ip_a,
                             subnet, 1500, 1448});
    bob.add_interface(pb, {"eth0", MacAddress::local_from_id(2), ip_b,
                           subnet, 1500, 1448});
  }
};

TEST_F(FragFixture, OversizedDatagramArrivesWhole) {
  NetworkStack::UdpDelivery seen{};
  int deliveries = 0;
  bob.udp_bind(7, nullptr, [&](NetworkStack::UdpDelivery& d) {
    seen = std::move(d);
    ++deliveries;
  });
  alice.udp_send(ip_a, 1000, ip_b, 7, 9000, nullptr);  // 9000 > 1472
  engine.run();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(seen.bytes, 9000u);
  EXPECT_EQ(bob.reassembly_failures(), 0u);
}

TEST_F(FragFixture, FragmentsCrossTheWireIndividually) {
  bob.udp_bind(7, nullptr, [](const NetworkStack::UdpDelivery&) {});
  const auto fwd_before = pa.frames_forwarded();
  alice.udp_send(ip_a, 1000, ip_b, 7, 4000, nullptr);
  engine.run();
  // 4000 bytes at 1464-aligned chunks: ceil(4000/1464) = 3 frames (+ARP).
  EXPECT_GE(pa.frames_forwarded() - fwd_before, 3u);
}

TEST_F(FragFixture, SmallDatagramNotFragmented) {
  bob.udp_bind(7, nullptr, [](const NetworkStack::UdpDelivery&) {});
  alice.udp_send(ip_a, 1000, ip_b, 7, 1400, nullptr);
  engine.run();
  // 1 data frame + 1 ARP request + 1 ARP reply handled; no extra pieces.
  EXPECT_LE(pa.frames_forwarded(), 2u);
}

TEST_F(FragFixture, ManyDatagramsInterleaved) {
  std::uint64_t total = 0;
  int deliveries = 0;
  bob.udp_bind(7, nullptr, [&](const NetworkStack::UdpDelivery& d) {
    total += d.bytes;
    ++deliveries;
  });
  for (int i = 0; i < 10; ++i) {
    alice.udp_send(ip_a, 1000, ip_b, 7, 5000, nullptr);
  }
  engine.run();
  EXPECT_EQ(deliveries, 10);
  EXPECT_EQ(total, 50000u);
  EXPECT_EQ(bob.reassembly_failures(), 0u);
}

TEST_F(FragFixture, BothDirectionsSimultaneously) {
  int a_got = 0, b_got = 0;
  alice.udp_bind(8, nullptr,
                 [&](const NetworkStack::UdpDelivery&) { ++a_got; });
  bob.udp_bind(7, nullptr,
               [&](const NetworkStack::UdpDelivery&) { ++b_got; });
  alice.udp_send(ip_a, 8, ip_b, 7, 6000, nullptr);
  bob.udp_send(ip_b, 7, ip_a, 8, 6000, nullptr);
  engine.run();
  EXPECT_EQ(a_got, 1);
  EXPECT_EQ(b_got, 1);
}

TEST_F(FragFixture, EchoOfOversizedPayload) {
  bob.udp_bind(7, nullptr, [this](const NetworkStack::UdpDelivery& d) {
    bob.udp_send(ip_b, 7, d.src_ip, d.src_port, d.bytes, nullptr);
  });
  std::uint32_t echoed = 0;
  alice.udp_bind(9, nullptr, [&](const NetworkStack::UdpDelivery& d) {
    echoed = d.bytes;
  });
  alice.udp_send(ip_a, 9, ip_b, 7, 8000, nullptr);
  engine.run();
  EXPECT_EQ(echoed, 8000u);
}

}  // namespace
}  // namespace nestv::net

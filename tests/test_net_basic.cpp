// Unit tests for addresses, packets, wire format, routing and neighbours.
#include <gtest/gtest.h>

#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/address.hpp"
#include "net/neighbor.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "net/route.hpp"
#include "net/wire.hpp"
#include "sim/rng.hpp"

namespace nestv::net {
namespace {

// ---- MAC addresses -------------------------------------------------------------

TEST(MacAddress, RoundTripString) {
  const MacAddress m({0x02, 0x00, 0x00, 0xab, 0xcd, 0xef});
  EXPECT_EQ(m.to_string(), "02:00:00:ab:cd:ef");
  const auto parsed = MacAddress::parse("02:00:00:ab:cd:ef");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, m);
}

TEST(MacAddress, ParseRejectsGarbage) {
  EXPECT_FALSE(MacAddress::parse("not-a-mac").has_value());
  EXPECT_FALSE(MacAddress::parse("02:00:00:ab:cd").has_value());
}

TEST(MacAddress, BroadcastAndMulticast) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_multicast());
  const MacAddress multicast({0x01, 0x00, 0x5e, 0, 0, 1});
  EXPECT_TRUE(multicast.is_multicast());
  EXPECT_FALSE(multicast.is_broadcast());
  EXPECT_FALSE(MacAddress::local_from_id(7).is_multicast());
}

TEST(MacAddress, LocalFromIdUniqueAndLocal) {
  const auto a = MacAddress::local_from_id(1);
  const auto b = MacAddress::local_from_id(2);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.octets()[0], 0x02);  // locally administered, unicast
}

TEST(MacAddress, AsU64Distinct) {
  EXPECT_NE(MacAddress::local_from_id(1).as_u64(),
            MacAddress::local_from_id(256).as_u64());
}

// ---- IPv4 addresses --------------------------------------------------------------

TEST(Ipv4Address, RoundTripString) {
  const Ipv4Address a(192, 168, 122, 1);
  EXPECT_EQ(a.to_string(), "192.168.122.1");
  const auto parsed = Ipv4Address::parse("192.168.122.1");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, a);
}

TEST(Ipv4Address, ParseRejectsInvalid) {
  EXPECT_FALSE(Ipv4Address::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4Address::parse("256.1.1.1").has_value());
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4Address::parse("").has_value());
}

TEST(Ipv4Address, Loopback) {
  EXPECT_TRUE(Ipv4Address(127, 0, 0, 1).is_loopback());
  EXPECT_TRUE(Ipv4Address(127, 255, 0, 9).is_loopback());
  EXPECT_FALSE(Ipv4Address(128, 0, 0, 1).is_loopback());
  EXPECT_TRUE(Ipv4Address().is_unspecified());
}

// ---- CIDR ---------------------------------------------------------------------------

TEST(Ipv4Cidr, ContainsAndMask) {
  const Ipv4Cidr net(Ipv4Address(10, 0, 3, 0), 24);
  EXPECT_TRUE(net.contains(Ipv4Address(10, 0, 3, 200)));
  EXPECT_FALSE(net.contains(Ipv4Address(10, 0, 4, 1)));
  EXPECT_EQ(net.mask(), 0xffffff00u);
}

TEST(Ipv4Cidr, NormalizesBase) {
  const Ipv4Cidr net(Ipv4Address(10, 0, 3, 77), 24);
  EXPECT_EQ(net.network(), Ipv4Address(10, 0, 3, 0));
}

TEST(Ipv4Cidr, HostEnumeration) {
  const Ipv4Cidr net(Ipv4Address(172, 17, 0, 0), 16);
  EXPECT_EQ(net.host(1), Ipv4Address(172, 17, 0, 1));
  EXPECT_EQ(net.host(257), Ipv4Address(172, 17, 1, 1));
}

TEST(Ipv4Cidr, ZeroPrefixMatchesEverything) {
  const Ipv4Cidr all(Ipv4Address(0), 0);
  EXPECT_TRUE(all.contains(Ipv4Address(1, 2, 3, 4)));
  EXPECT_TRUE(all.contains(Ipv4Address(255, 255, 255, 255)));
}

TEST(Ipv4Cidr, ParseRoundTrip) {
  const auto parsed = Ipv4Cidr::parse("192.168.122.0/24");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_string(), "192.168.122.0/24");
  EXPECT_FALSE(Ipv4Cidr::parse("192.168.122.0").has_value());
  EXPECT_FALSE(Ipv4Cidr::parse("192.168.122.0/33").has_value());
}

// ---- packets -------------------------------------------------------------------------

TEST(Packet, SizeAccounting) {
  Packet p;
  p.proto = L4Proto::kUdp;
  p.payload_bytes = 100;
  EXPECT_EQ(p.ip_total_bytes(), 20u + 8u + 100u);
  p.proto = L4Proto::kTcp;
  EXPECT_EQ(p.ip_total_bytes(), 20u + 20u + 100u);
}

TEST(Packet, DeepCopyOfInnerFrame) {
  Packet outer;
  outer.proto = L4Proto::kUdp;
  outer.inner = std::make_unique<EthernetFrame>();
  outer.inner->packet.payload_bytes = 500;

  const Packet copy = outer;
  ASSERT_NE(copy.inner, nullptr);
  EXPECT_NE(copy.inner.get(), outer.inner.get());
  EXPECT_EQ(copy.inner->packet.payload_bytes, 500u);
}

TEST(Packet, InnerFrameCountsInSize) {
  Packet outer;
  outer.proto = L4Proto::kUdp;
  outer.payload_bytes = 8;  // VXLAN header
  outer.inner = std::make_unique<EthernetFrame>();
  outer.inner->packet.payload_bytes = 100;
  outer.inner->packet.proto = L4Proto::kTcp;
  // outer IP(20)+UDP(8)+vxlan(8) + inner eth(14)+ip(20)+tcp(20)+100
  EXPECT_EQ(outer.ip_total_bytes(), 20u + 8u + 8u + 14u + 20u + 20u + 100u);
}

// A packet handoff is one block copy plus one pointer: the header base
// must stay trivially copyable and the hot types must not regrow padding.
static_assert(std::is_trivially_copyable_v<PacketHeader>);
static_assert(sizeof(Packet) <= 80);
static_assert(sizeof(EthernetFrame) <= 112);

/// A header with every field away from its default.
PacketHeader every_field_set() {
  PacketHeader h;
  h.packet_id = 0x0102030405060708ULL;
  h.ct_id = 0x1112131415161718ULL;
  h.sent_at = 123456789;
  h.src_ip = Ipv4Address(10, 0, 0, 1);
  h.dst_ip = Ipv4Address(10, 0, 0, 2);
  h.tcp_seq = 1001;
  h.tcp_ack = 2002;
  h.tcp_window = 3003;
  h.payload_bytes = 1448;
  h.src_port = 40000;
  h.dst_port = 80;
  h.ip_id = 77;
  h.frag_offset = 1480;
  h.icmp_id = 5;
  h.icmp_seq = 6;
  h.proto = L4Proto::kTcp;
  h.ttl = 17;
  h.frag_more = true;
  h.icmp_type = 11;
  h.icmp_code = 1;
  h.ct_reply = true;
  h.tcp_flags = TcpFlags{.syn = true, .ack = true, .fin = true, .rst = true,
                         .psh = true};
  return h;
}

void expect_same_header(const PacketHeader& a, const PacketHeader& b) {
  EXPECT_EQ(a.packet_id, b.packet_id);
  EXPECT_EQ(a.ct_id, b.ct_id);
  EXPECT_EQ(a.sent_at, b.sent_at);
  EXPECT_EQ(a.src_ip, b.src_ip);
  EXPECT_EQ(a.dst_ip, b.dst_ip);
  EXPECT_EQ(a.tcp_seq, b.tcp_seq);
  EXPECT_EQ(a.tcp_ack, b.tcp_ack);
  EXPECT_EQ(a.tcp_window, b.tcp_window);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.src_port, b.src_port);
  EXPECT_EQ(a.dst_port, b.dst_port);
  EXPECT_EQ(a.ip_id, b.ip_id);
  EXPECT_EQ(a.frag_offset, b.frag_offset);
  EXPECT_EQ(a.icmp_id, b.icmp_id);
  EXPECT_EQ(a.icmp_seq, b.icmp_seq);
  EXPECT_EQ(a.proto, b.proto);
  EXPECT_EQ(a.ttl, b.ttl);
  EXPECT_EQ(a.frag_more, b.frag_more);
  EXPECT_EQ(a.icmp_type, b.icmp_type);
  EXPECT_EQ(a.icmp_code, b.icmp_code);
  EXPECT_EQ(a.ct_reply, b.ct_reply);
  EXPECT_EQ(a.tcp_flags, b.tcp_flags);
}

TEST(Packet, MoveKeepsHeaderAndTransfersInner) {
  const PacketHeader want = every_field_set();
  Packet src;
  static_cast<PacketHeader&>(src) = want;
  src.inner = std::make_unique<EthernetFrame>();
  EthernetFrame* const inner = src.inner.get();

  Packet moved(std::move(src));
  expect_same_header(moved, want);
  EXPECT_EQ(moved.inner.get(), inner);
  EXPECT_EQ(src.inner, nullptr);  // NOLINT(bugprone-use-after-move)

  Packet assigned;
  assigned = std::move(moved);
  expect_same_header(assigned, want);
  EXPECT_EQ(assigned.inner.get(), inner);
  EXPECT_EQ(moved.inner, nullptr);  // NOLINT(bugprone-use-after-move)
}

TEST(Frame, MoveCountsNoClone) {
  EthernetFrame f;
  f.packet.inner = std::make_unique<EthernetFrame>();
  const std::uint64_t before = PacketPool::frames_cloned();
  EthernetFrame moved(std::move(f));
  EthernetFrame assigned;
  assigned = std::move(moved);
  EXPECT_EQ(PacketPool::frames_cloned(), before);
  EXPECT_NE(assigned.packet.inner, nullptr);
}

TEST(Frame, CopyCountsOneCloneAndDeepCopiesInner) {
  EthernetFrame plain;
  plain.src = MacAddress::local_from_id(1);
  plain.dst = MacAddress::local_from_id(2);
  static_cast<PacketHeader&>(plain.packet) = every_field_set();
  std::uint64_t before = PacketPool::frames_cloned();
  const EthernetFrame plain_copy(plain);
  EXPECT_EQ(PacketPool::frames_cloned() - before, 1u);
  EXPECT_EQ(plain_copy.src, plain.src);
  EXPECT_EQ(plain_copy.dst, plain.dst);
  expect_same_header(plain_copy.packet, plain.packet);

  // An encapsulating frame is two frames: the copy duplicates (and counts)
  // the outer one and the inner one it owns.
  EthernetFrame outer;
  outer.packet.inner = std::make_unique<EthernetFrame>();
  outer.packet.inner->packet.payload_bytes = 500;
  before = PacketPool::frames_cloned();
  const EthernetFrame outer_copy(outer);
  EXPECT_EQ(PacketPool::frames_cloned() - before, 2u);
  ASSERT_NE(outer_copy.packet.inner, nullptr);
  EXPECT_NE(outer_copy.packet.inner.get(), outer.packet.inner.get());
  EXPECT_EQ(outer_copy.packet.inner->packet.payload_bytes, 500u);
}

TEST(Frame, WireBytes) {
  EthernetFrame f;
  f.packet.proto = L4Proto::kUdp;
  f.packet.payload_bytes = 64;
  EXPECT_EQ(f.wire_bytes(), 14u + 20u + 8u + 64u);
  f.ethertype = 0x0806;  // ARP
  EXPECT_EQ(f.wire_bytes(), 14u + 28u);
}

TEST(TcpFlagsTest, ToStringShowsBits) {
  TcpFlags f{.syn = true, .ack = true};
  EXPECT_EQ(f.to_string(), "SA");
  EXPECT_EQ(TcpFlags{}.to_string(), "-");
}

// ---- wire serialization -----------------------------------------------------------------

TEST(Wire, UdpRoundTrip) {
  Packet p;
  p.src_ip = Ipv4Address(10, 0, 0, 1);
  p.dst_ip = Ipv4Address(10, 0, 0, 2);
  p.proto = L4Proto::kUdp;
  p.src_port = 1234;
  p.dst_port = 5678;
  p.payload_bytes = 100;
  p.ip_id = 99;
  p.ttl = 63;

  const auto bytes = wire::serialize_ipv4(p);
  EXPECT_EQ(bytes.size(), p.ip_total_bytes());
  const auto back = wire::parse_ipv4(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->src_ip, p.src_ip);
  EXPECT_EQ(back->dst_ip, p.dst_ip);
  EXPECT_EQ(back->src_port, p.src_port);
  EXPECT_EQ(back->dst_port, p.dst_port);
  EXPECT_EQ(back->payload_bytes, p.payload_bytes);
  EXPECT_EQ(back->ttl, p.ttl);
  EXPECT_EQ(back->ip_id, p.ip_id);
}

TEST(Wire, TcpRoundTripWithFlags) {
  Packet p;
  p.src_ip = Ipv4Address(192, 168, 1, 1);
  p.dst_ip = Ipv4Address(192, 168, 1, 2);
  p.proto = L4Proto::kTcp;
  p.src_port = 40000;
  p.dst_port = 80;
  p.tcp_seq = 123456;
  p.tcp_ack = 654321;
  p.tcp_flags = TcpFlags{.syn = true, .ack = true, .psh = true};
  p.tcp_window = 29200;
  p.payload_bytes = 10;

  const auto back = wire::parse_ipv4(wire::serialize_ipv4(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->tcp_seq, p.tcp_seq);
  EXPECT_EQ(back->tcp_ack, p.tcp_ack);
  EXPECT_EQ(back->tcp_flags, p.tcp_flags);
  EXPECT_EQ(back->tcp_window, p.tcp_window);
  EXPECT_EQ(back->payload_bytes, p.payload_bytes);
}

TEST(Wire, HeaderChecksumValidates) {
  Packet p;
  p.src_ip = Ipv4Address(1, 2, 3, 4);
  p.dst_ip = Ipv4Address(5, 6, 7, 8);
  p.proto = L4Proto::kUdp;
  auto bytes = wire::serialize_ipv4(p);
  // RFC 1071: checksum over a correct header is zero.
  EXPECT_EQ(wire::internet_checksum(bytes.data(), 20), 0);
  // Corrupt one byte: parse must fail.
  bytes[15] ^= 0xff;
  EXPECT_FALSE(wire::parse_ipv4(bytes).has_value());
}

TEST(Wire, ParseRejectsTruncated) {
  EXPECT_FALSE(wire::parse_ipv4({0x45, 0x00}).has_value());
}

TEST(Wire, FrameSerializationHasMacsAndEthertype) {
  EthernetFrame f;
  f.src = MacAddress::local_from_id(1);
  f.dst = MacAddress::local_from_id(2);
  f.packet.proto = L4Proto::kUdp;
  f.packet.payload_bytes = 4;
  const auto bytes = wire::serialize_frame(f);
  ASSERT_GE(bytes.size(), 14u);
  EXPECT_EQ(bytes[12], 0x08);
  EXPECT_EQ(bytes[13], 0x00);
  EXPECT_EQ(bytes[0], f.dst.octets()[0]);
  EXPECT_EQ(bytes[6], f.src.octets()[0]);
}

// ---- routing table -----------------------------------------------------------------------

TEST(RoutingTable, LongestPrefixWins) {
  RoutingTable t;
  t.add_connected(Ipv4Cidr(Ipv4Address(10, 0, 0, 0), 8), 1);
  t.add_connected(Ipv4Cidr(Ipv4Address(10, 1, 0, 0), 16), 2);
  const auto r = t.lookup(Ipv4Address(10, 1, 2, 3));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->ifindex, 2);
}

TEST(RoutingTable, DefaultRouteUsedAsLastResort) {
  RoutingTable t;
  t.add_connected(Ipv4Cidr(Ipv4Address(10, 0, 0, 0), 24), 1);
  t.add_default(Ipv4Address(10, 0, 0, 1), 1);
  const auto r = t.lookup(Ipv4Address(8, 8, 8, 8));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->next_hop, Ipv4Address(10, 0, 0, 1));
}

TEST(RoutingTable, ConnectedRouteNextHopIsDestination) {
  RoutingTable t;
  t.add_connected(Ipv4Cidr(Ipv4Address(10, 0, 0, 0), 24), 3);
  const auto r = t.lookup(Ipv4Address(10, 0, 0, 9));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->next_hop, Ipv4Address(10, 0, 0, 9));
  EXPECT_EQ(r->ifindex, 3);
}

TEST(RoutingTable, NoRouteReturnsNullopt) {
  RoutingTable t;
  t.add_connected(Ipv4Cidr(Ipv4Address(10, 0, 0, 0), 24), 1);
  EXPECT_FALSE(t.lookup(Ipv4Address(11, 0, 0, 1)).has_value());
}

TEST(RoutingTable, MetricBreaksTies) {
  RoutingTable t;
  t.add(Route{Ipv4Cidr(Ipv4Address(10, 0, 0, 0), 24), 1, std::nullopt, 10});
  t.add(Route{Ipv4Cidr(Ipv4Address(10, 0, 0, 0), 24), 2, std::nullopt, 5});
  const auto r = t.lookup(Ipv4Address(10, 0, 0, 1));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->ifindex, 2);
}

// Replays a fabric's joins two ways: every host's table gets a route per
// other member (the per-host full mesh), or every host consults one shared
// PeerRouteSet.  Own routes go in before, between and after the joins,
// including ties with peer prefixes at metrics -1, 0 and 1, so the
// longest-prefix, metric and insertion-order results and the generations
// must agree at every step.
TEST(PeerRouteSet, MatchesPerHostFullMesh) {
  constexpr int kHosts = 5;
  constexpr int kExt = 2;
  auto subnet = [](int i) {
    return Ipv4Cidr(Ipv4Address(10, 200, std::uint8_t(i), 0), 24);
  };
  auto gateway = [](int i) {
    return Ipv4Address(10, 10, 0, std::uint8_t(i + 1));
  };
  PeerRouteSet peers;
  std::vector<RoutingTable> shared(kHosts), mesh(kHosts);
  auto both = [&](int h, const Route& r) {
    shared[std::size_t(h)].add(r);
    mesh[std::size_t(h)].add(r);
  };
  std::vector<Ipv4Address> probes = {Ipv4Address(10, 10, 0, 77),
                                     Ipv4Address(8, 8, 8, 8)};
  for (int i = 0; i < kHosts; ++i) probes.push_back(subnet(i).host(5));
  auto expect_same = [&](const char* when) {
    for (int h = 0; h < kHosts; ++h) {
      const auto& a = shared[std::size_t(h)];
      const auto& b = mesh[std::size_t(h)];
      EXPECT_EQ(a.generation(), b.generation()) << when << " host " << h;
      for (const Ipv4Address dst : probes) {
        const auto x = a.lookup(dst);
        const auto y = b.lookup(dst);
        ASSERT_EQ(x.has_value(), y.has_value()) << when << " host " << h;
        if (!x) continue;
        EXPECT_EQ(x->ifindex, y->ifindex)
            << when << " host " << h << " dst " << dst.to_string();
        EXPECT_EQ(x->next_hop, y->next_hop)
            << when << " host " << h << " dst " << dst.to_string();
      }
    }
  };

  for (int h = 0; h < kHosts; ++h) {
    both(h, Route{subnet(h), 1, std::nullopt, 0});
    both(h, Route{Ipv4Cidr(Ipv4Address(10, 10, 0, 0), 16), kExt,
                  std::nullopt, 0});
    // Claims a later member's subnet before joining.
    both(h, Route{subnet((h + 1) % kHosts), 3, Ipv4Address(192, 0, 2, 1),
                  h % 3 - 1});
  }
  expect_same("before joins");
  for (int h = 0; h < kHosts; ++h) {
    for (int m = 0; m < h; ++m) {  // the full mesh's per-pair adds
      mesh[std::size_t(h)].add(Route{subnet(m), kExt, gateway(m), 0});
      mesh[std::size_t(m)].add(Route{subnet(h), kExt, gateway(h), 0});
    }
    const std::uint32_t self = peers.add(subnet(h), gateway(h));
    EXPECT_EQ(self, std::uint32_t(h));
    shared[std::size_t(h)].use_peers(peers, self, kExt);
    expect_same("after a join");
    // Members that joined claim some subnet between joins; host 0 claims
    // the next member's, so its route predates that member's join.
    for (int m = 0; m <= h; ++m) {
      both(m, Route{subnet((m + h + 1) % kHosts), 4,
                    Ipv4Address(192, 0, 2, 2), (m + h) % 3 - 1});
    }
    expect_same("between joins");
  }
  both(0, Route{Ipv4Cidr(Ipv4Address(0), 0), kExt, Ipv4Address(10, 10, 0, 9),
                0});
  expect_same("after a default route");
  // Own routes stay O(1) per host: the mesh holds kHosts - 1 more each.
  EXPECT_EQ(mesh[0].size() - shared[0].size(), std::size_t(kHosts - 1));
  EXPECT_THROW(peers.add(subnet(2), gateway(9)), std::invalid_argument);
}

// ---- neighbour table ----------------------------------------------------------------------

TEST(NeighborTable, InsertLookup) {
  NeighborTable t;
  const auto mac = MacAddress::local_from_id(5);
  t.insert(Ipv4Address(10, 0, 0, 5), mac, 1000);
  const auto found = t.lookup(Ipv4Address(10, 0, 0, 5), 2000);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, mac);
  EXPECT_FALSE(t.lookup(Ipv4Address(10, 0, 0, 6), 2000).has_value());
}

TEST(NeighborTable, EntriesExpire) {
  NeighborTable t(sim::seconds(10));
  t.insert(Ipv4Address(10, 0, 0, 5), MacAddress::local_from_id(5), 0);
  EXPECT_TRUE(t.lookup(Ipv4Address(10, 0, 0, 5), sim::seconds(9)));
  EXPECT_FALSE(t.lookup(Ipv4Address(10, 0, 0, 5), sim::seconds(11)));
}

// ---- property sweep: wire round-trips over random packets ----------------------------------

class WireRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireRoundTrip, RandomPacketsSurvive) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    Packet p;
    p.src_ip = Ipv4Address(static_cast<std::uint32_t>(rng.next_u64()));
    p.dst_ip = Ipv4Address(static_cast<std::uint32_t>(rng.next_u64()));
    p.proto = rng.chance(0.5) ? L4Proto::kUdp : L4Proto::kTcp;
    p.src_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    p.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
    p.payload_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 9000));
    p.tcp_seq = static_cast<std::uint32_t>(rng.next_u64());
    p.tcp_ack = static_cast<std::uint32_t>(rng.next_u64());
    p.ip_id = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
    const auto back = wire::parse_ipv4(wire::serialize_ipv4(p));
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->src_ip, p.src_ip);
    ASSERT_EQ(back->dst_ip, p.dst_ip);
    ASSERT_EQ(back->payload_bytes, p.payload_bytes);
    if (p.proto == L4Proto::kTcp) {
      ASSERT_EQ(back->tcp_seq, p.tcp_seq);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

}  // namespace
}  // namespace nestv::net

// Unit tests for L2 devices: bridge (learning switch), veth, tap, netfilter.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "net/bridge.hpp"
#include "net/netfilter.hpp"
#include "net/tap.hpp"
#include "net/veth.hpp"
#include "sim/rng.hpp"
#include "sim/engine.hpp"

namespace nestv::net {
namespace {

const sim::CostModel kCosts{};

/// Sink device capturing everything it receives.
class SinkDevice : public Device {
 public:
  SinkDevice(sim::Engine& engine, std::string name)
      : Device(engine, std::move(name), kCosts) {
    add_port();
  }
  void ingress(EthernetFrame&& frame, int port) override {
    (void)port;
    frames.push_back(std::move(frame));
  }
  std::vector<EthernetFrame> frames;
};

EthernetFrame make_frame(std::uint64_t src_id, std::uint64_t dst_id,
                         std::uint32_t bytes = 100) {
  EthernetFrame f;
  f.src = MacAddress::local_from_id(src_id);
  f.dst = MacAddress::local_from_id(dst_id);
  f.packet.proto = L4Proto::kUdp;
  f.packet.payload_bytes = bytes;
  return f;
}

// ---- Fdb -----------------------------------------------------------------------

TEST(Fdb, LearnsAndAges) {
  Fdb fdb(sim::seconds(10));
  const auto mac = MacAddress::local_from_id(1);
  fdb.learn(mac, 3, 0);
  EXPECT_EQ(fdb.lookup(mac, sim::seconds(5)), 3);
  EXPECT_EQ(fdb.lookup(mac, sim::seconds(11)), -1);  // aged out
  EXPECT_EQ(fdb.lookup(MacAddress::local_from_id(2), 0), -1);
}

TEST(Fdb, RelearnMovesPort) {
  Fdb fdb;
  const auto mac = MacAddress::local_from_id(1);
  fdb.learn(mac, 1, 0);
  fdb.learn(mac, 2, 10);
  EXPECT_EQ(fdb.lookup(mac, 20), 2);
}

// ---- Bridge --------------------------------------------------------------------

struct BridgeFixture : ::testing::Test {
  sim::Engine engine;
  Bridge bridge{engine, "br0", kCosts};
  SinkDevice a{engine, "a"}, b{engine, "b"}, c{engine, "c"};

  void SetUp() override {
    Device::connect(a, 0, bridge, bridge.add_port());
    Device::connect(b, 0, bridge, bridge.add_port());
    Device::connect(c, 0, bridge, bridge.add_port());
  }

  /// Injects a frame into the bridge as if `from` transmitted it.
  void inject_from(SinkDevice& from, EthernetFrame&& frame) {
    // Ports a,b,c are bridge ports 0,1,2 in SetUp order.
    const int port = &from == &a ? 0 : (&from == &b ? 1 : 2);
    bridge.ingress(std::move(frame), port);
    engine.run();
  }
};

TEST_F(BridgeFixture, FloodsUnknownDestination) {
  inject_from(a, make_frame(1, 99));
  EXPECT_EQ(a.frames.size(), 0u);  // not back out the ingress port
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(bridge.floods(), 1u);
}

TEST_F(BridgeFixture, SwitchesLearnedDestination) {
  inject_from(b, make_frame(2, 99));  // bridge learns mac 2 @ port b
  b.frames.clear();
  c.frames.clear();
  inject_from(a, make_frame(1, 2));
  EXPECT_EQ(b.frames.size(), 1u);
  EXPECT_EQ(c.frames.size(), 0u);  // no flood: destination known
}

TEST_F(BridgeFixture, NeverFloodsLearnedAddress) {
  inject_from(b, make_frame(2, 99));
  const auto floods_before = bridge.floods();
  b.frames.clear();
  c.frames.clear();
  for (int i = 0; i < 5; ++i) inject_from(a, make_frame(1, 2));
  EXPECT_EQ(bridge.floods(), floods_before);
  EXPECT_EQ(b.frames.size(), 5u);
}

TEST_F(BridgeFixture, HairpinSuppressed) {
  // A frame whose destination was learned on its own ingress port is not
  // sent back out (Linux bridge default).
  inject_from(a, make_frame(1, 99));  // learn mac1 @ a
  a.frames.clear();
  b.frames.clear();
  c.frames.clear();
  inject_from(a, make_frame(7, 1));
  EXPECT_EQ(a.frames.size(), 0u);
  EXPECT_EQ(b.frames.size(), 0u);
  EXPECT_EQ(c.frames.size(), 0u);
}

TEST_F(BridgeFixture, BroadcastFloodsAllButIngress) {
  EthernetFrame f = make_frame(1, 0);
  f.dst = MacAddress::broadcast();
  inject_from(b, std::move(f));
  EXPECT_EQ(a.frames.size(), 1u);
  EXPECT_EQ(b.frames.size(), 0u);
  EXPECT_EQ(c.frames.size(), 1u);
}

TEST_F(BridgeFixture, GuestBridgeCostsMoreThanHost) {
  // Structural check on the cost model wiring: guest bridges charge
  // bridge_pkt_guest (no offloads in the VM).
  EXPECT_GT(kCosts.bridge_pkt_guest, kCosts.bridge_pkt);
}

// ---- Veth ----------------------------------------------------------------------

TEST(Veth, CrossesBetweenGraphEnds) {
  sim::Engine engine;
  VethPair pair(engine, "v", kCosts);
  SinkDevice left(engine, "left"), right(engine, "right");
  Device::connect(left, 0, pair.a(), 0);
  Device::connect(right, 0, pair.b(), 0);

  pair.a().ingress(make_frame(1, 2), 0);
  engine.run();
  EXPECT_EQ(right.frames.size(), 1u);
  EXPECT_EQ(left.frames.size(), 0u);
}

TEST(Veth, StackSideDelivery) {
  sim::Engine engine;
  VethPair pair(engine, "v", kCosts);
  SinkDevice graph_side(engine, "g");
  Device::connect(graph_side, 0, pair.a(), 0);

  // b() acts as an InterfaceBackend (moved into a pod namespace).
  std::vector<EthernetFrame> to_stack;
  pair.b().set_rx([&](EthernetFrame&& f) { to_stack.push_back(std::move(f)); });

  pair.b().xmit(make_frame(3, 4));  // stack -> graph
  engine.run();
  EXPECT_EQ(graph_side.frames.size(), 1u);

  pair.a().ingress(make_frame(4, 3), 0);  // graph -> stack
  engine.run();
  EXPECT_EQ(to_stack.size(), 1u);
}

TEST(Veth, CrossingTakesTime) {
  sim::Engine engine;
  VethPair pair(engine, "v", kCosts);
  SinkDevice right(engine, "right");
  Device::connect(right, 0, pair.b(), 0);
  pair.a().ingress(make_frame(1, 2), 0);
  engine.run();
  EXPECT_GT(engine.now(), 0u);
}

// ---- Tap ------------------------------------------------------------------------

TEST(Tap, NetworkToFd) {
  sim::Engine engine;
  TapDevice tap(engine, "tap0", kCosts);
  std::vector<EthernetFrame> fd_frames;
  tap.set_fd_handler([&](EthernetFrame&& f) { fd_frames.push_back(std::move(f)); });

  tap.ingress(make_frame(1, 2), 0);
  engine.run();
  EXPECT_EQ(fd_frames.size(), 1u);
  EXPECT_EQ(tap.frames_to_fd(), 1u);
}

TEST(Tap, FdToNetwork) {
  sim::Engine engine;
  TapDevice tap(engine, "tap0", kCosts);
  SinkDevice net_side(engine, "net");
  Device::connect(net_side, 0, tap, 0);

  tap.inject(make_frame(1, 2));
  engine.run();
  EXPECT_EQ(net_side.frames.size(), 1u);
  EXPECT_EQ(tap.frames_from_fd(), 1u);
}

TEST(Tap, DropsWithoutFdHandler) {
  sim::Engine engine;
  TapDevice tap(engine, "tap0", kCosts);
  tap.ingress(make_frame(1, 2), 0);
  engine.run();
  EXPECT_EQ(tap.frames_dropped(), 1u);
}

// ---- Device backlog dropping -------------------------------------------------------

TEST(DeviceBacklog, TailDropsWhenCpuSwamped) {
  sim::Engine engine;
  sim::SerialResource cpu(engine, "softirq");
  Bridge bridge(engine, "br", kCosts);
  bridge.set_cpu(&cpu, sim::CpuCategory::kSoft);
  bridge.set_max_backlog(sim::microseconds(10));
  SinkDevice out(engine, "out");
  const int in_port = bridge.add_port();
  Device::connect(out, 0, bridge, bridge.add_port());

  // Teach the bridge where mac 2 lives so frames switch, then swamp it.
  bridge.ingress(make_frame(2, 99), 1);
  engine.run();
  for (int i = 0; i < 1000; ++i) {
    bridge.ingress(make_frame(1, 2), in_port);
  }
  engine.run();
  EXPECT_GT(bridge.frames_dropped(), 0u);
  EXPECT_LT(out.frames.size(), 1000u);
  EXPECT_GT(out.frames.size(), 0u);
}

// ---- Netfilter -----------------------------------------------------------------------

Packet make_packet(Ipv4Address src, std::uint16_t sport, Ipv4Address dst,
                   std::uint16_t dport, L4Proto proto = L4Proto::kTcp) {
  Packet p;
  p.src_ip = src;
  p.dst_ip = dst;
  p.src_port = sport;
  p.dst_port = dport;
  p.proto = proto;
  return p;
}

TEST(Netfilter, EmptyChainsAccept) {
  Netfilter nf(kCosts);
  auto p = make_packet(Ipv4Address(1, 1, 1, 1), 10, Ipv4Address(2, 2, 2, 2),
                       20);
  const auto r = nf.run_hook(Hook::kForward, p, "eth0", "", 0);
  EXPECT_EQ(r.verdict, Verdict::kAccept);
  EXPECT_GT(r.cost, 0u);
}

TEST(Netfilter, FilterDropRuleMatches) {
  Netfilter nf(kCosts);
  Rule r;
  r.match.dst = Ipv4Cidr(Ipv4Address(9, 9, 9, 0), 24);
  r.target = TargetKind::kDrop;
  nf.filter_chain(Hook::kForward).rules.push_back(r);

  auto hit = make_packet(Ipv4Address(1, 1, 1, 1), 1,
                         Ipv4Address(9, 9, 9, 9), 2);
  EXPECT_EQ(nf.run_hook(Hook::kForward, hit, "", "", 0).verdict,
            Verdict::kDrop);
  auto miss = make_packet(Ipv4Address(1, 1, 1, 1), 1,
                          Ipv4Address(8, 8, 8, 8), 2);
  EXPECT_EQ(nf.run_hook(Hook::kForward, miss, "", "", 0).verdict,
            Verdict::kAccept);
}

TEST(Netfilter, DnatRewritesAndConntracksReplies) {
  Netfilter nf(kCosts);
  Rule dnat;
  dnat.match.proto = L4Proto::kTcp;
  dnat.match.dport = 80;
  dnat.target = TargetKind::kDnat;
  dnat.nat_ip = Ipv4Address(172, 17, 0, 2);
  dnat.nat_port = 8080;
  nf.nat_chain(Hook::kPrerouting).rules.push_back(dnat);

  // First packet: PREROUTING rewrites destination.
  auto p = make_packet(Ipv4Address(192, 168, 0, 1), 4000,
                       Ipv4Address(192, 168, 0, 2), 80);
  nf.run_hook(Hook::kPrerouting, p, "eth0", "", 0);
  EXPECT_EQ(p.dst_ip, Ipv4Address(172, 17, 0, 2));
  EXPECT_EQ(p.dst_port, 8080);
  // POSTROUTING confirms the flow.
  nf.run_hook(Hook::kPostrouting, p, "eth0", "docker0", 0);
  EXPECT_EQ(nf.conntrack_size(), 1u);

  // Reply from the container: source rewritten back at POSTROUTING.
  auto reply = make_packet(Ipv4Address(172, 17, 0, 2), 8080,
                           Ipv4Address(192, 168, 0, 1), 4000);
  nf.run_hook(Hook::kPrerouting, reply, "docker0", "", 1);
  nf.run_hook(Hook::kPostrouting, reply, "docker0", "eth0", 1);
  EXPECT_EQ(reply.src_ip, Ipv4Address(192, 168, 0, 2));
  EXPECT_EQ(reply.src_port, 80);
}

TEST(Netfilter, MasqueradeAllocatesPortAndReverses) {
  Netfilter nf(kCosts);
  Rule masq;
  masq.match.src = Ipv4Cidr(Ipv4Address(172, 17, 0, 0), 16);
  masq.match.out_iface = "eth0";
  masq.target = TargetKind::kMasquerade;
  masq.nat_ip = Ipv4Address(192, 168, 0, 5);  // uplink address
  nf.nat_chain(Hook::kPostrouting).rules.push_back(masq);

  auto p = make_packet(Ipv4Address(172, 17, 0, 9), 3333,
                       Ipv4Address(8, 8, 8, 8), 53, L4Proto::kUdp);
  nf.run_hook(Hook::kPrerouting, p, "docker0", "", 0);
  nf.run_hook(Hook::kPostrouting, p, "docker0", "eth0", 0);
  EXPECT_EQ(p.src_ip, Ipv4Address(192, 168, 0, 5));
  const std::uint16_t nat_port = p.src_port;
  EXPECT_NE(nat_port, 3333);

  // Reply to the masqueraded tuple translates back.
  auto reply = make_packet(Ipv4Address(8, 8, 8, 8), 53,
                           Ipv4Address(192, 168, 0, 5), nat_port,
                           L4Proto::kUdp);
  nf.run_hook(Hook::kPrerouting, reply, "eth0", "", 1);
  EXPECT_EQ(reply.dst_ip, Ipv4Address(172, 17, 0, 9));
  EXPECT_EQ(reply.dst_port, 3333);
}

TEST(Netfilter, MasqueradeSkipsOtherInterfaces) {
  Netfilter nf(kCosts);
  Rule masq;
  masq.match.src = Ipv4Cidr(Ipv4Address(172, 17, 0, 0), 16);
  masq.match.out_iface = "eth0";
  masq.target = TargetKind::kMasquerade;
  masq.nat_ip = Ipv4Address(192, 168, 0, 5);
  nf.nat_chain(Hook::kPostrouting).rules.push_back(masq);

  auto p = make_packet(Ipv4Address(172, 17, 0, 9), 3333,
                       Ipv4Address(172, 17, 0, 10), 80);
  nf.run_hook(Hook::kPrerouting, p, "docker0", "", 0);
  nf.run_hook(Hook::kPostrouting, p, "docker0", "docker0", 0);
  EXPECT_EQ(p.src_ip, Ipv4Address(172, 17, 0, 9));  // unchanged
}

TEST(Netfilter, ConntrackFastPathCheaperThanFirstPacket) {
  Netfilter nf(kCosts);
  auto first = make_packet(Ipv4Address(1, 1, 1, 1), 10,
                           Ipv4Address(2, 2, 2, 2), 20);
  const auto c1 = nf.run_hook(Hook::kPrerouting, first, "eth0", "", 0);
  nf.run_hook(Hook::kPostrouting, first, "eth0", "eth1", 0);

  auto second = make_packet(Ipv4Address(1, 1, 1, 1), 10,
                            Ipv4Address(2, 2, 2, 2), 20);
  const auto c2 = nf.run_hook(Hook::kPrerouting, second, "eth0", "", 1);
  EXPECT_LT(c2.cost, c1.cost);
}

TEST(Netfilter, StandingRulesCostPerPacket) {
  Netfilter with(kCosts), without(kCosts);
  with.install_standing_rules(10);

  auto p1 = make_packet(Ipv4Address(1, 1, 1, 1), 10,
                        Ipv4Address(2, 2, 2, 2), 20);
  auto p2 = p1;
  const auto c_with = with.run_hook(Hook::kForward, p1, "", "", 0);
  const auto c_without = without.run_hook(Hook::kForward, p2, "", "", 0);
  EXPECT_EQ(c_with.cost - c_without.cost, 10 * kCosts.nf_rule_scan);
  EXPECT_EQ(c_with.verdict, Verdict::kAccept);  // standing rules match nothing
}

// The standing block is a count, not Rule objects; it must charge and
// decide exactly what n explicit standing rules at the same position do.
TEST(Netfilter, StandingBlockMatchesExplicitRules) {
  const Ipv4Cidr nowhere(Ipv4Address(203, 0, 113, 0), 24);
  auto user_rules = [] {
    Rule drop_host;
    drop_host.match.dst = Ipv4Cidr(Ipv4Address(10, 0, 0, 5), 32);
    drop_host.target = TargetKind::kDrop;
    drop_host.comment = "user-drop";
    Rule accept_dns;
    accept_dns.match.proto = L4Proto::kUdp;
    accept_dns.match.dport = 53;
    accept_dns.comment = "user-dns";
    return std::vector<Rule>{drop_host, accept_dns};
  };
  const std::vector<Packet> packets = {
      make_packet(Ipv4Address(1, 1, 1, 1), 10, Ipv4Address(203, 0, 113, 7),
                  80),                                          // in range
      make_packet(Ipv4Address(1, 1, 1, 1), 10, Ipv4Address(10, 0, 0, 5),
                  80),                                          // user drop
      make_packet(Ipv4Address(1, 1, 1, 1), 10, Ipv4Address(8, 8, 8, 8), 53,
                  L4Proto::kUdp),                               // user accept
      make_packet(Ipv4Address(1, 1, 1, 1), 10, Ipv4Address(1, 2, 3, 4),
                  443),                                         // policy
  };
  for (const int n : {0, 1, 6}) {
    for (const bool block_first : {true, false}) {
      Netfilter lean(kCosts), ref(kCosts);
      auto add_user = [&] {
        for (const Hook h : {Hook::kForward, Hook::kInput, Hook::kOutput}) {
          for (const Rule& r : user_rules()) {
            lean.add_filter_rule(h, r);
            ref.filter_chain(h).rules.push_back(r);
          }
        }
      };
      auto add_standing = [&] {
        lean.install_standing_rules(n);
        for (int i = 0; i < n; ++i) {
          Rule r;
          r.match.dst = nowhere;
          r.target = TargetKind::kDrop;
          for (const Hook h : {Hook::kForward, Hook::kInput, Hook::kOutput}) {
            ref.filter_chain(h).rules.push_back(r);
          }
        }
      };
      if (block_first) {
        add_standing();
        add_user();
      } else {
        add_user();
        add_standing();
      }
      lean.filter_chain(Hook::kInput).policy = Verdict::kDrop;
      ref.filter_chain(Hook::kInput).policy = Verdict::kDrop;
      auto expect_same = [&](const char* when) {
        for (const Hook h : {Hook::kForward, Hook::kInput, Hook::kOutput}) {
          for (std::size_t i = 0; i < packets.size(); ++i) {
            Packet a = packets[i], b = packets[i];
            const auto got = lean.run_hook(h, a, "eth0", "eth1", 0);
            const auto want = ref.run_hook(h, b, "eth0", "eth1", 0);
            EXPECT_EQ(got.cost, want.cost)
                << when << " n=" << n << " block_first=" << block_first
                << " hook=" << to_string(h) << " packet " << i;
            EXPECT_EQ(got.verdict, want.verdict)
                << when << " n=" << n << " block_first=" << block_first
                << " hook=" << to_string(h) << " packet " << i;
          }
        }
      };
      expect_same("installed");
      // Removing a user rule keeps the block between the same neighbours.
      for (const Hook h : {Hook::kForward, Hook::kInput, Hook::kOutput}) {
        EXPECT_EQ(lean.remove_filter_rules(h, "user-drop"), 1u);
        EXPECT_EQ(ref.remove_filter_rules(h, "user-drop"), 1u);
      }
      expect_same("after remove");
    }
  }
}

TEST(Netfilter, StandingBlockIsOnePerChain) {
  Netfilter nf(kCosts);
  nf.install_standing_rules(2);
  nf.install_standing_rules(3);  // nothing in between: the block grows
  auto p = make_packet(Ipv4Address(1, 1, 1, 1), 10, Ipv4Address(2, 2, 2, 2),
                       20);
  const auto c = nf.run_hook(Hook::kForward, p, "", "", 0);
  EXPECT_EQ(c.cost, kCosts.nf_hook_base + 5 * kCosts.nf_rule_scan);
  Rule r;
  r.comment = "after";
  nf.add_filter_rule(Hook::kForward, r);
  EXPECT_THROW(nf.install_standing_rules(1), std::logic_error);
}

TEST(Netfilter, ExpireRemovesIdleConnections) {
  Netfilter nf(kCosts);
  auto p = make_packet(Ipv4Address(1, 1, 1, 1), 10, Ipv4Address(2, 2, 2, 2),
                       20);
  nf.run_hook(Hook::kPrerouting, p, "", "", 0);
  nf.run_hook(Hook::kPostrouting, p, "", "", 0);
  EXPECT_EQ(nf.conntrack_size(), 1u);
  nf.gc(sim::seconds(1000), sim::seconds(300));
  EXPECT_EQ(nf.conntrack_size(), 0u);
}

TEST(Netfilter, RuleMatchFields) {
  RuleMatch m;
  m.proto = L4Proto::kUdp;
  m.sport = 53;
  m.in_iface = "eth0";
  auto p = make_packet(Ipv4Address(1, 1, 1, 1), 53, Ipv4Address(2, 2, 2, 2),
                       1000, L4Proto::kUdp);
  EXPECT_TRUE(m.matches(p, "eth0", ""));
  EXPECT_FALSE(m.matches(p, "eth1", ""));
  p.proto = L4Proto::kTcp;
  EXPECT_FALSE(m.matches(p, "eth0", ""));
}

// ---- property sweep: NAT translation is involutive over many flows ---------------------

class NatInvolution : public ::testing::TestWithParam<int> {};

TEST_P(NatInvolution, TranslateThenReverseIsIdentity) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Netfilter nf(kCosts);
  Rule masq;
  masq.match.src = Ipv4Cidr(Ipv4Address(172, 17, 0, 0), 16);
  masq.target = TargetKind::kMasquerade;
  masq.nat_ip = Ipv4Address(10, 0, 0, 1);
  nf.nat_chain(Hook::kPostrouting).rules.push_back(masq);

  for (int i = 0; i < 50; ++i) {
    const Ipv4Address src(172, 17,
                          static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                          static_cast<std::uint8_t>(rng.uniform_int(2, 254)));
    const auto sport =
        static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    const Ipv4Address dst(static_cast<std::uint32_t>(rng.next_u64()) |
                          0x01000000);
    const auto dport = static_cast<std::uint16_t>(rng.uniform_int(1, 1023));

    auto out = make_packet(src, sport, dst, dport);
    nf.run_hook(Hook::kPrerouting, out, "docker0", "", i);
    nf.run_hook(Hook::kPostrouting, out, "docker0", "eth0", i);
    ASSERT_EQ(out.src_ip, Ipv4Address(10, 0, 0, 1));

    auto back = make_packet(dst, dport, out.src_ip, out.src_port);
    nf.run_hook(Hook::kPrerouting, back, "eth0", "", i);
    ASSERT_EQ(back.dst_ip, src);
    ASSERT_EQ(back.dst_port, sport);
  }
}

INSTANTIATE_TEST_SUITE_P(Flows, NatInvolution, ::testing::Range(1, 6));

}  // namespace
}  // namespace nestv::net

// Tests for the per-flow fast-path cache (src/net/flowcache): LRU and
// generation mechanics of the FlowCache container itself, the cached
// forwarding datapath inside NetworkStack, and the invalidation triggers —
// rule mutation, FDB expiry, conntrack GC, route edits and vNIC hot-unplug
// — each flushing exactly the affected entries.
#include <gtest/gtest.h>

#include <memory>

#include "core/cni.hpp"
#include "net/bridge.hpp"
#include "net/flowcache/flowcache.hpp"
#include "net/stack.hpp"
#include "scenario/single_server.hpp"
#include "sim/engine.hpp"
#include "workload/netperf.hpp"

namespace nestv::net::flowcache {
namespace {

// ---- FlowCache unit tests --------------------------------------------------------

FlowKey key_of(std::uint8_t host, std::uint16_t sport, int ifindex = 1) {
  FlowKey k;
  k.src_ip = Ipv4Address(10, 0, 0, host);
  k.dst_ip = Ipv4Address(10, 0, 1, 1);
  k.src_port = sport;
  k.dst_port = 80;
  k.proto = L4Proto::kTcp;
  k.in_ifindex = ifindex;
  return k;
}

CachedPath forward_path(int out_ifindex, MacAddress mac,
                        std::uint64_t ct_id = 0) {
  CachedPath p;
  p.action = CachedPath::Action::kForward;
  p.out_ifindex = out_ifindex;
  p.next_hop_mac = mac;
  p.ct_id = ct_id;
  return p;
}

TEST(FlowCache, InsertLookupAndCounters) {
  FlowCache cache(8);
  const FlowKey k = key_of(1, 1000);
  EXPECT_EQ(cache.lookup(k), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  cache.insert(k, forward_path(2, MacAddress::local_from_id(9)));
  const CachedPath* hit = cache.lookup(k);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->out_ifindex, 2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(FlowCache, LruEvictsLeastRecentlyUsed) {
  FlowCache cache(2);
  const FlowKey k1 = key_of(1, 1000), k2 = key_of(2, 1000),
                k3 = key_of(3, 1000);
  cache.insert(k1, forward_path(2, MacAddress::local_from_id(9)));
  cache.insert(k2, forward_path(2, MacAddress::local_from_id(9)));
  ASSERT_NE(cache.lookup(k1), nullptr);  // touch k1: k2 is now the LRU

  cache.insert(k3, forward_path(2, MacAddress::local_from_id(9)));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.contains(k1));
  EXPECT_FALSE(cache.contains(k2));
  EXPECT_TRUE(cache.contains(k3));
}

TEST(FlowCache, InvalidateAllIsLazyGenerationBump) {
  FlowCache cache(8);
  cache.insert(key_of(1, 1000), forward_path(2, MacAddress::local_from_id(9)));
  cache.insert(key_of(2, 1000), forward_path(2, MacAddress::local_from_id(9)));
  const auto gen_before = cache.generation();

  cache.invalidate_all();
  EXPECT_GT(cache.generation(), gen_before);
  // Stale entries linger until touched, then count as misses and vanish.
  EXPECT_EQ(cache.lookup(key_of(1, 1000)), nullptr);
  EXPECT_FALSE(cache.contains(key_of(1, 1000)));
}

TEST(FlowCache, TargetedInvalidationTouchesOnlyAffectedEntries) {
  FlowCache cache(16);
  const MacAddress mac_a = MacAddress::local_from_id(1);
  const MacAddress mac_b = MacAddress::local_from_id(2);
  const FlowKey via_a = key_of(1, 1000, /*ifindex=*/1);
  const FlowKey via_b = key_of(2, 1000, /*ifindex=*/1);
  const FlowKey in_3 = key_of(3, 1000, /*ifindex=*/3);
  cache.insert(via_a, forward_path(2, mac_a, /*ct_id=*/11));
  cache.insert(via_b, forward_path(2, mac_b, /*ct_id=*/22));
  cache.insert(in_3, forward_path(4, mac_b, /*ct_id=*/33));

  EXPECT_EQ(cache.invalidate_mac(mac_a), 1u);
  EXPECT_FALSE(cache.contains(via_a));
  EXPECT_TRUE(cache.contains(via_b));

  EXPECT_EQ(cache.invalidate_conn(22), 1u);
  EXPECT_FALSE(cache.contains(via_b));
  EXPECT_TRUE(cache.contains(in_3));

  // Ingress *or* egress interface matches.
  EXPECT_EQ(cache.invalidate_ifindex(4), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.invalidations(), 3u);
}

TEST(FlowCache, InvalidateMatchChecksIngressAndRewrittenViews) {
  FlowCache cache(16);
  // A DNAT'd flow: ingress dst 10.0.1.1:80, rewritten to 172.17.0.2:8080.
  FlowKey k = key_of(1, 1000);
  CachedPath p = forward_path(2, MacAddress::local_from_id(9));
  p.rewrites = true;
  p.new_src_ip = k.src_ip;
  p.new_dst_ip = Ipv4Address(172, 17, 0, 2);
  p.new_src_port = k.src_port;
  p.new_dst_port = 8080;
  cache.insert(k, p);

  // A rule predicated on the *post-rewrite* destination must still flush it.
  RuleMatch m;
  m.dst = Ipv4Cidr(Ipv4Address(172, 17, 0, 2), 32);
  m.dport = 8080;
  EXPECT_EQ(cache.invalidate_match(m, [](int) { return std::string{}; }), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

// ---- cached forwarding through a router stack ------------------------------------

const sim::CostModel kCosts{};

/// alice -- br1 -- router -- br2 -- bob, with the router's cache enabled.
struct CachedRouter : ::testing::Test {
  sim::Engine engine;
  Bridge br1{engine, "br1", kCosts};
  Bridge br2{engine, "br2", kCosts};
  PortBackend pa{engine, "pa", kCosts}, pr1{engine, "pr1", kCosts},
      pr2{engine, "pr2", kCosts}, pb{engine, "pb", kCosts};
  NetworkStack alice{engine, "alice", kCosts, nullptr};
  NetworkStack router{engine, "router", kCosts, nullptr};
  NetworkStack bob{engine, "bob", kCosts, nullptr};
  Ipv4Address ip_a{10, 0, 1, 2}, ip_r1{10, 0, 1, 1}, ip_r2{10, 0, 2, 1},
      ip_b{10, 0, 2, 2};
  int r_if1 = -1, r_if2 = -1;

  void SetUp() override {
    Device::connect(pa, 0, br1, br1.add_port());
    Device::connect(pr1, 0, br1, br1.add_port());
    Device::connect(pr2, 0, br2, br2.add_port());
    Device::connect(pb, 0, br2, br2.add_port());
    const Ipv4Cidr net1(Ipv4Address(10, 0, 1, 0), 24);
    const Ipv4Cidr net2(Ipv4Address(10, 0, 2, 0), 24);
    const int a_if = alice.add_interface(
        pa, {"eth0", MacAddress::local_from_id(11), ip_a, net1, 1500, 1448});
    r_if1 = router.add_interface(pr1, {"eth0", MacAddress::local_from_id(12),
                                       ip_r1, net1, 1500, 1448});
    r_if2 = router.add_interface(pr2, {"eth1", MacAddress::local_from_id(13),
                                       ip_r2, net2, 1500, 1448});
    const int b_if = bob.add_interface(
        pb, {"eth0", MacAddress::local_from_id(14), ip_b, net2, 1500, 1448});
    alice.routes().add_default(ip_r1, a_if);
    bob.routes().add_default(ip_r2, b_if);
    router.set_forwarding(true);
    router.set_flowcache(true);
  }

  int deliver_burst(int n, std::uint16_t sport = 1000) {
    int got = 0;
    bob.udp_bind(7, nullptr,
                 [&got](const NetworkStack::UdpDelivery&) { ++got; });
    for (int i = 0; i < n; ++i) {
      alice.udp_send(ip_a, sport, ip_b, 7, 64, nullptr);
      engine.run();  // complete each packet so the first can record
    }
    bob.udp_unbind(7);
    return got;
  }
};

TEST_F(CachedRouter, EstablishedFlowHitsCache) {
  EXPECT_EQ(deliver_burst(5), 5);
  EXPECT_EQ(router.packets_forwarded(), 5u);
  auto& cache = router.flow_cache();
  EXPECT_EQ(cache.size(), 1u);
  // Packet 1 parks on ARP (not recorded), packet 2 records; the rest hit.
  EXPECT_GE(cache.hits(), 3u);
  const FlowKey k{ip_a, ip_b, 1000, 7, L4Proto::kUdp,
                  static_cast<std::int16_t>(r_if1)};
  ASSERT_TRUE(cache.contains(k));
  EXPECT_EQ(cache.peek(k)->action, CachedPath::Action::kForward);
  EXPECT_EQ(cache.peek(k)->out_ifindex, r_if2);
}

TEST_F(CachedRouter, CachedPathStillDecrementsTtlCorrectly) {
  // Delivery must be identical with and without the cache: same payloads,
  // same endpoint counters, no drops.
  EXPECT_EQ(deliver_burst(8), 8);
  EXPECT_EQ(router.packets_dropped(), 0u);
  EXPECT_EQ(bob.packets_dropped(), 0u);
}

TEST_F(CachedRouter, RouteEditLazilyInvalidatesViaGenerationStamp) {
  EXPECT_EQ(deliver_burst(3), 3);
  const FlowKey k{ip_a, ip_b, 1000, 7, L4Proto::kUdp,
                  static_cast<std::int16_t>(r_if1)};
  const auto stamped = router.flow_cache().peek(k)->routes_gen;

  // Any table edit bumps the generation; the entry is stale but present.
  router.routes().add_connected(Ipv4Cidr(Ipv4Address(192, 168, 7, 0), 24),
                                r_if2);
  EXPECT_GT(router.routes().generation(), stamped);
  EXPECT_TRUE(router.flow_cache().contains(k));

  // The next packet re-resolves on the slow path and re-records.
  EXPECT_EQ(deliver_burst(2, 1000), 2);
  ASSERT_TRUE(router.flow_cache().contains(k));
  EXPECT_EQ(router.flow_cache().peek(k)->routes_gen,
            router.routes().generation());
}

TEST_F(CachedRouter, DetachInterfaceFlushesOnlyItsFlows) {
  EXPECT_EQ(deliver_burst(2), 2);
  // A second flow delivered locally to the router via eth0 only.
  int local = 0;
  router.udp_bind(9, nullptr,
                  [&local](const NetworkStack::UdpDelivery&) { ++local; });
  alice.udp_send(ip_a, 2000, ip_r1, 9, 64, nullptr);
  engine.run();
  EXPECT_EQ(local, 1);
  EXPECT_EQ(router.flow_cache().size(), 2u);

  router.detach_interface(r_if2);
  // Only the flow leaving via eth1 is flushed; the local one survives.
  EXPECT_EQ(router.flow_cache().size(), 1u);
  const FlowKey local_key{ip_a, ip_r1, 2000, 9, L4Proto::kUdp,
                          static_cast<std::int16_t>(r_if1)};
  EXPECT_TRUE(router.flow_cache().contains(local_key));

  // Traffic towards the dead interface is dropped, not crashed on.
  const auto dropped_before = router.packets_dropped();
  alice.udp_send(ip_a, 1000, ip_b, 7, 64, nullptr);
  engine.run();
  EXPECT_GT(router.packets_dropped(), dropped_before);
}

TEST_F(CachedRouter, DisablingTheCacheFlushesIt) {
  EXPECT_EQ(deliver_burst(3), 3);
  EXPECT_GE(router.flow_cache().hits(), 1u);
  router.set_flowcache(false);
  const FlowKey k{ip_a, ip_b, 1000, 7, L4Proto::kUdp,
                  static_cast<std::int16_t>(r_if1)};
  EXPECT_FALSE(router.flow_cache().contains(k));
  // Traffic still flows on the slow path.
  EXPECT_EQ(deliver_burst(2), 2);
}

}  // namespace
}  // namespace nestv::net::flowcache

// ---- scenario-level invalidation & pressure --------------------------------------

namespace nestv::scenario {
namespace {

using net::flowcache::FlowKey;

/// The NAT+FlowCache single-server testbed: client on the host, server
/// container behind the guest docker0 + DNAT, guest stack cache on.
struct NatFlowCacheScenario : ::testing::Test {
  SingleServer s;
  net::StackBackend* guest = nullptr;
  int guest_if = -1;

  void SetUp() override {
    TestbedConfig config;
    config.seed = 42;
    s = make_single_server(ServerMode::kNatFlowCache, 5001, config);
    guest = &s.vm->stack();
    guest_if = guest->ifindex_of("eth0");
    ASSERT_TRUE(guest->flowcache_enabled());
  }

  /// One inbound packet to the published port from `sport`; runs to idle.
  void send_from(std::uint16_t sport, std::uint16_t dport = 5001) {
    s.client.stack->udp_send(s.client.local_ip, sport, s.server.service_ip,
                             dport, 64, nullptr);
    s.bed->engine().run();
  }

  [[nodiscard]] FlowKey inbound_key(std::uint16_t sport,
                                    std::uint16_t dport = 5001) const {
    return FlowKey{s.client.local_ip,
                   s.server.service_ip,
                   sport,
                   dport,
                   net::L4Proto::kUdp,
                   static_cast<std::int16_t>(guest_if)};
  }
};

TEST_F(NatFlowCacheScenario, DnatForwardIsCachedWithRewrite) {
  send_from(40000);
  send_from(40000);
  const auto* path = guest->flow_cache().peek(inbound_key(40000));
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->action, net::flowcache::CachedPath::Action::kForward);
  EXPECT_TRUE(path->rewrites);  // DNAT towards the container
  EXPECT_EQ(path->new_dst_ip, s.server.local_ip);
  EXPECT_NE(path->ct_id, 0u);
  EXPECT_GE(guest->flow_cache().hits(), 1u);
}

TEST_F(NatFlowCacheScenario, UnpublishPortFlushesExactlyMatchingFlows) {
  send_from(40000);
  send_from(40000);  // first packet parks on ARP; second records
  // An unrelated flow: delivered to the guest itself on another port.
  send_from(41000, 9999);
  ASSERT_TRUE(guest->flow_cache().contains(inbound_key(40000)));
  ASSERT_TRUE(guest->flow_cache().contains(inbound_key(41000, 9999)));

  auto& docker = s.bed->flowcache_cni().network_for(*s.vm);
  EXPECT_GT(docker.unpublish_port(5001), 0u);

  EXPECT_FALSE(guest->flow_cache().contains(inbound_key(40000)));
  EXPECT_TRUE(guest->flow_cache().contains(inbound_key(41000, 9999)));
}

TEST_F(NatFlowCacheScenario, FdbExpiryFlushesFlowsSwitchedThroughTheMac) {
  send_from(40000);
  send_from(40000);  // first packet parks on ARP; second records
  ASSERT_TRUE(guest->flow_cache().contains(inbound_key(40000)));

  // Age out every docker0 FDB entry: the veth MAC the cached DNAT flow is
  // switched through leaves the table, and the eviction listener flushes
  // the flow from the guest cache.
  auto& docker = s.bed->flowcache_cni().network_for(*s.vm);
  const auto far_future = s.bed->engine().now() + sim::seconds(3600);
  EXPECT_GT(docker.bridge().fdb().expire(far_future), 0u);
  EXPECT_FALSE(guest->flow_cache().contains(inbound_key(40000)));
}

TEST_F(NatFlowCacheScenario, ConntrackGcBoundsStateAndDropsCachedFlows) {
  // 64 one-packet flows: conntrack and the flow cache grow together.
  for (std::uint16_t p = 0; p < 64; ++p) {
    send_from(static_cast<std::uint16_t>(42000 + p));
  }
  const auto ct_before = guest->netfilter().conntrack_size();
  const auto cache_before = guest->flow_cache().size();
  EXPECT_GE(ct_before, 64u);
  EXPECT_GE(cache_before, 64u);

  // All flows idle past the timeout: gc reaps the connections and each
  // reaped id drops its cached fast path.
  s.bed->run_for(sim::seconds(2));
  const auto reaped = guest->conntrack_gc(sim::seconds(1));
  EXPECT_GE(reaped, 64u);
  EXPECT_LE(guest->netfilter().conntrack_size(), ct_before - 64u);
  EXPECT_LE(guest->flow_cache().size(), cache_before - 64u);
  EXPECT_FALSE(guest->flow_cache().contains(inbound_key(42000)));

  // A revived flow takes the slow path once, then is re-cached.
  send_from(42000);
  send_from(42000);
  EXPECT_TRUE(guest->flow_cache().contains(inbound_key(42000)));
}

TEST(FlowCacheScenario, CachedNatBeatsUncachedNatThroughput) {
  const auto stream = [](ServerMode mode) {
    TestbedConfig config;
    config.seed = 42;
    auto s = make_single_server(mode, 5001, config);
    workload::Netperf np(s.bed->engine(), s.client, s.server, 5001);
    return np.run_tcp_stream(1280, sim::milliseconds(100)).throughput_mbps;
  };
  const double uncached = stream(ServerMode::kNat);
  const double cached = stream(ServerMode::kNatFlowCache);
  // The bench (abl_flowcache) measures ~1.8x; keep slack for window size.
  EXPECT_GT(cached, 1.5 * uncached);
}

TEST(FlowCacheScenario, BrFusionDetachUnplugsNicAndFlushesCache) {
  TestbedConfig config;
  config.seed = 42;
  Testbed bed(config);
  vmm::Vm& vm = bed.create_vm_with_uplink("vm1");
  container::Pod& pod = bed.create_pod("pod1");
  auto& fragment = pod.add_fragment(vm);

  container::Runtime::AttachOutcome outcome;
  bool attached = false;
  bed.brfusion_cni().attach(fragment, {},
                            [&](container::Runtime::AttachOutcome o) {
                              outcome = o;
                              attached = true;
                            });
  bed.run_until_ready([&attached] { return attached; });
  ASSERT_TRUE(outcome.ok);
  fragment.stack->set_flowcache(true);

  // Host client traffic terminates at the pod NIC and is cached there.
  Endpoint client = bed.host_client("client");
  int got = 0;
  fragment.stack->udp_bind(
      7, nullptr, [&got](const net::NetworkStack::UdpDelivery&) { ++got; });
  for (int i = 0; i < 3; ++i) {
    client.stack->udp_send(client.local_ip, 1000, outcome.ip, 7, 64, nullptr);
    bed.engine().run();
  }
  EXPECT_EQ(got, 3);
  EXPECT_EQ(fragment.stack->flow_cache().size(), 1u);

  // Teardown: QMP device_del via the orchestrator channel; the stack's
  // targeted flush empties the cache and the backend goes away.
  bool detached = false;
  bed.brfusion_cni().detach(fragment, outcome.ifindex,
                            [&detached] { detached = true; });
  bed.run_until_ready([&detached] { return detached; });
  EXPECT_EQ(bed.vmm().nics_released(), 1u);
  EXPECT_EQ(fragment.stack->flow_cache().size(), 0u);

  // Late traffic to the dead NIC is dropped without touching freed state.
  const auto dropped_before = fragment.stack->packets_dropped();
  client.stack->udp_send(client.local_ip, 1000, outcome.ip, 7, 64, nullptr);
  bed.engine().run();
  EXPECT_GE(fragment.stack->packets_dropped(), dropped_before);
}

}  // namespace
}  // namespace nestv::scenario

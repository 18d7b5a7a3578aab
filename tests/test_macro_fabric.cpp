// Macro-scale layers: the compact per-flow state stores (ConnTable and the
// LruCache instantiations of net/slab_table.hpp) and their byte contract,
// the hierarchical fabric's deterministic ECMP, and the churn scenario's
// execution-mode equivalence (shards / worker counts).
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

#include "net/conn_table.hpp"
#include "net/fabric_switch.hpp"
#include "net/flowcache/flowcache.hpp"
#include "net/oncache.hpp"
#include "net/packet_pool.hpp"
#include "scenario/macro_scale.hpp"
#include "sim/engine.hpp"

namespace {

using namespace nestv;

net::ConnKey key_of(std::uint32_t a, std::uint32_t b, std::uint16_t sp,
                    std::uint16_t dp) {
  net::ConnKey k;
  k.src_ip = net::Ipv4Address(a);
  k.dst_ip = net::Ipv4Address(b);
  k.src_port = sp;
  k.dst_port = dp;
  k.proto = net::L4Proto::kUdp;
  return k;
}

// ---- ConnTable ------------------------------------------------------------

TEST(ConnTable, CreateFindReplyErase) {
  net::ConnTable t;
  net::ConnEntry e;
  e.orig = key_of(1, 2, 100, 200);
  e.reply = key_of(2, 9, 200, 333);
  const auto ref = t.create(e);
  ASSERT_TRUE(ref);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.alive(ref.id));

  // Before reply registration only the orig tuple resolves.
  EXPECT_TRUE(t.find(e.orig));
  EXPECT_FALSE(t.find(e.reply));

  ref.entry->confirmed = true;
  t.register_reply(ref.id, e.reply);
  const auto by_reply = t.find(e.reply);
  ASSERT_TRUE(by_reply);
  EXPECT_EQ(by_reply.id, ref.id);

  t.erase(ref.id);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.alive(ref.id));
  EXPECT_FALSE(t.find(e.orig));
  EXPECT_FALSE(t.find(e.reply));
}

TEST(ConnTable, StaleIdsStayDeadAfterSlotReuse) {
  net::ConnTable t;
  net::ConnEntry e;
  e.orig = key_of(1, 2, 1, 1);
  const auto first = t.create(e);
  t.erase(first.id);
  // The freed slot is reused; the old id's generation must not resolve.
  e.orig = key_of(3, 4, 2, 2);
  const auto second = t.create(e);
  EXPECT_NE(first.id, second.id);
  EXPECT_FALSE(t.alive(first.id));
  EXPECT_TRUE(t.alive(second.id));
}

TEST(ConnTable, ChurnStormKeepsIndexConsistent) {
  // Insert/erase far past several geometric chunk growths and index
  // rehashes; every surviving entry must stay reachable by both tuples
  // and every erased one unreachable.
  net::ConnTable t;
  std::vector<std::uint64_t> ids;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    net::ConnEntry e;
    e.orig = key_of(std::uint32_t(i + 1), 0x0a0a0a0a,
                    std::uint16_t(i & 0xffff), 53);
    e.reply = key_of(0x0a0a0a0a, std::uint32_t(i + 1), 53,
                     std::uint16_t(i & 0xffff));
    e.confirmed = true;
    const auto ref = t.create(e);
    t.register_reply(ref.id, e.reply);
    ids.push_back(ref.id);
  }
  EXPECT_EQ(t.size(), std::size_t(n));
  for (int i = 0; i < n; i += 2) t.erase(ids[std::size_t(i)]);
  EXPECT_EQ(t.size(), std::size_t(n) / 2);
  for (int i = 0; i < n; ++i) {
    const auto k = key_of(std::uint32_t(i + 1), 0x0a0a0a0a,
                          std::uint16_t(i & 0xffff), 53);
    EXPECT_EQ(t.find(k) ? true : false, i % 2 == 1) << i;
    EXPECT_EQ(t.alive(ids[std::size_t(i)]), i % 2 == 1) << i;
  }
  // Entry pointers are stable across all growth (slab storage).
  const auto ref = t.find_id(ids[1]);
  ASSERT_TRUE(ref);
  EXPECT_EQ(ref.entry->orig.src_ip.value(), 2u);
}

TEST(ConnTable, PortOccupancyTracksRegisteredTuples) {
  net::ConnTable t;
  net::ConnEntry e;
  e.orig = key_of(1, 2, 4000, 80);
  const auto ref = t.create(e);
  // orig registers (udp, dst_ip=2, dst_port=80).
  EXPECT_TRUE(t.port_in_use(net::L4Proto::kUdp, net::Ipv4Address(2), 80));
  EXPECT_FALSE(t.port_in_use(net::L4Proto::kUdp, net::Ipv4Address(2), 81));
  EXPECT_FALSE(t.port_in_use(net::L4Proto::kTcp, net::Ipv4Address(2), 80));
  t.erase(ref.id);
  EXPECT_FALSE(t.port_in_use(net::L4Proto::kUdp, net::Ipv4Address(2), 80));
}

TEST(ConnTable, NearIdleFootprintIsSmall) {
  // Hundreds of mostly-idle stacks are the macro-scale common case: a
  // table holding three connections must cost a couple of KB, not a
  // 256-slot chunk.
  net::ConnTable t;
  for (int i = 0; i < 3; ++i) {
    net::ConnEntry e;
    e.orig = key_of(std::uint32_t(i + 1), 99, 1000, 80);
    (void)t.create(e);
  }
  EXPECT_GT(t.state_bytes(), 0u);
  EXPECT_LT(t.state_bytes(), 8u * 1024u);
}

// ---- LruCache instantiations ------------------------------------------------

net::flowcache::FlowKey flow_key(std::uint32_t i) {
  net::flowcache::FlowKey k;
  k.src_ip = net::Ipv4Address(i + 1);
  k.dst_ip = net::Ipv4Address(0x7f000001);
  k.src_port = std::uint16_t(i & 0xffff);
  k.dst_port = 443;
  k.proto = net::L4Proto::kUdp;
  return k;
}

net::oncache::IngressKey ingress_key(std::uint32_t i) {
  net::oncache::IngressKey k;
  k.src_ip = net::Ipv4Address(i + 1);
  k.dst_ip = net::Ipv4Address(0x0a000002);
  k.vni = 42;
  k.src_port = std::uint16_t(i & 0xffff);
  k.dst_port = 4000;
  k.proto = net::L4Proto::kTcp;
  return k;
}

}  // namespace

// The typed tests' instantiations live in a named namespace: ctest names
// each typed test after its type (`...<lru_case::FlowCache>`).
namespace lru_case {

using namespace nestv;

/// What the typed tests need from one LruCache instantiation: the key of
/// flow i, a path carrying a small integer mark, the mark read back, and
/// the instantiation's own targeted flush of every entry with a given mark.
struct FlowCache {
  using Cache = net::flowcache::FlowCache;
  static net::flowcache::FlowKey key(std::uint32_t i) { return flow_key(i); }
  static net::flowcache::CachedPath path(std::int16_t mark) {
    net::flowcache::CachedPath p;
    p.out_ifindex = mark;
    p.ct_id = std::uint64_t(mark);
    return p;
  }
  static int mark(const net::flowcache::CachedPath& p) { return p.out_ifindex; }
  static std::size_t flush(Cache& c, std::int16_t mark) {
    return c.invalidate_conn(std::uint64_t(mark));
  }
};

struct OncacheIngress {
  using Cache = net::oncache::IngressCache;
  static net::oncache::IngressKey key(std::uint32_t i) {
    return ingress_key(i);
  }
  static net::oncache::IngressPath path(std::int16_t mark) {
    net::oncache::IngressPath p;
    p.out_port = mark;
    return p;
  }
  static int mark(const net::oncache::IngressPath& p) { return p.out_port; }
  static std::size_t flush(Cache& c, std::int16_t mark) {
    return c.invalidate_if([mark](const net::oncache::IngressKey&,
                                  const net::oncache::IngressPath& p) {
      return p.out_port == mark;
    });
  }
};

}  // namespace lru_case

namespace {

template <typename Case>
struct LruCacheCompact : ::testing::Test {};

using LruCases =
    ::testing::Types<lru_case::FlowCache, lru_case::OncacheIngress>;
TYPED_TEST_SUITE(LruCacheCompact, LruCases);

TYPED_TEST(LruCacheCompact, GrowthKeepsAllEntriesReachable) {
  // Push the cache through many slab-chunk and bucket-array growths; every
  // resident entry must remain reachable with its payload intact.
  using C = TypeParam;
  typename C::Cache cache(4096);
  const std::uint32_t n = 3000;
  for (std::uint32_t i = 0; i < n; ++i) {
    cache.insert(C::key(i), C::path(std::int16_t(i)));
  }
  EXPECT_EQ(cache.size(), std::size_t(n));
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto* p = cache.peek(C::key(i));
    ASSERT_NE(p, nullptr) << i;
    EXPECT_EQ(C::mark(*p), int(i));
  }
}

TYPED_TEST(LruCacheCompact, LruEvictionAtCapacity) {
  using C = TypeParam;
  typename C::Cache cache(64);
  for (std::uint32_t i = 0; i < 200; ++i) cache.insert(C::key(i), C::path(0));
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(cache.evictions(), 200u - 64u);
  // Oldest gone, newest resident.
  EXPECT_EQ(cache.peek(C::key(0)), nullptr);
  EXPECT_NE(cache.peek(C::key(199)), nullptr);
}

TYPED_TEST(LruCacheCompact, NearIdleFootprintIsSmall) {
  using C = TypeParam;
  typename C::Cache cache(4096);
  cache.insert(C::key(1), C::path(0));
  cache.insert(C::key(2), C::path(0));
  EXPECT_GT(cache.state_bytes(), 0u);
  // Buckets and slabs scale with occupancy, not capacity.
  EXPECT_LT(cache.state_bytes(), 8u * 1024u);
}

TYPED_TEST(LruCacheCompact, TargetedFlushTakesOnlyMatchingEntries) {
  using C = TypeParam;
  typename C::Cache cache(64);
  cache.insert(C::key(1), C::path(77));
  cache.insert(C::key(2), C::path(0));
  EXPECT_EQ(C::flush(cache, 77), 1u);
  EXPECT_EQ(cache.peek(C::key(1)), nullptr);
  EXPECT_NE(cache.peek(C::key(2)), nullptr);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TYPED_TEST(LruCacheCompact, InvalidateIfVisitsMostRecentFirst) {
  using C = TypeParam;
  typename C::Cache cache(64);
  for (std::uint32_t i = 0; i < 5; ++i) {
    cache.insert(C::key(i), C::path(std::int16_t(i)));
  }
  ASSERT_NE(cache.lookup(C::key(1)), nullptr);  // a hit refreshes
  cache.insert(C::key(3), C::path(3));          // so does a replace
  std::vector<int> seen;
  const std::size_t flushed =
      cache.invalidate_if([&seen](const auto&, const auto& path) {
        seen.push_back(C::mark(path));
        return C::mark(path) % 2 == 0;
      });
  EXPECT_EQ(seen, (std::vector<int>{3, 1, 4, 2, 0}));
  EXPECT_EQ(flushed, 3u);
  // Flushing mid-walk keeps the survivors' order.
  seen.clear();
  cache.invalidate_if([&seen](const auto&, const auto& path) {
    seen.push_back(C::mark(path));
    return false;
  });
  EXPECT_EQ(seen, (std::vector<int>{3, 1}));
}

// ---- the byte contract ----------------------------------------------------

// state_bytes() of a table after each step of a fixed sequence: fresh, 3
// live, 100 live (chunk and index growth), 50 erased, 50 inserted into the
// freed slots, past capacity (evictions), then a generation flush reclaimed
// lazily and refilled.
template <typename Cache, typename KeyOf>
std::vector<std::size_t> lru_bytes_trace(Cache& c, KeyOf key_of) {
  using Path = std::remove_cvref_t<decltype(*c.peek(key_of(0)))>;
  std::vector<std::size_t> bytes{c.state_bytes()};
  const auto insert = [&](std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t i = from; i < to; ++i) c.insert(key_of(i), Path{});
    bytes.push_back(c.state_bytes());
  };
  insert(0, 3);
  insert(3, 100);
  for (std::uint32_t i = 0; i < 100; i += 2) c.invalidate(key_of(i));
  bytes.push_back(c.state_bytes());
  insert(1000, 1050);
  insert(2000, 2060);
  c.invalidate_all();
  for (std::uint32_t i = 2000; i < 2060; ++i) (void)c.lookup(key_of(i));
  insert(3000, 3040);
  return bytes;
}

// The same shape for conntrack: unconfirmed then confirmed entries (two
// index bindings each), erase half, reuse the freed slots, build the lazy
// port-occupancy index, grow again.
std::vector<std::size_t> conn_bytes_trace() {
  net::ConnTable t;
  std::vector<std::uint64_t> ids;
  std::vector<std::size_t> bytes{t.state_bytes()};
  const auto create = [&](std::uint32_t from, std::uint32_t to,
                          bool confirmed) {
    for (std::uint32_t i = from; i < to; ++i) {
      net::ConnEntry e;
      e.orig = key_of(i + 1, 0x0a0a0a0a, std::uint16_t(i), 53);
      e.reply = key_of(0x0a0a0a0a, i + 1, 53, std::uint16_t(i));
      e.confirmed = confirmed;
      const auto ref = t.create(e);
      if (confirmed) t.register_reply(ref.id, e.reply);
      ids.push_back(ref.id);
    }
    bytes.push_back(t.state_bytes());
  };
  create(0, 3, false);
  create(3, 40, true);
  for (std::size_t i = 0; i < 40; i += 2) t.erase(ids[i]);
  bytes.push_back(t.state_bytes());
  create(100, 120, true);
  (void)t.port_in_use(net::L4Proto::kUdp, net::Ipv4Address(0x0a0a0a0a), 53);
  bytes.push_back(t.state_bytes());
  create(200, 260, true);
  return bytes;
}

TEST(SlabTable, StateBytesMatchFixedSequence) {
  // The bench gates (state_bytes_per_flow, flowcache_bytes_at_peak,
  // oncache_state_bytes_1280B) are sums of these footprints; the values
  // here pin the slot sizes (72/64/72/48 B), the chunk sequence and the
  // index sizing rules in tier-1.
  using Bytes = std::vector<std::size_t>;
  EXPECT_EQ(conn_bytes_trace(),
            (Bytes{0, 704, 3864, 3864, 3908, 4484, 11764}));
  net::flowcache::FlowCache flows(128);
  EXPECT_EQ(lru_bytes_trace(flows, flow_key),
            (Bytes{128, 640, 8704, 8704, 8668, 8896, 8784}));
  net::oncache::EgressCache egress(128);
  EXPECT_EQ(lru_bytes_trace(egress, flow_key),
            (Bytes{128, 704, 9728, 9728, 9692, 9920, 9808}));
  net::oncache::IngressCache ingress(128);
  EXPECT_EQ(lru_bytes_trace(ingress, ingress_key),
            (Bytes{128, 512, 6656, 6656, 6644, 6872, 6740}));
}

// ---- FabricSwitch ECMP ----------------------------------------------------

TEST(FabricSwitch, EcmpPickIsAPureFunctionOfTheFlow) {
  sim::Engine engine;
  sim::CostModel costs;
  net::FabricDirectory dir;
  net::FabricSwitch sw(engine, "tor0", costs, dir, /*ecmp_salt=*/7);
  for (int u = 0; u < 4; ++u) sw.add_uplink(sw.add_port());

  auto frame_of = [](std::uint32_t flow) {
    net::EthernetFrame f;
    f.packet.src_ip = net::Ipv4Address(10 + flow);
    f.packet.dst_ip = net::Ipv4Address(0x0a0a0001);
    f.packet.src_port = std::uint16_t(10000 + flow);
    f.packet.dst_port = 80;
    f.packet.proto = net::L4Proto::kUdp;
    return f;
  };

  // Stable per flow (any call order, any repetition), spread across the
  // group over many flows.
  std::vector<std::size_t> first;
  for (std::uint32_t i = 0; i < 64; ++i) {
    first.push_back(sw.ecmp_pick(frame_of(i)));
  }
  for (std::uint32_t i = 64; i-- > 0;) {
    EXPECT_EQ(sw.ecmp_pick(frame_of(i)), first[i]) << i;
  }
  std::vector<int> used(4, 0);
  for (const std::size_t pick : first) {
    ASSERT_LT(pick, 4u);
    used[pick] = 1;
  }
  EXPECT_GE(used[0] + used[1] + used[2] + used[3], 3)
      << "64 distinct flows should spread over the uplink group";

  // Both directions of one flow may differ (the hash is direction
  // sensitive, which is fine — each direction is itself stable), but the
  // ARP and IPv4 domains must both resolve without touching state.
  net::EthernetFrame arp;
  arp.ethertype = 0x0806;
  arp.arp_is_request = true;
  arp.arp_sender_ip = net::Ipv4Address(1);
  arp.arp_target_ip = net::Ipv4Address(2);
  const std::size_t a = sw.ecmp_pick(arp);
  EXPECT_EQ(sw.ecmp_pick(arp), a);
}

// ---- macro-scale scenario -------------------------------------------------

scenario::MacroScaleConfig tiny_config() {
  scenario::MacroScaleConfig cfg;
  cfg.seed = 7;
  cfg.machines = 4;
  cfg.machines_per_rack = 2;
  cfg.spines = 2;
  cfg.trace_users = 16;
  cfg.flows = 80;
  cfg.tcp_streams = 1;
  cfg.arrival_window = sim::milliseconds(40);
  cfg.drain = sim::milliseconds(40);
  return cfg;
}

TEST(MacroScale, ChurnRunsToCompletionWithoutLeaks) {
  const std::int64_t pool_before = net::PacketPool::live_nodes();
  const auto r = scenario::run_macro_scale(tiny_config());
  EXPECT_EQ(net::PacketPool::live_nodes(), pool_before)
      << "packet pool nodes leaked across the churn run";
  EXPECT_EQ(r.flows_completed, 80.0);
  EXPECT_GT(r.peak_concurrent_flows, 0u);
  EXPECT_GT(r.conntrack_peak_entries, 0u);
  EXPECT_GT(r.conntrack_gc_reaped, 0u)
      << "idle GC should reap departed flows while the run is live";
  EXPECT_GT(r.state_bytes_per_flow, 0.0);
  EXPECT_GT(r.stream_bytes_delivered, 0.0);
}

TEST(MacroScale, ShardsAndWorkersDoNotChangeSimulatedOutputs) {
  // The multi-path fabric keeps the conservative-parallel guarantee: the
  // ECMP choice and the keyed wire order are functions of the flow, so
  // every shard/worker shape must reproduce the single-engine run.
  const auto base = scenario::simulated_outputs(
      scenario::run_macro_scale(tiny_config()));
  struct Shape {
    int shards;
    unsigned workers;
  };
  for (const Shape s :
       {Shape{2, 1}, Shape{2, 2}, Shape{4, 1}, Shape{4, 2}, Shape{4, 4}}) {
    auto cfg = tiny_config();
    cfg.shards = s.shards;
    cfg.max_workers = s.workers;
    const auto outputs =
        scenario::simulated_outputs(scenario::run_macro_scale(cfg));
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(outputs[i].second, base[i].second)
          << base[i].first << " at shards=" << s.shards
          << " workers=" << s.workers;
    }
  }
}

}  // namespace

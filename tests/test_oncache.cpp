// Tests for the ONCache overlay fast path (src/net/oncache) and the
// VxlanDevice edge cases it leans on: flood dedup/ordering, non-VXLAN
// datagrams on the VTEP port, invalidation sources, the FastPathStack-
// hosted VTEP interplay, and teardown leak accounting.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/bridge.hpp"
#include "net/faststack.hpp"
#include "net/netfilter.hpp"
#include "net/oncache.hpp"
#include "net/packet_pool.hpp"
#include "net/stack.hpp"
#include "net/vxlan.hpp"
#include "scenario/cross_vm.hpp"
#include "scenario/macro_scale.hpp"
#include "sim/engine.hpp"
#include "sim/test_hooks.hpp"
#include "workload/netperf.hpp"

namespace {

using namespace nestv;
using net::oncache::CachedBridge;
using net::oncache::OnCache;
using scenario::CrossVmMode;

const sim::CostModel kCosts{};
constexpr std::uint32_t kVni = 7;

/// Restores every test hook on scope exit.
struct HookGuard {
  ~HookGuard() { sim::test_hooks::reset(); }
};

/// N overlay nodes on one underlay bridge: each node is a stack (full or
/// fast-path) with an uplink, an overlay CachedBridge + OnCache + VTEP and
/// one pod-side member port — the net-level skeleton of
/// scenario::OverlayNetwork.
struct OverlayRig {
  struct Node {
    std::unique_ptr<net::PortBackend> up;
    std::unique_ptr<net::StackBackend> stack;
    std::unique_ptr<CachedBridge> ov;
    std::unique_ptr<net::VxlanDevice> vx;
    std::unique_ptr<OnCache> oc;
    std::unique_ptr<net::PortBackend> mem;
    net::Ipv4Address ip;       ///< underlay / VTEP address
    net::Ipv4Address pod_ip;   ///< overlay member address
    net::MacAddress pod_mac;
    std::vector<net::EthernetFrame> rx;  ///< frames seen by the member
  };

  sim::Engine engine;
  net::Bridge underlay{engine, "underlay", kCosts};
  std::vector<std::unique_ptr<Node>> nodes;
  std::uint64_t next_id = 1;

  explicit OverlayRig(int n, bool wire_remotes = true,
                      int fastpath_node = -1) {
    const net::Ipv4Cidr subnet(net::Ipv4Address(10, 0, 0, 0), 24);
    for (int i = 0; i < n; ++i) {
      auto node = std::make_unique<Node>();
      const std::string tag = std::to_string(i);
      node->ip = net::Ipv4Address(10, 0, 0, std::uint8_t(i + 1));
      node->pod_ip = net::Ipv4Address(10, 99, 0, std::uint8_t(i + 1));
      node->pod_mac = net::MacAddress::local_from_id(100 + std::uint64_t(i));

      node->up = std::make_unique<net::PortBackend>(engine, "up" + tag,
                                                    kCosts);
      net::Device::connect(*node->up, 0, underlay, underlay.add_port());
      if (i == fastpath_node) {
        node->stack = std::make_unique<net::FastPathStack>(
            engine, "fast" + tag, kCosts, nullptr);
      } else {
        node->stack = std::make_unique<net::NetworkStack>(
            engine, "stack" + tag, kCosts, nullptr);
      }
      node->stack->add_interface(
          *node->up, {"eth0", net::MacAddress::local_from_id(std::uint64_t(i) + 1),
                      node->ip, subnet, 1500, 1448});

      node->ov = std::make_unique<CachedBridge>(engine, "ov" + tag, kCosts);
      node->vx = std::make_unique<net::VxlanDevice>(
          engine, "vx" + tag, kCosts, *node->stack, node->ip, kVni);
      const int vxlan_port = node->ov->add_port();
      net::Device::connect(*node->vx, 0, *node->ov, vxlan_port);
      node->oc = std::make_unique<OnCache>(*node->stack, kCosts, kVni);
      node->oc->set_local_vtep(node->ip);
      node->oc->set_uplink_ifindex(node->stack->ifindex_of("eth0"));
      node->ov->attach_oncache(node->oc.get(), vxlan_port);
      node->vx->set_oncache(node->oc.get());
      node->stack->attach_oncache(node->oc.get());

      node->mem = std::make_unique<net::PortBackend>(engine, "mem" + tag,
                                                     kCosts);
      net::Device::connect(*node->mem, 0, *node->ov, node->ov->add_port());
      Node* raw = node.get();
      node->mem->set_rx(
          [raw](net::EthernetFrame&& f) { raw->rx.push_back(std::move(f)); });
      nodes.push_back(std::move(node));
    }
    if (wire_remotes) {
      for (auto& a : nodes) {
        for (auto& b : nodes) {
          if (a.get() == b.get()) continue;
          a->vx->add_remote(b->pod_mac, b->ip);
          a->vx->add_flood_target(b->ip);
        }
      }
    }
  }

  void enable_caches(bool on) {
    for (auto& n : nodes) n->oc->set_enabled(on);
  }

  /// Member of `at` echoes every datagram back to its sender.
  void enable_echo(int at) {
    Node* n = nodes[std::size_t(at)].get();
    OverlayRig* rig = this;
    n->mem->set_rx([rig, n](net::EthernetFrame&& f) {
      net::EthernetFrame r;
      r.src = f.dst;
      r.dst = f.src;
      r.packet.proto = net::L4Proto::kUdp;
      r.packet.src_ip = f.packet.dst_ip;
      r.packet.dst_ip = f.packet.src_ip;
      r.packet.src_port = f.packet.dst_port;
      r.packet.dst_port = f.packet.src_port;
      r.packet.payload_bytes = f.packet.payload_bytes;
      r.packet.packet_id = rig->next_id++;
      n->rx.push_back(std::move(f));
      n->mem->xmit(std::move(r));
    });
  }

  void send_udp(int from, int to, std::uint16_t sport, std::uint16_t dport,
                std::uint32_t bytes) {
    Node& src = *nodes[std::size_t(from)];
    Node& dst = *nodes[std::size_t(to)];
    net::EthernetFrame f;
    f.src = src.pod_mac;
    f.dst = dst.pod_mac;
    f.packet.proto = net::L4Proto::kUdp;
    f.packet.src_ip = src.pod_ip;
    f.packet.dst_ip = dst.pod_ip;
    f.packet.src_port = sport;
    f.packet.dst_port = dport;
    f.packet.payload_bytes = bytes;
    f.packet.packet_id = next_id++;
    src.mem->xmit(std::move(f));
  }

  /// `count` echo transactions 0 -> `to`, run to quiescence between sends
  /// so post-warmup packets can hit the caches.
  void run_transactions(int to, int count) {
    for (int k = 0; k < count; ++k) {
      send_udp(0, to, 4000, 9000, 200);
      engine.run();
    }
  }
};

// ---- VxlanDevice edge cases ----------------------------------------------

TEST(Vxlan, FloodTargetDedupAndNeverLocal) {
  OverlayRig rig(2, /*wire_remotes=*/false);
  auto& vx = *rig.nodes[0]->vx;
  vx.add_flood_target(rig.nodes[0]->ip);  // the local VTEP: ignored
  EXPECT_EQ(vx.flood_target_count(), 0u);
  vx.add_flood_target(rig.nodes[1]->ip);
  vx.add_flood_target(rig.nodes[1]->ip);  // duplicate: ignored
  vx.add_flood_target(rig.nodes[0]->ip);
  EXPECT_EQ(vx.flood_target_count(), 1u);
}

TEST(Vxlan, UnknownInnerMacFloodIsDeterministic) {
  // No add_remote programming: the destination MAC is unknown, so the
  // frame floods (one encap per remote VTEP) and both remote members see
  // it.  Two identical runs must produce identical arrival sequences.
  auto run_once = [] {
    OverlayRig rig(3, /*wire_remotes=*/false);
    for (int j = 1; j < 3; ++j) {
      rig.nodes[0]->vx->add_flood_target(rig.nodes[std::size_t(j)]->ip);
    }
    rig.send_udp(0, 1, 4000, 9000, 128);
    rig.engine.run();
    std::vector<std::pair<int, std::size_t>> arrivals;
    for (int i = 0; i < 3; ++i) {
      arrivals.emplace_back(i, rig.nodes[std::size_t(i)]->rx.size());
    }
    return std::make_tuple(rig.nodes[0]->vx->encapsulated(), arrivals,
                           rig.engine.now());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(std::get<0>(a), 2u);  // one encap per flood target
  EXPECT_EQ(a, b);                // arrival counts and final clock identical
  // Flooded copies reached both remote members.
  const auto& arrivals = std::get<1>(a);
  EXPECT_EQ(arrivals[1].second, 1u);
  EXPECT_EQ(arrivals[2].second, 1u);
}

TEST(Vxlan, NonVxlanDatagramOnVtepPortCountedAndDropped) {
  OverlayRig rig(2);
  // A plain (truncated / non-VXLAN) datagram aimed at the VTEP port: no
  // inner frame, so the VTEP counts and drops it without a decap event.
  rig.nodes[0]->stack->udp_send(rig.nodes[0]->ip, 1000, rig.nodes[1]->ip,
                                net::VxlanDevice::kVtepPort, 64, nullptr);
  rig.engine.run();
  EXPECT_EQ(rig.nodes[1]->vx->rx_non_vxlan(), 1u);
  EXPECT_EQ(rig.nodes[1]->vx->decapsulated(), 0u);
  EXPECT_TRUE(rig.nodes[1]->rx.empty());
}

// ---- fast-path hit behavior ----------------------------------------------

struct SeqOutcome {
  std::size_t delivered_at_1 = 0;
  std::size_t replies_at_0 = 0;
  std::uint64_t eg0 = 0, in0 = 0, eg1 = 0, in1 = 0;
  std::size_t entries = 0, state_bytes = 0;
};

SeqOutcome run_echo_sequence(bool enabled, int count = 6) {
  OverlayRig rig(2);
  rig.enable_caches(enabled);
  rig.enable_echo(1);
  rig.run_transactions(1, count);
  SeqOutcome out;
  out.delivered_at_1 = rig.nodes[1]->rx.size();
  out.replies_at_0 = rig.nodes[0]->rx.size();
  out.eg0 = rig.nodes[0]->oc->egress_hits();
  out.in0 = rig.nodes[0]->oc->ingress_hits();
  out.eg1 = rig.nodes[1]->oc->egress_hits();
  out.in1 = rig.nodes[1]->oc->ingress_hits();
  out.entries = rig.nodes[0]->oc->size() + rig.nodes[1]->oc->size();
  out.state_bytes =
      rig.nodes[0]->oc->state_bytes() + rig.nodes[1]->oc->state_bytes();
  return out;
}

TEST(Oncache, HitsServeTrafficWithIdenticalDeliveries) {
  const SeqOutcome off = run_echo_sequence(false);
  const SeqOutcome on = run_echo_sequence(true);
  // Same application outcome either way.
  EXPECT_EQ(off.delivered_at_1, 6u);
  EXPECT_EQ(off.replies_at_0, 6u);
  EXPECT_EQ(on.delivered_at_1, off.delivered_at_1);
  EXPECT_EQ(on.replies_at_0, off.replies_at_0);
  // Disabled caches never hit or store anything.
  EXPECT_EQ(off.eg0 + off.in0 + off.eg1 + off.in1, 0u);
  EXPECT_EQ(off.entries, 0u);
  // Enabled: after the first (teaching) transaction all four directions
  // run cached — egress at the sender, ingress at the receiver, and the
  // mirror pair for the replies.
  EXPECT_GE(on.eg0, 3u);
  EXPECT_GE(on.in1, 3u);
  EXPECT_GE(on.eg1, 3u);
  EXPECT_GE(on.in0, 3u);
  EXPECT_GT(on.entries, 0u);
  EXPECT_GT(on.state_bytes, 0u);
}

TEST(Oncache, DisableFlushesAndStopsHits) {
  OverlayRig rig(2);
  rig.enable_caches(true);
  rig.enable_echo(1);
  rig.run_transactions(1, 4);
  const std::uint64_t hits_before = rig.nodes[0]->oc->egress_hits();
  EXPECT_GT(hits_before, 0u);
  rig.enable_caches(false);
  rig.run_transactions(1, 3);
  // Traffic still flows (slow path), but the caches no longer serve.
  EXPECT_EQ(rig.nodes[1]->rx.size(), 7u);
  EXPECT_EQ(rig.nodes[0]->oc->egress_hits(), hits_before);
}

// ---- invalidation sources ------------------------------------------------

TEST(Oncache, VtepRemapInvalidatesCachedPaths) {
  HookGuard guard;
  OverlayRig rig(3);
  rig.enable_caches(true);
  rig.enable_echo(1);
  rig.run_transactions(1, 3);
  auto& oc0 = *rig.nodes[0]->oc;
  ASSERT_GT(oc0.egress_hits(), 0u);

  const std::uint64_t inval_before = oc0.invalidations();
  // The remote pod "moved" to node 2's VTEP: cached egress paths for its
  // MAC bake in the old outer destination and must flush.
  rig.nodes[0]->vx->add_remote(rig.nodes[1]->pod_mac, rig.nodes[2]->ip);
  EXPECT_GT(oc0.invalidations(), inval_before);

  // With the invalidation hook disabled, the same remap flushes nothing
  // (this is the bug class the fuzz oracle exists to catch).
  rig.nodes[0]->vx->add_remote(rig.nodes[1]->pod_mac, rig.nodes[1]->ip);
  rig.run_transactions(1, 2);  // re-warm
  const std::uint64_t inval_mid = oc0.invalidations();
  sim::test_hooks::skip_oncache_vtep_invalidation = true;
  rig.nodes[0]->vx->add_remote(rig.nodes[1]->pod_mac, rig.nodes[2]->ip);
  EXPECT_EQ(oc0.invalidations(), inval_mid);
}

TEST(Oncache, RuleEditInvalidatesMatchingEntries) {
  OverlayRig rig(2);
  rig.enable_caches(true);
  rig.enable_echo(1);
  rig.run_transactions(1, 4);
  auto& nf1 =
      static_cast<net::NetworkStack&>(*rig.nodes[1]->stack).netfilter();
  const std::size_t at_1 = rig.nodes[1]->rx.size();

  // Drop VXLAN datagrams at the receiver's INPUT chain.  The rule edit
  // must flush node 1's cached ingress paths (their outer view matches
  // dport 4789), so the next datagram takes the slow path and dies at the
  // filter — the cache cannot keep a revoked flow alive.
  net::Rule drop;
  drop.match.proto = net::L4Proto::kUdp;
  drop.match.dport = net::VxlanDevice::kVtepPort;
  drop.target = net::TargetKind::kDrop;
  nf1.add_filter_rule(net::Hook::kInput, drop);
  rig.send_udp(0, 1, 4000, 9000, 200);
  rig.engine.run();
  EXPECT_EQ(rig.nodes[1]->rx.size(), at_1);
}

TEST(Oncache, SkippedRuleInvalidationLeaksStaleFastPath) {
  HookGuard guard;
  OverlayRig rig(2);
  rig.enable_caches(true);
  rig.enable_echo(1);
  rig.run_transactions(1, 4);
  const std::size_t at_1 = rig.nodes[1]->rx.size();

  // Same drop rule, but with rule-edit invalidation disabled the ingress
  // fast path (which runs before PREROUTING/INPUT) keeps delivering —
  // the exact divergence `fuzz_runner --inject-bug oncache` detects.
  sim::test_hooks::skip_oncache_rule_invalidation = true;
  auto& nf1 =
      static_cast<net::NetworkStack&>(*rig.nodes[1]->stack).netfilter();
  net::Rule drop;
  drop.match.proto = net::L4Proto::kUdp;
  drop.match.dport = net::VxlanDevice::kVtepPort;
  drop.target = net::TargetKind::kDrop;
  nf1.add_filter_rule(net::Hook::kInput, drop);
  rig.send_udp(0, 1, 4000, 9000, 200);
  rig.engine.run();
  EXPECT_GT(rig.nodes[1]->rx.size(), at_1);
}

// ---- FastPathStack-hosted VTEP -------------------------------------------

TEST(Oncache, FastPathStackHostedVtepWorksButStaysCold) {
  OverlayRig rig(2, /*wire_remotes=*/true, /*fastpath_node=*/1);
  EXPECT_FALSE(rig.nodes[1]->stack->has_netfilter());
  rig.enable_caches(true);
  rig.enable_echo(1);
  rig.run_transactions(1, 4);
  // Traffic is unaffected by the backend swap...
  EXPECT_EQ(rig.nodes[1]->rx.size(), 4u);
  EXPECT_EQ(rig.nodes[0]->rx.size(), 4u);
  // ...but the fast-path stack has no completion hook on its emit path
  // (egress never records) and no RX lookup hook (nothing ever serves):
  // attached is sound, just cold.  Only the device-level ingress recording
  // runs, so at most ingress entries exist — with zero hits.
  EXPECT_EQ(rig.nodes[1]->oc->egress_hits(), 0u);
  EXPECT_EQ(rig.nodes[1]->oc->ingress_hits(), 0u);
  EXPECT_EQ(rig.nodes[1]->oc->egress_cache().size(), 0u);
  // The full-stack side still caches its own directions.
  EXPECT_GT(rig.nodes[0]->oc->egress_hits(), 0u);
}

// ---- scenario level ------------------------------------------------------

struct OverlayOutcome {
  std::uint64_t transactions = 0;
  double mean_latency_us = 0.0;
  std::uint64_t stream_bytes = 0;
  std::uint64_t events = 0;
  std::int64_t pool_delta = 0;
};

/// Cross-VM overlay at seed 7: 5 ms of 256 B UDP RR, then 5 ms of 1280 B
/// TCP stream, with the ONCache fast path on or off.
OverlayOutcome run_overlay(bool enable) {
  const std::int64_t pool_before = net::PacketPool::live_nodes();
  OverlayOutcome out;
  {
    scenario::TestbedConfig config;
    config.seed = 7;
    auto s = scenario::make_cross_vm(CrossVmMode::kOverlay, 6001, config);
    if (enable) s.overlay->set_oncache_enabled(true);
    workload::Netperf np(s.bed->engine(), s.client, s.server, 6001);
    const auto rr = np.run_udp_rr(256, sim::milliseconds(5));
    const auto st = np.run_tcp_stream(1280, sim::milliseconds(5));
    out.transactions = rr.transactions;
    out.mean_latency_us = rr.mean_latency_us;
    out.stream_bytes = st.bytes_delivered;
    out.events = s.bed->engine().events_executed();
  }
  out.pool_delta = net::PacketPool::live_nodes() - pool_before;
  return out;
}

TEST(OncacheScenario, AttachedDisabledPinsSlowPathOutputs) {
  // A disabled cache must leave the itemized bridge + VXLAN path exactly
  // as it was before the cache existed.  These are that path's outputs:
  // the plain CachedBridge-free overlay produced the same four values, bit
  // for bit (the mean latency is 5014.77 us summed over 143 transactions).
  const auto off = run_overlay(false);
  EXPECT_EQ(off.transactions, 143u);
  EXPECT_EQ(off.mean_latency_us, 35.068321678321752);
  EXPECT_EQ(off.stream_bytes, 1817072u);
  EXPECT_EQ(off.events, 39308u);
}

TEST(OncacheScenario, EnabledSpeedsUpAndCounts) {
  const auto off = run_overlay(false);
  const auto on = run_overlay(true);
  // Closed-loop RR: the cached path is never slower.
  EXPECT_GE(on.transactions, off.transactions);
  EXPECT_GT(on.transactions, 0u);
}

// ---- macro scale ---------------------------------------------------------

scenario::MacroScaleConfig overlay_macro_config(int shards) {
  scenario::MacroScaleConfig cfg;
  cfg.seed = 7;
  cfg.machines = 2;
  cfg.machines_per_rack = 2;
  cfg.spines = 2;
  cfg.shards = shards;
  cfg.trace_users = 8;
  cfg.flows = 48;
  cfg.tcp_streams = 1;
  cfg.overlay_pairs_per_machine = 1;
  cfg.arrival_window = sim::milliseconds(40);
  cfg.drain = sim::milliseconds(40);
  return cfg;
}

TEST(OncacheScenario, MacroScaleOverlayMixWarmsAndSamplesCaches) {
  const auto r = scenario::run_macro_scale(overlay_macro_config(1));
  EXPECT_GT(r.flows_completed, 0.0);
  // The overlay flow mode joined the rotation: the encap/decap caches
  // served traffic and the GC ticks caught them occupied.
  EXPECT_GT(r.oncache_hits, 0u);
  EXPECT_GT(r.oncache_entries_at_peak, 0u);
  EXPECT_GT(r.oncache_bytes_at_peak, 0u);
}

TEST(OncacheScenario, MacroScaleOverlayMixIsShardInvariant) {
  const auto a = scenario::simulated_outputs(
      scenario::run_macro_scale(overlay_macro_config(1)));
  const auto b = scenario::simulated_outputs(
      scenario::run_macro_scale(overlay_macro_config(2)));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].second, b[i].second) << a[i].first;
  }
}

TEST(OncacheScenario, NoPacketPoolLeakAcrossTeardown) {
  for (const bool enable : {false, true}) {
    const auto r = run_overlay(enable);
    EXPECT_GT(r.transactions, 0u);
    EXPECT_EQ(r.pool_delta, 0) << "enabled=" << enable;
  }
}

}  // namespace

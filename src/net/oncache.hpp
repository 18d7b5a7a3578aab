// ONCache-style overlay fast path: cached encap/decap for VXLAN traffic.
//
// The Overlay baseline (figs 10-15) pays the full chain on every packet:
// inner bridge lookup -> VXLAN encap resolution -> underlay OUTPUT/
// POSTROUTING hooks -> route -> ARP on egress, and the mirror chain
// (PREROUTING/INPUT -> UDP demux -> decap -> inner bridge) on ingress.
// For all but the first packet of a flow the outcome is fully determined,
// exactly the observation net/flowcache exploits for non-encapsulated
// paths.  OnCache memoizes the overlay outcome:
//
//  * egress cache: inner FlowKey (5-tuple + bridge ingress port) ->
//    EgressPath {resolved VTEP, precomputed outer headers, egress ifindex +
//    next-hop MAC, outer conntrack backing, fused cost}.  A hit at the
//    overlay bridge emits the finished outer frame in ONE fused-cost event
//    (oncache_encap_hit) instead of the bridge/vxlan/l4/hook/route chain.
//  * ingress cache: {VNI + inner 5-tuple} -> IngressPath {expected sender
//    VTEP, target bridge port, fused cost}.  A hit at stack RX delivers the
//    inner frame straight to the pod-facing bridge port in one event
//    (oncache_decap_hit), skipping PREROUTING/INPUT, UDP demux and the
//    decap + bridge-forward events.
//
// Coherence reuses the flowcache machinery (generation stamps + targeted
// invalidation) extended to the overlay-specific sources:
//
//   source                         | action
//   -------------------------------+--------------------------------------
//   netfilter rule edit            | invalidate_rule_match: flush entries
//                                  | whose outer header view (pre- and
//                                  | post-NAT egress, ingress) matches
//   VTEP l2_table_ remap           | invalidate_inner_mac (VxlanDevice::
//                                  | add_remote)
//   overlay bridge FDB evict/flush | invalidate_inner_mac (Fdb eviction
//                                  | listener installed by CachedBridge)
//   NIC hot-unplug                 | invalidate_egress_ifindex (+ full
//                                  | ingress flush when it is the uplink)
//   conntrack GC reap              | invalidate_conn (egress entries carry
//                                  | the outer connection's ct_id)
//   route-table edit               | routes_gen stamp check at hit time
//   cache disable                  | invalidate_all + pending reset
//
// Both tables are the flowcache's LruCache (net/slab_table.hpp) over their
// own key/path types, so entries are compact: no string interface names,
// fixed-width stamps.
//
// Recording happens on the slow path only (so the first packet of a flow
// pays full price and teaches the cache), threaded through the async chain
// by packet identity: the bridge notes a cacheable inner frame, the VTEP
// promotes it to the outer packet id at encap, and the stack completes it
// once the outer route + ARP resolve (FullStack::arp_resolve_and_send).
// A FastPathStack-hosted VTEP never completes (its emit path has no
// recording hook), so attaching a cache there is sound but stays cold —
// the has_netfilter()==false interplay the tests pin down.
//
// Attached-but-disabled charges exactly the plain overlay path: every hook
// is a null/bool guard, no event, charge or RNG draw differs (the tier-1
// test OncacheScenario.AttachedDisabledPinsSlowPathOutputs pins that
// path's outputs to the values of the pre-oncache overlay).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>

#include "net/bridge.hpp"
#include "net/flowcache/flow_key.hpp"
#include "net/netfilter.hpp"
#include "net/packet.hpp"
#include "net/slab_table.hpp"
#include "net/stack_backend.hpp"
#include "sim/cost_model.hpp"

namespace nestv::net::oncache {

/// Identity of one decapsulated inner flow: VNI + inner 5-tuple.  The
/// bridge ingress port is *not* part of the key — every ingress entry
/// enters through the VTEP — but the learned sender VTEP is validated on
/// each hit so a remote endpoint that moved cannot keep injecting.
struct IngressKey {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint32_t vni = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  L4Proto proto = L4Proto::kUdp;

  friend bool operator==(const IngressKey&, const IngressKey&) = default;

  [[nodiscard]] static IngressKey of(const Packet& inner, std::uint32_t vni) {
    return IngressKey{inner.src_ip,   inner.dst_ip,   vni,
                      inner.src_port, inner.dst_port, inner.proto};
  }
};

struct IngressKeyHash {
  std::size_t operator()(const IngressKey& k) const noexcept {
    std::uint64_t h = k.src_ip.value();
    h = h * 0x9e3779b97f4a7c15ULL + k.dst_ip.value();
    h = h * 0x9e3779b97f4a7c15ULL + k.vni;
    h = h * 0x9e3779b97f4a7c15ULL +
        ((std::uint64_t{k.src_port} << 24) | (std::uint64_t{k.dst_port} << 8) |
         static_cast<std::uint64_t>(static_cast<std::uint8_t>(k.proto)));
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

/// Memoized egress outcome for one inner flow.  Compact per the slab-arena
/// style: fixed-width stamps, ifindex ordinals, no strings (rule-match
/// targeting resolves names through the owning stack).
struct EgressPath {
  /// Outer connection's conntrack backing; a cached path whose backing
  /// expired must not serve hits (validated by OnCache at hit time).
  std::uint64_t ct_id = 0;

  Ipv4Address remote_vtep;  ///< pre-NAT outer destination (rule targeting)
  /// Post-hook outer header (what OUTPUT/POSTROUTING produced).
  Ipv4Address outer_src;
  Ipv4Address outer_dst;
  std::uint16_t outer_sport = 0;
  std::uint16_t outer_dport = 0;

  /// Fused per-packet charge replacing the bridge/encap/hook/route chain.
  std::uint32_t fast_cost = 0;

  std::uint16_t generation = 0;  ///< cache generation at insert
  std::uint16_t routes_gen = 0;  ///< owning stack's routing generation

  MacAddress inner_dst;     ///< validated against the frame on each hit
  MacAddress next_hop_mac;  ///< resolved underlay L2 next hop
  std::int16_t out_ifindex = -1;
};

/// Memoized ingress outcome: deliver the decapped frame to `out_port`.
/// No ct_id by design — the ingress fast path does not keep the outer
/// connection's conntrack entry alive; if GC reaps it only the slow path
/// notices (and re-creates it on the next miss).
struct IngressPath {
  Ipv4Address outer_src;  ///< expected sender VTEP (validated on hit)
  std::uint32_t fast_cost = 0;
  std::uint16_t generation = 0;
  MacAddress inner_dst;  ///< validated against the decapped frame
  std::int16_t out_port = -1;  ///< overlay bridge port of the target veth
};

using EgressCache =
    LruCache<flowcache::FlowKey, EgressPath, flowcache::FlowKeyHash>;
using IngressCache = LruCache<IngressKey, IngressPath, IngressKeyHash>;
static_assert(EgressCache::slot_bytes() == 72,
              "oncache state_bytes() gates pin this");
static_assert(IngressCache::slot_bytes() == 48,
              "oncache state_bytes() gates pin this");

class OnCache;

/// Overlay bridge with an egress fast-path tap.  Subclassing (rather than
/// interposing a device) keeps the topology identical: no extra hop, and
/// with no cache attached — or the cache disabled — every frame takes
/// exactly Bridge's path.
class CachedBridge : public Bridge {
 public:
  CachedBridge(sim::Engine& engine, std::string name,
               const sim::CostModel& costs, bool guest_level = true)
      : Bridge(engine, std::move(name), costs, guest_level) {}

  /// `vxlan_port` is the bridge port the VTEP hangs off; frames switched
  /// toward it are encap candidates, frames entering from it are decap
  /// results.  Also subscribes the cache to FDB evictions.
  void attach_oncache(OnCache* cache, int vxlan_port);

  /// Injects a frame into `port` as if forwarded (the ingress fast path's
  /// last hop; Device::transmit is protected).
  void inject(int port, EthernetFrame&& frame) {
    transmit(port, std::move(frame));
  }

  void ingress(EthernetFrame&& frame, int port) override;

 protected:
  void forward(EthernetFrame&& frame, int ingress_port) override;

 private:
  OnCache* cache_ = nullptr;
  int vxlan_port_ = -1;
};

/// The per-stack overlay fast-path cache.  One instance per (VM, overlay):
/// it is wired to the VM's overlay CachedBridge, its VxlanDevice and its
/// underlay stack (StackBackend::attach_oncache).
class OnCache {
 public:
  static constexpr std::uint16_t kVtepPort = 4789;

  OnCache(StackBackend& stack, const sim::CostModel& costs,
          std::uint32_t vni = 0)
      : stack_(&stack),
        costs_(&costs),
        vni_(vni),
        egress_(costs.oncache_capacity),
        ingress_(costs.oncache_capacity) {}

  void set_local_vtep(Ipv4Address ip) { local_vtep_ = ip; }
  void set_uplink_ifindex(int ifindex) { uplink_ifindex_ = ifindex; }
  void set_bridge(CachedBridge* bridge) { bridge_ = bridge; }

  /// Off by default: the calibrated Overlay figures are measured with the
  /// cache disabled, and attached-disabled is bit-identical to detached.
  /// Disabling flushes both tables and the pending records.
  void set_enabled(bool on) {
    enabled_ = on;
    if (!on) {
      egress_.invalidate_all();
      ingress_.invalidate_all();
      clear_pending();
    }
  }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint32_t vni() const { return vni_; }
  [[nodiscard]] std::uint16_t vtep_port() const { return kVtepPort; }

  // ---- slow-path recording ----------------------------------------------
  // The resolution of one egress flow is scattered across the async chain;
  // records are threaded by packet identity (per-stack packet ids are only
  // unique per stack, so the inner key pairs the id with the inner source
  // MAC, unique per pod).
  struct PendingKey {
    std::uint64_t packet_id = 0;
    MacAddress src;
    friend bool operator==(const PendingKey&, const PendingKey&) = default;
  };

  /// Bridge saw an inner frame switch toward the VTEP port.
  void note_egress(const PendingKey& k, const flowcache::FlowKey& key,
                   MacAddress inner_dst);
  /// VTEP resolved the remote and minted the outer packet id.
  void promote_egress(const PendingKey& k, Ipv4Address remote_vtep,
                      std::uint64_t outer_packet_id);
  /// The frame flooded (or was otherwise not cacheable): drop the record.
  void abandon_egress(const PendingKey& k);
  /// Outer route + ARP resolved (FullStack::arp_resolve_and_send): insert
  /// the egress entry and charge the one-time oncache_insert.
  void complete_egress(const Packet& outer, int out_ifindex,
                       MacAddress next_hop_mac);

  /// VTEP decapsulated an inner frame from `outer_src`.
  void note_ingress(const PendingKey& k, const IngressKey& key,
                    Ipv4Address outer_src);
  void abandon_ingress(const PendingKey& k);
  /// Bridge switched the decapped frame to a known pod port.
  void complete_ingress(const PendingKey& k, MacAddress inner_dst,
                        int out_port);

  // ---- fast paths -------------------------------------------------------
  /// Egress lookup + validation (inner dst MAC, routing generation, outer
  /// conntrack liveness — which it also touches, keeping the outer
  /// connection alive while the hooks are bypassed).  Stale entries are
  /// flushed; returns null on any miss.
  [[nodiscard]] const EgressPath* match_egress(const EthernetFrame& frame,
                                               int ingress_port);
  /// Builds and transmits the outer frame (runs inside the bridge's fused
  /// cost event).
  void serve_egress(const EgressPath& path, EthernetFrame&& inner);

  /// Ingress lookup + validation (sender VTEP, inner dst MAC) for an outer
  /// datagram addressed to this stack's VTEP port.
  [[nodiscard]] const IngressPath* match_ingress(const Packet& outer);
  /// Hands the stolen inner frame to the overlay bridge port (runs inside
  /// the stack's fused cost event).
  void deliver_ingress(int out_port, EthernetFrame&& frame);

  // ---- invalidation -----------------------------------------------------
  /// Rule-table edit: flush entries whose outer header view (egress pre-
  /// and post-NAT, ingress) matches the changed rule's predicate.
  std::size_t invalidate_rule_match(
      const RuleMatch& match,
      const std::function<std::string(int)>& iface_name);
  /// VTEP remap / overlay FDB eviction: flush both directions of `mac`.
  std::size_t invalidate_inner_mac(MacAddress mac);
  /// NIC hot-unplug: flush egress entries leaving `ifindex`; when it is
  /// the VTEP's uplink the ingress table goes too (nothing can arrive).
  std::size_t invalidate_egress_ifindex(int ifindex);
  /// Conntrack GC reaped the outer connection backing an egress entry.
  std::size_t invalidate_conn(std::uint64_t ct_id);
  void invalidate_all();

  // ---- statistics -------------------------------------------------------
  [[nodiscard]] std::uint64_t egress_hits() const { return egress_.hits(); }
  [[nodiscard]] std::uint64_t ingress_hits() const { return ingress_.hits(); }
  [[nodiscard]] std::uint64_t invalidations() const {
    return egress_.invalidations() + ingress_.invalidations();
  }
  [[nodiscard]] std::size_t size() const {
    return egress_.size() + ingress_.size();
  }
  [[nodiscard]] std::size_t state_bytes() const {
    return egress_.state_bytes() + ingress_.state_bytes();
  }
  [[nodiscard]] const EgressCache& egress_cache() const { return egress_; }

  [[nodiscard]] StackBackend& stack() { return *stack_; }
  [[nodiscard]] const sim::CostModel& costs() const { return *costs_; }

 private:
  struct PendingKeyHash {
    std::size_t operator()(const PendingKey& k) const noexcept {
      const std::uint64_t h =
          (k.packet_id ^ k.src.as_u64()) * 0x9e3779b97f4a7c15ULL;
      return static_cast<std::size_t>(h ^ (h >> 31));
    }
  };
  struct PendingEgress {
    flowcache::FlowKey key;
    MacAddress inner_dst;
    Ipv4Address remote_vtep;  ///< set at promote
  };
  struct PendingIngress {
    IngressKey key;
    Ipv4Address outer_src;
  };

  /// Pending records are transient (bridge -> VTEP -> ARP, a handful of
  /// events); a bounded population keeps a lossy chain from accumulating
  /// state.  Overflow clears everything — deterministic, and the flows
  /// simply re-record.
  static constexpr std::size_t kMaxPending = 64;

  void clear_pending() {
    pending_by_inner_.clear();
    pending_by_outer_.clear();
    pending_ingress_.clear();
  }
  void charge_insert();

  StackBackend* stack_;
  const sim::CostModel* costs_;
  CachedBridge* bridge_ = nullptr;
  Ipv4Address local_vtep_;
  int uplink_ifindex_ = -1;
  std::uint32_t vni_ = 0;
  bool enabled_ = false;

  EgressCache egress_;
  IngressCache ingress_;

  std::unordered_map<PendingKey, PendingEgress, PendingKeyHash>
      pending_by_inner_;
  std::unordered_map<std::uint64_t, PendingEgress> pending_by_outer_;
  std::unordered_map<PendingKey, PendingIngress, PendingKeyHash>
      pending_ingress_;
};

}  // namespace nestv::net::oncache

// FullStack: one network namespace's full-featured L3/L4 machinery — the
// default StackBackend (see net/stack_backend.hpp for the seam).
//
// Owns a Netfilter instance, GRO/reassembly state and the per-flow
// fast-path cache; the interface table, routing table, ARP and the UDP/TCP
// socket tables live in the shared StackBackend base.  A stack instance
// stands for: the host kernel's init netns, a guest kernel's init netns, or
// a pod's network namespace — all of which appear in the paper's fig 1
// datapaths.
//
// CPU model: protocol work (IP processing, netfilter hooks, TCP/UDP segment
// handling) runs on the stack's softirq SerialResource, charged as kSoft —
// matching the paper's attribution of NAT hook work to software interrupts
// (section 5.2.3).  Socket syscall work (send/recv + user/kernel copies) is
// charged to the calling application's resource as kSys.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/flowcache/flowcache.hpp"
#include "net/netfilter.hpp"
#include "net/packet.hpp"
#include "net/stack_backend.hpp"
#include "sim/cost_model.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"

namespace nestv::net {

class FullStack : public StackBackend {
 public:
  FullStack(sim::Engine& engine, std::string name,
            const sim::CostModel& costs, sim::SerialResource* softirq);
  ~FullStack() override;

  [[nodiscard]] StackKind kind() const override {
    return StackKind::kFullStack;
  }

  // ---- configuration ----------------------------------------------------
  [[nodiscard]] bool has_netfilter() const override { return true; }
  [[nodiscard]] Netfilter& netfilter() override { return nf_; }
  [[nodiscard]] const Netfilter& netfilter() const override { return nf_; }
  void set_forwarding(bool on) override { forwarding_ = on; }

  /// br_netfilter effect: a stack that bridges+NATs container traffic must
  /// linearize GSO super-frames so netfilter can inspect them; incoming TCP
  /// payloads larger than `bytes` are split into `bytes`-sized segments,
  /// each paying the full per-packet hook/bridge/veth costs.  Zero = off.
  /// This asymmetry (BrFusion/NoCont keep TSO end-to-end, the nested NAT
  /// path does not) is the mechanistic root of the paper's fig 2.
  void set_forced_resegment(std::uint32_t bytes) override {
    forced_resegment_ = bytes;
  }

  /// Multiplies forwarded-packet softirq cost by a lognormal factor
  /// (median 1) — service-time noise of a guest kernel that bridges + NATs
  /// under interrupt pressure.  The paper's fig 10 observes NAT/Overlay
  /// latencies that "vary greatly and in unexpected manners" while Hostlo
  /// (which forwards through no guest stack) stays flat.
  void set_forward_jitter(double sigma, std::uint64_t seed) override {
    forward_jitter_sigma_ = sigma;
    jitter_rng_ = sim::Rng(seed);
  }

  /// Enables the per-flow fast-path cache (src/net/flowcache): established
  /// flows skip the hook/route/ARP chain and pay one aggregated
  /// flowcache_hit charge instead.  Off by default — the calibrated
  /// slow-path figures (fig 2/4/10) are measured with the cache disabled.
  /// Disabling flushes the cache.
  void set_flowcache(bool on) override {
    flowcache_enabled_ = on;
    if (!on) fcache_.invalidate_all();
  }
  [[nodiscard]] bool has_flowcache() const override { return true; }
  [[nodiscard]] bool flowcache_enabled() const override {
    return flowcache_enabled_;
  }
  [[nodiscard]] flowcache::FlowCache& flow_cache() override {
    return fcache_;
  }
  [[nodiscard]] const flowcache::FlowCache& flow_cache() const override {
    return fcache_;
  }

  /// Conntrack garbage collection: reaps idle connections and drops the
  /// cached fast paths they backed (a cached entry must never outlive its
  /// conntrack backing).  Returns the number of reaped connections.
  std::size_t conntrack_gc(sim::Duration idle_timeout) override;

  /// NIC hot-unplug: StackBackend's detach, plus a flush of exactly the
  /// cached flows (flowcache and oncache) entering or leaving the ifindex.
  void detach_interface(int ifindex) override;

  /// GRO: in-order TCP segments of one flow arriving in a burst coalesce
  /// at the receiving netdev *before* protocol processing, so a 12-chunk
  /// MTU burst costs one hook traversal instead of twelve.  On by default;
  /// disabled automatically on stacks with forced resegmentation (the
  /// br_netfilter path re-linearizes anyway).
  void set_gro(bool on) override { gro_enabled_ = on; }

  void ping(Ipv4Address dst, std::uint32_t payload_bytes,
            std::function<void(sim::Duration rtt)> done) override;

  void set_icmp_error_handler(
      std::function<void(const Packet&)> handler) override {
    icmp_error_handler_ = std::move(handler);
  }

  [[nodiscard]] std::uint64_t icmp_errors_sent() const override {
    return icmp_errors_tx_;
  }

  // ---- datapath ---------------------------------------------------------
  /// L4 -> network: runs OUTPUT/POSTROUTING, routes and transmits.
  void emit_packet(Packet&& p) override;

 private:
  /// GRO-eligible TCP goes to gro_rx, everything else to ip_rx.
  void l3_rx(int ifindex, Packet&& p) override;
  void gro_rx(int ifindex, Packet&& p);
  void gro_flush(const ConnKey& key);
  void ip_rx(int ifindex, Packet&& p);
  void ip_rx_one(int ifindex, Packet&& p);
  void deliver_local(Packet&& p, int ifindex);
  /// Post-routing egress: POSTROUTING hook, ARP resolve, hand to backend.
  /// `record` carries the ingress-time flow key of a cacheable forwarded
  /// packet through the async chain so the resolved path can be memoized.
  /// `in_ifindex` is a forwarded packet's ingress interface, or -1 for
  /// locally generated traffic (POSTROUTING then sees no input device).
  void egress(Packet&& p, int out_ifindex, int in_ifindex,
              std::optional<flowcache::FlowKey> record = std::nullopt);
  /// ip_fragment for oversized UDP, then the shared neighbour resolution.
  /// `record` memoizes the path when the next hop resolves at once.
  void arp_resolve_and_send(Packet&& p, int out_ifindex) override {
    arp_resolve_and_send(std::move(p), out_ifindex, std::nullopt);
  }
  void arp_resolve_and_send(Packet&& p, int out_ifindex,
                            std::optional<flowcache::FlowKey> record);
  /// Serves one packet from a cached path; returns false on a miss or a
  /// stale entry (caller falls through to the slow path).
  bool flowcache_rx(int ifindex, Packet& p);
  /// Oncache ingress fast path: a VXLAN datagram for this stack's VTEP
  /// whose inner flow is cached skips PREROUTING/INPUT, the UDP demux and
  /// the decap/bridge events; returns false on a miss (slow path).
  bool oncache_rx(int ifindex, Packet& p);
  void record_flow(const flowcache::FlowKey& key, const Packet& p,
                   flowcache::CachedPath::Action action, int out_ifindex,
                   MacAddress next_hop_mac);

  void deliver_icmp(const Packet& p);
  /// Emits an ICMP error (type/code) about `offender` back to its source,
  /// from local address `src`.
  void send_icmp_error(const Packet& offender, std::uint8_t type,
                       std::uint8_t code, Ipv4Address src);
  /// Unbound UDP port: answer with ICMP port-unreachable.
  void udp_unbound(const Packet& p) override;

  void reassemble_rx(int ifindex, Packet&& p);

  Netfilter nf_;
  flowcache::FlowCache fcache_;
  bool flowcache_enabled_ = false;
  bool forwarding_ = false;
  std::uint32_t forced_resegment_ = 0;
  bool gro_enabled_ = true;
  double forward_jitter_sigma_ = 0.0;
  sim::Rng jitter_rng_{0};

  struct GroFlow {
    Packet merged;
    int ifindex = 0;
    int count = 0;
    sim::EventId flush_timer = 0;
  };
  std::unordered_map<ConnKey, GroFlow, ConnKeyHash> gro_flows_;

  /// IPv4 reassembly (nf_defrag runs before conntrack, so fragments are
  /// merged at stack entry, like GRO).
  struct ReassemblyKey {
    Ipv4Address src;
    Ipv4Address dst;
    std::uint16_t ip_id = 0;
    friend bool operator==(const ReassemblyKey&,
                           const ReassemblyKey&) = default;
  };
  struct ReassemblyKeyHash {
    std::size_t operator()(const ReassemblyKey& k) const noexcept {
      return (static_cast<std::size_t>(k.src.value()) * 31 +
              k.dst.value()) *
                 31 +
             k.ip_id;
    }
  };
  struct ReassemblyState {
    Packet first;            ///< fragment at offset 0 (carries L4 header)
    std::uint32_t received = 0;
    std::uint32_t total = 0;  ///< known once the MF=0 fragment arrives
    int ifindex = 0;
    sim::EventId timeout = 0;
  };
  std::unordered_map<ReassemblyKey, ReassemblyState, ReassemblyKeyHash>
      reassembly_;

  struct PendingPing {
    sim::TimePoint sent_at = 0;
    std::function<void(sim::Duration)> done;
  };
  std::map<std::uint16_t, PendingPing> pings_;  ///< by icmp_seq
  std::uint16_t next_ping_seq_ = 1;
  std::function<void(const Packet&)> icmp_error_handler_;
  std::uint64_t icmp_errors_tx_ = 0;
};

/// Pre-seam name for the default backend; every consumer that does not care
/// about the seam keeps compiling (and behaving) unchanged.
using NetworkStack = FullStack;

}  // namespace nestv::net

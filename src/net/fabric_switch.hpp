// Cut-through fabric switch for the hierarchical (ToR -> spine) fabric.
//
// Unlike net::Bridge — a learning host bridge with flooding and FDB aging —
// a FabricSwitch forwards by *static* MAC bindings installed at topology
// build time (vmm::HierarchicalFabric registers every machine's external
// NIC).  Datacenter fabrics run this way in practice (EVPN / SDN-programmed
// tables); for the simulation it has two decisive properties:
//
//  * no flooding: an unknown unicast is a topology bug, counted and
//    dropped, never duplicated to N ports.  At hundreds of machines a
//    single flood would be O(machines) frames.
//  * deterministic multi-path: a ToR reaches every remote rack through any
//    spine.  The uplink is chosen by a pure hash of the flow identity
//    carried in the frame (the 5-tuple for IPv4, the ARP addresses for
//    ARP) — never by queue occupancy, arrival order, or anything else that
//    differs between execution modes.  Like the keyed wire delivery order
//    (DESIGN.md section 12), the decision is a function of the *frame*, so
//    shards=1 and shards=N runs pick identical paths and stay bit-equal.
//
// ARP is answered at the ToR from a fabric-wide directory (proxy ARP /
// EVPN-style suppression): requests never cross the fabric, replies are
// generated at the edge.  The directory is written only during topology
// build, before the conductor starts, so concurrent shard workers may read
// it freely.
//
// Capacity: each egress port keeps a busy horizon advanced by the frame's
// serialization time (costs.fabric_link_byte); frames into a busy link
// queue behind it.  This is the per-link capacity constraint of the fabric
// model — latency from the wire, bandwidth from the horizon.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/device.hpp"

namespace nestv::net {

/// Fabric-wide host registry: external IP -> NIC MAC of the owning
/// machine.  Populated during topology build (read-only afterwards);
/// shared by every switch of one fabric for proxy-ARP.
struct FabricDirectory {
  std::unordered_map<std::uint32_t, MacAddress> mac_of_ip;

  [[nodiscard]] const MacAddress* find(Ipv4Address ip) const {
    const auto it = mac_of_ip.find(ip.value());
    return it == mac_of_ip.end() ? nullptr : &it->second;
  }
};

class FabricSwitch : public Device {
 public:
  /// `ecmp_salt` perturbs the uplink hash per switch so one elephant flow
  /// does not pick the same spine ordinal at every tier.
  FabricSwitch(sim::Engine& engine, std::string name,
               const sim::CostModel& costs, const FabricDirectory& directory,
               std::uint32_t ecmp_salt);

  /// Installs a static binding: frames for `mac` leave through `port`.
  void bind_mac(MacAddress mac, int port);
  /// Marks `port` as a member of the ECMP uplink group (ToR only; frames
  /// for unbound MACs hash across the group).
  void add_uplink(int port);

  void ingress(EthernetFrame&& frame, int port) override;

  /// Deterministic uplink ordinal for a frame (exposed for tests: the
  /// choice must be reproducible from the frame alone).
  [[nodiscard]] std::size_t ecmp_pick(const EthernetFrame& frame) const;

  // ---- counters (deterministic; used by tests and bench reports) --------
  /// Frames transmitted per uplink-group member, by group ordinal.
  [[nodiscard]] const std::vector<std::uint64_t>& uplink_tx() const {
    return uplink_tx_;
  }
  [[nodiscard]] std::uint64_t arp_proxied() const { return arp_proxied_; }
  [[nodiscard]] std::uint64_t arp_unanswered() const {
    return arp_unanswered_;
  }
  [[nodiscard]] std::uint64_t unknown_unicast_dropped() const {
    return unknown_dropped_;
  }

 private:
  void forward(EthernetFrame&& frame, int ingress_port);
  /// Serializes onto the port's link: delays by the busy horizon plus the
  /// frame's wire time, then transmits.
  void egress(int port, EthernetFrame&& frame);

  const FabricDirectory* directory_;
  std::uint32_t salt_;
  std::unordered_map<MacAddress, int> mac_port_;
  std::vector<int> uplinks_;
  std::vector<std::uint64_t> uplink_tx_;
  /// Per-port link-busy horizon (absolute sim time the link frees up).
  std::vector<sim::TimePoint> port_free_;
  std::uint64_t arp_proxied_ = 0;
  std::uint64_t arp_unanswered_ = 0;
  std::uint64_t unknown_dropped_ = 0;
};

}  // namespace nestv::net

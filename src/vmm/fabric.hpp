// Inter-host fabric: racks of machines under ToR switches, ToRs meshed
// through a spine tier.
//
// The paper's evaluation is single-host (Hostlo is by construction an
// *intra-host* device: its queues are host-kernel objects), but its
// derivative-cloud framing is a datacenter of many hosts.
// HierarchicalFabric builds the two-tier Clos topology real datacenters
// use:
//
//     machine --(fabric_hop_latency)--> ToR --(spine_link_latency)--> spine
//
// Each rack's ToR lives on the shard of the rack's first machine, so
// intra-rack traffic never crosses shards; under a conductor the spines
// round-robin across its shards (without one they live on the engine given
// to the constructor).  Cross-rack frames take
// machine -> ToR -> spine -> ToR -> machine, with the spine chosen per
// flow by the ToR's deterministic ECMP hash (net/fabric_switch.hpp) —
// multi-path routing that resolves identically at any shard/worker count.
// A single rack under one spine is the small-world case: every frame
// turns around at the one ToR.
//
// The conductor lookahead for a fabric built here must be
// min_link_latency(costs): no cross-machine influence can propagate
// faster than the shortest fabric link.
//
// L3 is the derivative-cloud plan: every machine gets an external NIC
// ("ext0") addressed from the fabric's 10.10/16, and each remote machine's VM
// subnet is routed via that machine's external address (one
// net::PeerRouteSet per fabric, read by every member's routing table).
// Cross-host pod traffic must then use an overlay (as Docker does) — while
// Hostlo cannot span hosts, which is exactly the scoping the paper gives
// it.  ARP for those gateway addresses is answered at the ToR from a
// fabric-wide directory (proxy ARP); requests never flood the fabric.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/fabric_switch.hpp"
#include "net/route.hpp"
#include "sim/sharded_conductor.hpp"
#include "vmm/machine.hpp"

namespace nestv::vmm {

struct FabricConfig {
  int machines_per_rack = 16;
  int spines = 2;
};

class HierarchicalFabric {
 public:
  /// `engine` hosts the spine tier when there is no conductor.  With a
  /// `conductor`, spines round-robin across its shards and machines may
  /// live on any shard (each rack's ToR joins its first machine's shard);
  /// without one every device must share `engine`.
  HierarchicalFabric(sim::Engine& engine, const sim::CostModel& costs,
                     FabricConfig config = {},
                     sim::ShardedConductor* conductor = nullptr);

  /// Connects `machine`: racks fill in attach order (machines_per_rack per
  /// ToR, ToRs created on demand).  Creates the machine's "ext0", binds
  /// its MAC at its ToR and every spine, registers it for proxy ARP, and
  /// joins the fabric's peer-route set (every member's VM subnet routes
  /// via that member's ext0 address).  Distinct VM subnets are
  /// required (duplicates throw std::invalid_argument).
  void attach(PhysicalMachine& machine);

  [[nodiscard]] std::size_t machine_count() const { return members_.size(); }
  [[nodiscard]] std::size_t rack_count() const { return tors_.size(); }
  [[nodiscard]] int rack_of(std::size_t machine_ordinal) const {
    return static_cast<int>(machine_ordinal) / config_.machines_per_rack;
  }
  [[nodiscard]] net::FabricSwitch& tor(std::size_t r) { return *tors_[r]; }
  [[nodiscard]] net::FabricSwitch& spine(std::size_t s) {
    return *spines_[s];
  }
  [[nodiscard]] std::size_t spine_count() const { return spines_.size(); }
  [[nodiscard]] const net::FabricDirectory& directory() const {
    return directory_;
  }

  /// Shortest link latency of a fabric built from `costs` — the conductor
  /// lookahead bound for hierarchical topologies.
  [[nodiscard]] static sim::Duration min_link_latency(
      const sim::CostModel& costs) {
    return costs.fabric_hop_latency < costs.spine_link_latency
               ? costs.fabric_hop_latency
               : costs.spine_link_latency;
  }

 private:
  struct Member {
    PhysicalMachine* machine = nullptr;
    std::unique_ptr<net::PortBackend> port;
  };

  /// Creates the ToR for rack `r` on `engine` and meshes it to each spine.
  void make_tor(int r, sim::Engine& engine);

  sim::Engine* engine_;
  const sim::CostModel* costs_;
  sim::ShardedConductor* conductor_;
  FabricConfig config_;
  net::FabricDirectory directory_;
  std::vector<std::unique_ptr<net::FabricSwitch>> spines_;
  std::vector<std::unique_ptr<net::FabricSwitch>> tors_;
  /// spine_port_[r][s]: the spine-side port of the rack-r <-> spine-s link
  /// (where machine MACs of rack r are bound on spine s).
  std::vector<std::vector<int>> spine_port_;
  std::vector<Member> members_;
  /// Member VM subnet -> member ext0 address, consulted by every member's
  /// routing table (net::PeerRouteSet).
  net::PeerRouteSet peers_;
  std::uint32_t next_ip_ = 1;
};

}  // namespace nestv::vmm

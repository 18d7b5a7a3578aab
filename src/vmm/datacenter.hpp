// Multi-host wiring: the physical top-of-rack switch.
//
// The paper's evaluation is single-host (Hostlo is by construction an
// *intra-host* device: its queues are host-kernel objects), but its
// derivative-cloud framing is a datacenter of many hosts.  This module
// provides the inter-host fabric: each PhysicalMachine exposes an external
// NIC on a shared L2 segment; host kernels route between their VM subnets.
// Cross-host pod traffic must then use an overlay (as Docker does) — while
// Hostlo cannot span hosts, which is exactly the scoping the paper gives it
// ("MemPipe ... for local VMs with SR-IOV ... for guests on different
// hosts" is the related work's contrast).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/bridge.hpp"
#include "net/route.hpp"
#include "sim/sharded_conductor.hpp"
#include "vmm/machine.hpp"

namespace nestv::vmm {

class PhysicalSwitch {
 public:
  /// `engine` hosts the switch itself (under a conductor: the shard whose
  /// engine this is — conventionally shard 0 — runs the ToR forwarding).
  /// With a `conductor`, attached machines may live on any of its shards;
  /// their uplinks become cross-shard fabric wires.  Without one, every
  /// machine must share `engine`.
  PhysicalSwitch(sim::Engine& engine, const sim::CostModel& costs,
                 net::Ipv4Cidr fabric_subnet = net::Ipv4Cidr(
                     net::Ipv4Address(10, 10, 0, 0), 24),
                 sim::ShardedConductor* conductor = nullptr);

  /// Connects `machine` to the fabric: creates its external interface
  /// ("ext0", addressed from the fabric subnet) and joins the fabric's
  /// peer-route set, so every other attached machine reaches this
  /// machine's VM subnet and vice versa.  Machines must use distinct
  /// bridge subnets; a duplicate throws std::invalid_argument (two racks
  /// announcing the same prefix is a config error, not a programming
  /// invariant, so it must hold in Release builds too).
  void attach(PhysicalMachine& machine);

  [[nodiscard]] std::size_t machine_count() const {
    return members_.size();
  }
  [[nodiscard]] net::Bridge& fabric() { return *fabric_; }

 private:
  struct Member {
    PhysicalMachine* machine = nullptr;
    std::unique_ptr<net::PortBackend> port;
  };

  sim::Engine* engine_;
  const sim::CostModel* costs_;
  sim::ShardedConductor* conductor_;
  net::Ipv4Cidr subnet_;
  std::unique_ptr<net::Bridge> fabric_;
  std::vector<Member> members_;
  /// Member VM subnet -> member ext0 address, consulted by every member's
  /// routing table (net::PeerRouteSet).
  net::PeerRouteSet peers_;
  std::uint32_t next_ip_ = 1;
};

}  // namespace nestv::vmm

#include "vmm/fabric.hpp"

#include <stdexcept>
#include <string>

namespace nestv::vmm {

HierarchicalFabric::HierarchicalFabric(sim::Engine& engine,
                                       const sim::CostModel& costs,
                                       FabricConfig config,
                                       sim::ShardedConductor* conductor)
    : engine_(&engine),
      costs_(&costs),
      conductor_(conductor),
      config_(config) {
  if (config_.machines_per_rack < 1 || config_.spines < 1) {
    throw std::invalid_argument(
        "HierarchicalFabric: need machines_per_rack >= 1 and spines >= 1");
  }
  for (int s = 0; s < config_.spines; ++s) {
    // Round-robin the spine tier across shards: with every spine on one
    // engine, all cross-rack traffic serializes through that shard (and
    // its neighbours' windows collapse to one spine-link hop).  Keyed
    // wire delivery makes the placement invisible in the results.
    sim::Engine& home = conductor != nullptr
                            ? conductor->shard(s % conductor->shards())
                            : engine;
    // Spine salt offset keeps the (unused today) spine hash domain
    // disjoint from ToR salts should spines ever gain uplink groups.
    spines_.push_back(std::make_unique<net::FabricSwitch>(
        home, "fabric/spine" + std::to_string(s), costs, directory_,
        /*ecmp_salt=*/0x5350u + static_cast<std::uint32_t>(s)));
  }
}

void HierarchicalFabric::make_tor(int r, sim::Engine& engine) {
  auto tor = std::make_unique<net::FabricSwitch>(
      engine, "fabric/tor" + std::to_string(r), *costs_, directory_,
      /*ecmp_salt=*/static_cast<std::uint32_t>(r));
  std::vector<int> ports;
  for (auto& spine : spines_) {
    const int tp = tor->add_port();
    const int sp = spine->add_port();
    net::Device::connect_wire(conductor_, *tor, tp, *spine, sp,
                              costs_->spine_link_latency);
    tor->add_uplink(tp);
    ports.push_back(sp);
  }
  tors_.push_back(std::move(tor));
  spine_port_.push_back(std::move(ports));
}

void HierarchicalFabric::attach(PhysicalMachine& machine) {
  for (const Member& m : members_) {
    if (m.machine->config().bridge_subnet.network() ==
        machine.config().bridge_subnet.network()) {
      throw std::invalid_argument(
          "HierarchicalFabric::attach: machine '" + machine.config().name +
          "' reuses the VM subnet of '" + m.machine->config().name +
          "'; machines on one fabric need distinct VM subnets");
    }
  }
  if (conductor_ == nullptr && &machine.engine() != engine_) {
    throw std::invalid_argument(
        "HierarchicalFabric::attach: machine '" + machine.config().name +
        "' lives on a different engine; wiring across engines needs a "
        "ShardedConductor");
  }

  const int rack = rack_of(members_.size());
  if (static_cast<std::size_t>(rack) == tors_.size()) {
    // The ToR joins the shard of its rack's first machine: intra-rack
    // forwarding stays shard-local; only uplinks cross shards.
    make_tor(rack, machine.engine());
  }
  net::FabricSwitch& tor = *tors_[static_cast<std::size_t>(rack)];

  Member member;
  member.machine = &machine;
  member.port = std::make_unique<net::PortBackend>(
      machine.engine(), machine.config().name + "/ext0-port", *costs_);
  const int tor_port = tor.add_port();
  net::Device::connect_wire(conductor_, *member.port, 0, tor, tor_port,
                            costs_->fabric_hop_latency);

  // External-address pool; /16 leaves room for thousands of machines.
  const net::Ipv4Cidr ext_subnet(net::Ipv4Address(10, 10, 0, 0), 16);
  net::InterfaceConfig cfg;
  cfg.name = "ext0";
  cfg.mac = machine.allocate_mac();
  cfg.ip = ext_subnet.host(next_ip_++);
  cfg.subnet = ext_subnet;
  cfg.gso_bytes = costs_->gso_virtio;  // physical NICs have TSO
  const int ext_if = machine.stack().add_interface(*member.port, cfg);

  // Static forwarding state: the machine's MAC at its ToR (downlink) and
  // at every spine (toward this rack), plus the proxy-ARP directory entry.
  tor.bind_mac(cfg.mac, tor_port);
  for (std::size_t s = 0; s < spines_.size(); ++s) {
    spines_[s]->bind_mac(cfg.mac,
                         spine_port_[static_cast<std::size_t>(rack)][s]);
  }
  directory_.mac_of_ip[cfg.ip.value()] = cfg.mac;

  // Mesh routes: every member reaches every other member's VM subnet
  // through the owner's external address.  The fabric holds them once;
  // each member's table reads the shared set.
  const std::uint32_t self =
      peers_.add(machine.config().bridge_subnet, cfg.ip);
  machine.stack().routes().use_peers(peers_, self, ext_if);
  members_.push_back(std::move(member));
}

}  // namespace nestv::vmm

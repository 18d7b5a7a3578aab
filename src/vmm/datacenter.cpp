#include "vmm/datacenter.hpp"

#include <stdexcept>

namespace nestv::vmm {

PhysicalSwitch::PhysicalSwitch(sim::Engine& engine,
                               const sim::CostModel& costs,
                               net::Ipv4Cidr fabric_subnet,
                               sim::ShardedConductor* conductor)
    : engine_(&engine),
      costs_(&costs),
      conductor_(conductor),
      subnet_(fabric_subnet) {
  fabric_ = std::make_unique<net::Bridge>(engine, "fabric/tor0", costs,
                                          /*guest_level=*/false);
}

void PhysicalSwitch::attach(PhysicalMachine& machine) {
  for (const Member& m : members_) {
    if (m.machine->config().bridge_subnet.network() ==
        machine.config().bridge_subnet.network()) {
      throw std::invalid_argument(
          "PhysicalSwitch::attach: machine '" + machine.config().name +
          "' reuses the VM subnet of '" + m.machine->config().name +
          "'; machines on one fabric need distinct VM subnets");
    }
  }
  if (conductor_ == nullptr && &machine.engine() != engine_) {
    throw std::invalid_argument(
        "PhysicalSwitch::attach: machine '" + machine.config().name +
        "' lives on a different engine; wiring across engines needs a "
        "ShardedConductor");
  }

  Member member;
  member.machine = &machine;
  // The NIC-side half of the uplink runs on the machine's own engine (=
  // shard); only the wire to the ToR may cross shards.
  member.port = std::make_unique<net::PortBackend>(
      machine.engine(), machine.config().name + "/ext0-port", *costs_);
  net::Device::connect_wire(conductor_, *member.port, 0, *fabric_,
                            fabric_->add_port(),
                            costs_->fabric_hop_latency);

  net::InterfaceConfig cfg;
  cfg.name = "ext0";
  cfg.mac = machine.allocate_mac();
  cfg.ip = subnet_.host(next_ip_++);
  cfg.subnet = subnet_;
  cfg.gso_bytes = costs_->gso_virtio;  // physical NICs have TSO
  const int ext_if = machine.stack().add_interface(*member.port, cfg);

  // Mesh routes: every member reaches every other member's VM subnet
  // through the owner's external address.  The fabric holds them once;
  // each member's table reads the shared set.
  const std::uint32_t self =
      peers_.add(machine.config().bridge_subnet, cfg.ip);
  machine.stack().routes().use_peers(peers_, self, ext_if);
  members_.push_back(std::move(member));
}

}  // namespace nestv::vmm

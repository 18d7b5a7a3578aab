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
  member.ext_ip = subnet_.host(next_ip_++);
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
  cfg.ip = member.ext_ip;
  cfg.subnet = subnet_;
  cfg.gso_bytes = costs_->gso_virtio;  // physical NICs have TSO
  const int ext_if = machine.stack().add_interface(*member.port, cfg);
  member.ext_ifindex = ext_if;

  // Full-mesh routes: everyone reaches everyone's VM subnet through the
  // owner's external address.
  for (Member& other : members_) {
    machine.stack().routes().add(net::Route{
        other.machine->config().bridge_subnet, ext_if, other.ext_ip, 0});
    other.machine->stack().routes().add(net::Route{
        machine.config().bridge_subnet, other.ext_ifindex, member.ext_ip,
        0});
  }
  members_.push_back(std::move(member));
}

}  // namespace nestv::vmm

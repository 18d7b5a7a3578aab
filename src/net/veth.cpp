#include "net/veth.hpp"

#include <cassert>
#include <utility>

namespace nestv::net {

VethEnd::VethEnd(sim::Engine& engine, std::string name,
                 const sim::CostModel& costs)
    : Device(engine, std::move(name), costs) {
  add_port();  // port 0: graph attachment (unused when stack-attached)
}

void VethEnd::cross(EthernetFrame&& frame) {
  assert(twin_ != nullptr && "veth end used before pairing");
  const sim::Duration work =
      costs().veth_pkt +
      static_cast<sim::Duration>(costs().veth_copy_byte *
                                 static_cast<double>(frame.wire_bytes()));
  VethEnd* twin = twin_;
  process(work, [twin, f = std::move(frame)]() mutable {
    twin->emerge(std::move(f));
  });
}

void VethEnd::emerge(EthernetFrame&& frame) {
  if (rx_) {
    rx_(std::move(frame));
  } else {
    transmit(0, std::move(frame));
  }
}

void VethEnd::ingress(EthernetFrame&& frame, int port) {
  assert(port == 0);
  (void)port;
  cross(std::move(frame));
}

void VethEnd::xmit(EthernetFrame&& frame) { cross(std::move(frame)); }

VethPair::VethPair(sim::Engine& engine, const std::string& name,
                   const sim::CostModel& costs)
    : a_(std::make_unique<VethEnd>(engine, name + ".a", costs)),
      b_(std::make_unique<VethEnd>(engine, name + ".b", costs)) {
  a_->twin_ = b_.get();
  b_->twin_ = a_.get();
}

}  // namespace nestv::net

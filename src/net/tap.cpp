#include "net/tap.hpp"

#include <cassert>
#include <utility>

namespace nestv::net {

TapDevice::TapDevice(sim::Engine& engine, std::string name,
                     const sim::CostModel& costs)
    : Device(engine, std::move(name), costs) {
  add_port();  // port 0: network-side attachment (bridge port, usually)
}

sim::Duration TapDevice::frame_work(const EthernetFrame& f) const {
  return costs().tap_pkt +
         static_cast<sim::Duration>(costs().tap_copy_byte *
                                    static_cast<double>(f.wire_bytes()));
}

void TapDevice::ingress(EthernetFrame&& frame, int port) {
  assert(port == 0);
  (void)port;
  if (!fd_handler_) {
    count_drop();
    return;
  }
  process(frame_work(frame), [this, f = std::move(frame)]() mutable {
    ++to_fd_;
    fd_handler_(std::move(f));
  });
}

void TapDevice::inject(EthernetFrame&& frame) {
  process(frame_work(frame), [this, f = std::move(frame)]() mutable {
    ++from_fd_;
    transmit(0, std::move(f));
  });
}

}  // namespace nestv::net

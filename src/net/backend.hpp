// Interface backends: the "netdev driver" boundary between a NetworkStack
// and the L2 world.
#pragma once

#include <functional>
#include <string>

#include "net/device.hpp"
#include "net/packet.hpp"

namespace nestv::net {

/// A network stack transmits through this; deliveries come back through the
/// callback installed with set_rx.
class InterfaceBackend {
 public:
  virtual ~InterfaceBackend() = default;

  using RxHandler = std::function<void(EthernetFrame&&)>;

  virtual void xmit(EthernetFrame&& frame) = 0;
  virtual void set_rx(RxHandler handler) = 0;
};

/// A plain device-graph attachment (host NIC, veth container end, ...).
/// Port 0 connects to the peer (bridge port, veth end, ...).
class PortBackend : public InterfaceBackend, public Device {
 public:
  PortBackend(sim::Engine& engine, std::string name,
              const sim::CostModel& costs)
      : Device(engine, std::move(name), costs) {
    add_port();
  }

  void xmit(EthernetFrame&& frame) override { transmit(0, std::move(frame)); }
  void set_rx(RxHandler handler) override { rx_ = std::move(handler); }
  void ingress(EthernetFrame&& frame, int port) override {
    (void)port;
    if (rx_) rx_(std::move(frame));
  }

 private:
  RxHandler rx_;
};

}  // namespace nestv::net

// Interface backends: the "netdev driver" boundary between a NetworkStack
// and the L2 world.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/device.hpp"
#include "net/packet.hpp"

namespace nestv::net {

/// A network stack transmits through this; deliveries come back through the
/// callback installed with set_rx.
class InterfaceBackend {
 public:
  virtual ~InterfaceBackend() = default;

  using RxHandler = std::function<void(EthernetFrame&&)>;
  using RxTrainHandler = std::function<void(std::vector<EthernetFrame>)>;

  virtual void xmit(EthernetFrame&& frame) = 0;
  virtual void set_rx(RxHandler handler) = 0;
  /// Burst-capable backends (virtio NAPI polling) deliver a whole poll
  /// cycle's frames through this when installed, so the stack's GRO sees
  /// real bursts.  Backends that never batch ignore it and keep using the
  /// per-frame handler.
  virtual void set_rx_train(RxTrainHandler handler) { (void)handler; }
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
  void set_rx_train(RxTrainHandler handler) override {
    rx_train_ = std::move(handler);
  }
  void ingress(EthernetFrame&& frame, int port) override {
    (void)port;
    if (rx_) rx_(std::move(frame));
  }

  // A coalesced hop delivers a whole same-timestamp burst back-to-back
  // within one event.  Collect it and hand the stack the full train in one
  // delivery at the end marker — still inside the hop event, no extra
  // scheduling — so its per-frame softirq charges pool and GRO sees the
  // burst.
  void ingress_burst(EthernetFrame&& frame, int port) override {
    if (rx_train_ && costs().batch_size > 1) {
      rx_buf_.push_back(std::move(frame));
    } else {
      ingress(std::move(frame), port);
    }
  }

  void ingress_burst_end(int port) override {
    (void)port;
    if (rx_buf_.empty()) return;
    auto fs = std::move(rx_buf_);
    rx_buf_.clear();
    rx_buf_.reserve(fs.size());
    if (fs.size() == 1 && rx_) {
      rx_(std::move(fs.front()));
    } else {
      rx_train_(std::move(fs));
    }
  }

 private:
  RxHandler rx_;
  RxTrainHandler rx_train_;
  std::vector<EthernetFrame> rx_buf_;
};

}  // namespace nestv::net

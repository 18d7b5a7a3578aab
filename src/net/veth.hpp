// veth pair: the namespace-crossing virtual cable Docker uses to connect a
// container's eth0 to the node bridge (fig 1a, pod boundary crossing).
//
// Either end can be (a) wired into the device graph (e.g. a bridge port)
// through its port 0, or (b) moved into a network namespace by using it as
// that stack's InterfaceBackend — mirroring `ip link set veth1 netns <pod>`.
#pragma once

#include <memory>
#include <string>

#include "net/backend.hpp"
#include "net/device.hpp"

namespace nestv::net {

class VethPair;

class VethEnd : public Device, public InterfaceBackend {
 public:
  VethEnd(sim::Engine& engine, std::string name, const sim::CostModel& costs);

  // Graph side: frame arrives from the connected peer (bridge, ...).
  void ingress(EthernetFrame&& frame, int port) override;

  // Stack side (InterfaceBackend).
  void xmit(EthernetFrame&& frame) override;
  void set_rx(RxHandler handler) override { rx_ = std::move(handler); }

 private:
  friend class VethPair;

  /// Crossing cost charged on this (sending) end, then the twin emits.
  void cross(EthernetFrame&& frame);
  /// Frame emerges from this end: to the stack if attached, else port 0.
  void emerge(EthernetFrame&& frame);

  VethEnd* twin_ = nullptr;
  RxHandler rx_;
};

/// Owns both ends.  Construct, then attach `a()` and `b()` wherever needed.
class VethPair {
 public:
  VethPair(sim::Engine& engine, const std::string& name,
           const sim::CostModel& costs);

  [[nodiscard]] VethEnd& a() { return *a_; }
  [[nodiscard]] VethEnd& b() { return *b_; }

  /// Binds both ends' crossing work to one CPU (the guest softirq core).
  void set_cpu(sim::SerialResource* cpu, sim::CpuCategory category) {
    a_->set_cpu(cpu, category);
    b_->set_cpu(cpu, category);
  }

 private:
  std::unique_ptr<VethEnd> a_;
  std::unique_ptr<VethEnd> b_;
};

}  // namespace nestv::net

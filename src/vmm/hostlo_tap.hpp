// Hostlo: the paper's core Section 4 contribution — a modified TAP device
// in the *host* kernel that acts as a loopback interface multiplexed
// between several VMs:
//
//   "- it provides at least one RX/TX queue for each VM that is served;
//    - it sends back any received Ethernet frame to all of its queues."
//
// Each queue backs one endpoint VirtioNic hot-plugged into a participating
// VM; the pod fragment in that VM uses the endpoint as its localhost
// interface.  Reflection work runs on a host-kernel resource ("as it is
// implemented a kernel module of the host, this added load may be seen in
// the sys CPU usage category", section 5.3.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace nestv::vmm {

class VirtioNic;

class HostloTap {
 public:
  HostloTap(sim::Engine& engine, std::string name,
            const sim::CostModel& costs, sim::SerialResource* host_kernel);

  /// Adds an RX/TX queue pair served by `endpoint`; returns queue index.
  int add_queue(VirtioNic& endpoint);

  /// A frame written into queue `from_queue` by its VM.  Reflected, at the
  /// Ethernet level, to *all* queues (including the writer's own — the
  /// guest stack's MAC filter discards the self-copy, at a small cost that
  /// is part of the design's measured overhead).
  void rx_from_queue(int from_queue, net::EthernetFrame&& frame);

  [[nodiscard]] int queue_count() const {
    return static_cast<int>(queues_.size());
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t frames_reflected() const { return reflected_; }
  /// Total endpoint deliveries (frames_reflected * queue_count, minus any
  /// queues added mid-flight).
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }

 private:
  sim::Engine* engine_;
  std::string name_;
  const sim::CostModel* costs_;
  sim::SerialResource* host_kernel_;
  std::vector<VirtioNic*> queues_;
  std::uint64_t reflected_ = 0;
  std::uint64_t deliveries_ = 0;
};

}  // namespace nestv::vmm

// Base class for every L2 element of the simulated datapath.
//
// Devices are nodes in a graph connected port-to-port.  A frame handed to
// `transmit` appears at the peer's `ingress` after the hop latency.  Each
// device may be bound to a SerialResource (a CPU core or kernel worker);
// its per-frame work then executes there, which is what creates queueing,
// saturation and the CPU accounting the paper reports.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/cost_model.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace nestv::sim {
class ShardedConductor;
}  // namespace nestv::sim

namespace nestv::net {

class Device {
 public:
  Device(sim::Engine& engine, std::string name, const sim::CostModel& costs);
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Adds a port; returns its index.
  int add_port();
  [[nodiscard]] int port_count() const {
    return static_cast<int>(ports_.size());
  }

  /// Wires port `pa` of `a` to port `pb` of `b`, bidirectionally.
  static void connect(Device& a, int pa, Device& b, int pb);

  /// Wires a fabric link: a physical wire with its own fixed latency
  /// instead of the cost model's hop latency.  When `conductor` is non-null
  /// and the two devices live on different shards, frames become mailbox
  /// posts; the delivery timing is identical either way, which is what
  /// keeps shards=1 and shards=N bit-equal.  `wire_latency` must be at
  /// least the conductor's lookahead for a cross-shard link.
  static void connect_wire(sim::ShardedConductor* conductor, Device& a,
                           int pa, Device& b, int pb,
                           sim::Duration wire_latency);

  /// Frame arrives on `port` (after hop latency and any peer processing).
  virtual void ingress(EthernetFrame&& frame, int port) = 0;

  /// Binds per-frame work to a serialized CPU; `category` is the CPU time
  /// bucket charged (e.g. kSoft for bridge/netfilter work in softirq).
  void set_cpu(sim::SerialResource* cpu, sim::CpuCategory category) {
    cpu_ = cpu;
    cpu_category_ = category;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::uint64_t frames_forwarded() const { return forwarded_; }
  [[nodiscard]] std::uint64_t frames_dropped() const { return dropped_; }

  /// Maximum queueing delay tolerated on the bound CPU before this device
  /// tail-drops (models a qdisc/ring limit).  Zero disables dropping.
  void set_max_backlog(sim::Duration d) { max_backlog_ = d; }

 protected:
  /// Executes `work` ns on the bound CPU (FIFO behind earlier work), then
  /// runs `then`.  Without a bound CPU the work is charged nowhere and
  /// `then` runs after `work` ns of pure delay.  Returns false if the
  /// frame had to be dropped due to backlog.
  bool process(sim::Duration work, sim::InlineTask&& then);

  /// Sends `frame` out of `port`; it reaches the peer after hop latency.
  void transmit(int port, EthernetFrame&& frame);

  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] const sim::CostModel& costs() const { return *costs_; }
  void count_drop() { ++dropped_; }

 private:
  struct PortSlot {
    Device* peer = nullptr;
    int peer_port = -1;
    /// Fabric wire (connect_wire): fixed latency overriding hop_latency.
    /// 0 = ordinary intra-host link.
    sim::Duration wire_latency = 0;
    /// Cross-shard wire: frames are mailed through the conductor from
    /// self_shard to peer_shard instead of scheduled locally.
    sim::ShardedConductor* fabric = nullptr;
    int self_shard = 0;
    int peer_shard = 0;
    /// Delivery-order key base for this direction of the wire: frames
    /// fire at their arrival instant in ((wire_rank << 40) | wire_seq)
    /// order, the same key whether delivered locally or via mailbox, so
    /// same-nanosecond arrivals at a shared device order identically in
    /// every execution mode.
    std::uint64_t wire_rank = 0;
    std::uint64_t wire_seq = 0;
  };

  sim::Engine* engine_;
  std::string name_;
  const sim::CostModel* costs_;
  std::vector<PortSlot> ports_;
  sim::SerialResource* cpu_ = nullptr;
  sim::CpuCategory cpu_category_ = sim::CpuCategory::kSys;
  sim::Duration max_backlog_ = sim::milliseconds(5);
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace nestv::net

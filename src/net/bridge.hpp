// Learning Ethernet bridge (the Linux `br0` of fig 1).
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/device.hpp"

namespace nestv::net {

/// Forwarding database: MAC -> (port, last-seen), with aging.
class Fdb {
 public:
  explicit Fdb(sim::Duration ageing = sim::seconds(300)) : ageing_(ageing) {}

  void learn(MacAddress mac, int port, sim::TimePoint now);
  /// Returns the port for `mac`, or -1 when unknown/expired.
  [[nodiscard]] int lookup(MacAddress mac, sim::TimePoint now) const;
  [[nodiscard]] std::size_t size() const { return table_.size(); }

  /// Notified with each MAC that leaves the table (ageing sweep or full
  /// flush); flow caches holding that MAC as a next hop subscribe so
  /// an expired L2 entry flushes exactly the flows switched through it.
  void set_eviction_listener(std::function<void(MacAddress)> l) {
    on_evict_ = std::move(l);
  }

  /// Removes entries older than the ageing window, notifying the
  /// listener (the kernel's periodic br_fdb_cleanup).
  std::size_t expire(sim::TimePoint now);

  /// Removes every entry, notifying the listener for each MAC (the
  /// `bridge fdb flush` / STP-topology-change full flush).  Subsequent
  /// frames flood until the table relearns.
  std::size_t flush();

 private:
  struct Entry {
    int port;
    sim::TimePoint seen;
  };
  sim::Duration ageing_;
  std::unordered_map<MacAddress, Entry> table_;
  std::function<void(MacAddress)> on_evict_;
};

/// A learning switch.  Frames to unknown/broadcast destinations flood all
/// ports except the ingress one; known destinations are switched.
/// Per-frame work (FDB lookup + forward) runs on the bound CPU — in a VM
/// this is the guest softirq core, which is how the guest bridge
/// contributes to the nested path's "soft" CPU bill (fig 6/7).
class Bridge : public Device {
 public:
  Bridge(sim::Engine& engine, std::string name, const sim::CostModel& costs,
         bool guest_level = false);

  void ingress(EthernetFrame&& frame, int port) override;

  [[nodiscard]] const Fdb& fdb() const { return fdb_; }
  [[nodiscard]] Fdb& fdb() { return fdb_; }
  [[nodiscard]] std::uint64_t floods() const { return floods_; }

 protected:
  /// The switching decision + transmit, after ingress charged the per-frame
  /// bridge cost.  Virtual so the overlay CachedBridge (net/oncache.hpp)
  /// can observe decisions without interposing a device (an extra hop
  /// would change timing); overrides must delegate here.
  virtual void forward(EthernetFrame&& frame, int ingress_port);

 private:
  Fdb fdb_;
  bool guest_level_;
  std::uint64_t floods_ = 0;
};

}  // namespace nestv::net

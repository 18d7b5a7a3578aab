// VXLAN tunnel endpoint, the substrate of the Docker Overlay baseline
// (figs 10-15).  Frames entering from the overlay bridge are encapsulated
// into UDP datagrams addressed to the destination VTEP and sent through the
// owning guest stack; datagrams arriving on the VTEP port are decapsulated
// and the inner frame re-enters the overlay bridge.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/device.hpp"
#include "net/stack_backend.hpp"

namespace nestv::net {

namespace oncache {
class OnCache;
}  // namespace oncache

class VxlanDevice : public Device {
 public:
  static constexpr std::uint16_t kVtepPort = 4789;

  /// `stack` is the namespace owning the underlay interface (the guest
  /// kernel); `local_vtep` its underlay IP.  The device binds the VTEP UDP
  /// port on the stack.  Port 0 attaches to the overlay bridge.
  VxlanDevice(sim::Engine& engine, std::string name,
              const sim::CostModel& costs, StackBackend& stack,
              Ipv4Address local_vtep, std::uint32_t vni = 0);

  /// Static L2-to-VTEP table, as docker's overlay driver programs from its
  /// gossip/kv store.  Unknown destinations flood to all known VTEPs.
  /// Remapping an inner MAC to a new VTEP flushes its cached overlay fast
  /// paths (unless test_hooks::skip_oncache_vtep_invalidation).
  void add_remote(MacAddress inner_mac, Ipv4Address vtep);
  /// Adds a flood target; duplicates and the local VTEP are ignored (a
  /// VTEP never tunnels a flood back to itself).
  void add_flood_target(Ipv4Address vtep);

  /// Overlay fast-path cache fed by this VTEP's slow path (may be null).
  void set_oncache(oncache::OnCache* cache) { oncache_ = cache; }

  /// Overlay bridge -> tunnel.
  void ingress(EthernetFrame&& frame, int port) override;

  [[nodiscard]] std::uint32_t vni() const { return vni_; }
  [[nodiscard]] std::uint64_t encapsulated() const { return encap_; }
  [[nodiscard]] std::uint64_t decapsulated() const { return decap_; }
  /// Datagrams on the VTEP port that carried no inner frame (truncated or
  /// non-VXLAN payloads); dropped without decap.
  [[nodiscard]] std::uint64_t rx_non_vxlan() const { return rx_non_vxlan_; }
  [[nodiscard]] std::size_t flood_target_count() const {
    return flood_.size();
  }

 private:
  void encap_to(Ipv4Address vtep, EthernetFrame&& inner);
  void on_vtep_datagram(StackBackend::UdpDelivery& d);

  StackBackend* stack_;
  Ipv4Address local_vtep_;
  std::uint32_t vni_;
  oncache::OnCache* oncache_ = nullptr;
  std::unordered_map<MacAddress, Ipv4Address> l2_table_;
  std::vector<Ipv4Address> flood_;
  std::uint64_t encap_ = 0;
  std::uint64_t decap_ = 0;
  std::uint64_t rx_non_vxlan_ = 0;
};

}  // namespace nestv::net

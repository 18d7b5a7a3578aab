// virtio-net device with a vhost backend.
//
// The guest side costs ring operations (avail/used ring updates + kick) on
// the guest's softirq vCPU; the host side is a vhost kernel worker thread
// that moves frames between the guest rings and a host TAP (or a Hostlo
// queue).  "All network interfaces in the VMs are based on virtio, and use
// Vhost in their backend" (section 5.1).
#pragma once

#include "net/backend.hpp"
#include "net/tap.hpp"
#include "sim/cost_model.hpp"
#include "sim/resource.hpp"

namespace nestv::vmm {

class HostloTap;

class VirtioNic : public net::InterfaceBackend {
 public:
  /// `guest_softirq` is the vCPU doing guest-side ring work; `vhost` the
  /// host kernel worker backing this device.  When `use_vhost` is false the
  /// device models QEMU userspace emulation (ablation abl_vhost).
  VirtioNic(sim::Engine& engine, const sim::CostModel& costs,
            sim::SerialResource* guest_softirq, sim::SerialResource* vhost,
            bool use_vhost = true);

  /// Backs this NIC with a host TAP: guest TX writes to the tap fd, frames
  /// the tap reads from its network side are delivered to the guest.
  void attach_host_tap(net::TapDevice& tap);

  /// Backs this NIC with queue `queue_index` of a Hostlo device.
  void attach_hostlo(HostloTap& hostlo, int queue_index);

  // InterfaceBackend: guest stack side.
  void xmit(net::EthernetFrame&& frame) override;
  void set_rx(RxHandler handler) override { rx_ = std::move(handler); }

  /// Host -> guest delivery (called by the tap fd handler / Hostlo).
  void deliver_to_guest(net::EthernetFrame&& frame);

  [[nodiscard]] std::uint64_t tx_frames() const { return tx_; }
  [[nodiscard]] std::uint64_t rx_frames() const { return rx_count_; }

 private:
  [[nodiscard]] sim::Duration host_side_cost(
      const net::EthernetFrame& f) const;
  [[nodiscard]] sim::Duration guest_ring_work() const {
    // Hostlo endpoints lack the offload/batching features of vhost-net
    // devices: extra guest-side work per frame (CostModel).
    return costs_->virtio_ring_pkt +
           (hostlo_ != nullptr ? costs_->hostlo_endpoint_pkt : 0);
  }
  void schedule_guest(sim::Duration work, sim::InlineTask&& task);

  sim::Engine* engine_;
  const sim::CostModel* costs_;
  sim::SerialResource* guest_softirq_;
  sim::SerialResource* vhost_;
  bool use_vhost_;
  RxHandler rx_;

  net::TapDevice* host_tap_ = nullptr;
  HostloTap* hostlo_ = nullptr;
  int hostlo_queue_ = -1;

  std::uint64_t tx_ = 0;
  std::uint64_t rx_count_ = 0;
};

}  // namespace nestv::vmm

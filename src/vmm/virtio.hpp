// virtio-net device with a vhost backend.
//
// The guest side costs ring operations (avail/used ring updates + kick) on
// the guest's softirq vCPU; the host side is a vhost kernel worker thread
// that moves frames between the guest rings and a host TAP (or a Hostlo
// queue).  "All network interfaces in the VMs are based on virtio, and use
// Vhost in their backend" (section 5.1).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/backend.hpp"
#include "net/tap.hpp"
#include "sim/burst_queue.hpp"
#include "sim/cost_model.hpp"
#include "sim/resource.hpp"
#include "sim/test_hooks.hpp"

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
  void set_rx_train(RxTrainHandler handler) override {
    rx_train_ = std::move(handler);
  }

  /// Host -> guest delivery (called by the tap fd handler / Hostlo).
  void deliver_to_guest(net::EthernetFrame&& frame);

  [[nodiscard]] std::uint64_t tx_frames() const { return tx_; }
  [[nodiscard]] std::uint64_t rx_frames() const { return rx_count_; }
  /// Burst-mode stats (zero when batch_size <= 1): guest->host doorbells
  /// actually rung, and vhost RX poll cycles.  tx_frames() - tx_kicks() is
  /// the number of suppressed notifications.
  [[nodiscard]] std::uint64_t tx_kicks() const { return tx_kicks_; }
  [[nodiscard]] std::uint64_t rx_polls() const { return rx_polls_; }

 private:
  [[nodiscard]] sim::Duration host_side_cost(
      const net::EthernetFrame& f) const;
  [[nodiscard]] bool batched() const {
    return costs_->batch_size > 1 ||
           sim::test_hooks::force_virtio_batching;
  }
  [[nodiscard]] sim::Duration guest_ring_work() const {
    // Hostlo endpoints lack the offload/batching features of vhost-net
    // devices: extra guest-side work per frame (CostModel).
    return costs_->virtio_ring_pkt +
           (hostlo_ != nullptr ? costs_->hostlo_endpoint_pkt : 0);
  }
  void schedule_guest(sim::Duration work, sim::InlineTask&& task);
  void tx_kick();
  void rx_poll();
  void rx_napi_poll();

  sim::Engine* engine_;
  const sim::CostModel* costs_;
  sim::SerialResource* guest_softirq_;
  sim::SerialResource* vhost_;
  bool use_vhost_;
  RxHandler rx_;
  RxTrainHandler rx_train_;

  net::TapDevice* host_tap_ = nullptr;
  HostloTap* hostlo_ = nullptr;
  int hostlo_queue_ = -1;

  // Burst mode: per-direction descriptor rings.  TX frames wait for the
  // (coalesced) kick; RX frames wait for the vhost NAPI poll, then for the
  // guest-side NAPI drain (rx_backlog_) on the softirq core — the backlog
  // is where bursts actually form while the softirq core is busy.
  sim::BurstQueue<net::EthernetFrame> tx_ring_;
  sim::BurstQueue<net::EthernetFrame> rx_ring_;
  sim::BurstQueue<net::EthernetFrame> rx_backlog_;
  bool tx_kick_armed_ = false;
  bool rx_poll_armed_ = false;
  bool rx_napi_armed_ = false;
  std::uint64_t tx_kicks_ = 0;
  std::uint64_t rx_polls_ = 0;

  std::uint64_t tx_ = 0;
  std::uint64_t rx_count_ = 0;
};

}  // namespace nestv::vmm

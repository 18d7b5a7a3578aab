#include "vmm/virtio.hpp"

#include <cassert>
#include <utility>

#include "vmm/hostlo_tap.hpp"

namespace nestv::vmm {

VirtioNic::VirtioNic(sim::Engine& engine, const sim::CostModel& costs,
                     sim::SerialResource* guest_softirq,
                     sim::SerialResource* vhost, bool use_vhost)
    : engine_(&engine),
      costs_(&costs),
      guest_softirq_(guest_softirq),
      vhost_(vhost),
      use_vhost_(use_vhost) {}

void VirtioNic::attach_host_tap(net::TapDevice& tap) {
  assert(hostlo_ == nullptr && host_tap_ == nullptr);
  host_tap_ = &tap;
  tap.set_fd_handler(
      [this](net::EthernetFrame&& f) { deliver_to_guest(std::move(f)); });
}

void VirtioNic::attach_hostlo(HostloTap& hostlo, int queue_index) {
  assert(hostlo_ == nullptr && host_tap_ == nullptr);
  hostlo_ = &hostlo;
  hostlo_queue_ = queue_index;
}

sim::Duration VirtioNic::host_side_cost(const net::EthernetFrame& f) const {
  const auto& c = *costs_;
  if (use_vhost_) {
    return c.vhost_pkt +
           static_cast<sim::Duration>(c.vhost_copy_byte *
                                      static_cast<double>(f.wire_bytes()));
  }
  return c.qemu_emul_pkt +
         static_cast<sim::Duration>(c.qemu_emul_copy_byte *
                                    static_cast<double>(f.wire_bytes()));
}

void VirtioNic::schedule_guest(sim::Duration work, sim::InlineTask&& task) {
  if (guest_softirq_ != nullptr) {
    guest_softirq_->submit_as(sim::CpuCategory::kSoft, work,
                              std::move(task));
  } else {
    engine_->schedule_in(work, std::move(task));
  }
}

void VirtioNic::xmit(net::EthernetFrame&& frame) {
  ++tx_;
  if (batched()) {
    tx_ring_.push_back(std::move(frame));
    // Event suppression: while a kick is in flight the guest keeps filling
    // the avail ring without ringing the doorbell again.
    if (tx_kick_armed_) return;
    tx_kick_armed_ = true;
    ++tx_kicks_;
    schedule_guest(costs_->virtio_kick, [this] { tx_kick(); });
    return;
  }
  const sim::Duration guest_work = guest_ring_work();
  auto to_host = [this, f = std::move(frame)]() mutable {
    const auto cost = host_side_cost(f);
    vhost_->submit_as(sim::CpuCategory::kSys, cost,
                      [this, f2 = std::move(f)]() mutable {
                        if (host_tap_ != nullptr) {
                          host_tap_->inject(std::move(f2));
                        } else if (hostlo_ != nullptr) {
                          hostlo_->rx_from_queue(hostlo_queue_,
                                                 std::move(f2));
                        }
                        // An unbacked NIC drops (cable unplugged).
                      });
  };
  schedule_guest(guest_work, std::move(to_host));
}

void VirtioNic::tx_kick() {
  // tx_kick_armed_ stays set for the whole service cycle: the doorbell is
  // suppressed until the device finds the avail ring empty, so descriptors
  // queued while the chain is in flight accumulate into the next burst.
  const std::size_t budget = costs_->napi_budget > 0 ? costs_->napi_budget : 1;
  const std::size_t n = std::min(tx_ring_.size(), budget);
  if (n == 0) {
    tx_kick_armed_ = false;
    return;
  }
  if (n > 1) engine_->note_coalesced(n - 1);
  // Guest ring work for the whole burst runs as one softirq item; its
  // completion hands the burst to the vhost worker.  The frames stay in the
  // FIFO ring until the final stage — descriptors queued meanwhile land
  // behind them, so capturing just the count keeps the burst identity
  // without materializing a scratch vector per kick.
  const sim::Duration ring_work =
      static_cast<sim::Duration>(n) * guest_ring_work();
  schedule_guest(ring_work, [this, n] {
    sim::TimePoint end = 0;
    for (std::size_t i = 0; i < n; ++i) {
      end = vhost_->occupy(sim::CpuCategory::kSys, host_side_cost(tx_ring_[i]));
    }
    if (n > 1) engine_->note_coalesced(n - 1);
    engine_->schedule_at(end, [this, n] {
      for (std::size_t i = 0; i < n; ++i) {
        net::EthernetFrame f = std::move(tx_ring_.front());
        tx_ring_.pop_front();
        if (host_tap_ != nullptr) {
          host_tap_->inject(std::move(f));
        } else if (hostlo_ != nullptr) {
          hostlo_->rx_from_queue(hostlo_queue_, std::move(f));
        }
      }
      // NAPI loop: re-poll the ring before re-enabling notifications; a
      // non-empty ring is serviced without a fresh doorbell.
      tx_kick();
    });
  });
}

void VirtioNic::deliver_to_guest(net::EthernetFrame&& frame) {
  if (batched()) {
    rx_ring_.push_back(std::move(frame));
    // Interrupt suppression: the pending poll will see this descriptor.
    if (rx_poll_armed_) return;
    rx_poll_armed_ = true;
    ++rx_polls_;
    // Zero-work submission: the poll runs the moment the vhost worker is
    // free (immediately if idle), then services whatever accumulated.
    vhost_->submit_as(sim::CpuCategory::kSys, 0, [this] { rx_poll(); });
    return;
  }
  const sim::Duration guest_work = guest_ring_work();
  // Cost must be computed before the frame moves into the closure.
  const auto cost = host_side_cost(frame);
  auto to_guest = [this, guest_work, f = std::move(frame)]() mutable {
    auto deliver = [this, f2 = std::move(f)]() mutable {
      ++rx_count_;
      if (rx_) rx_(std::move(f2));
    };
    schedule_guest(guest_work, std::move(deliver));
  };
  vhost_->submit_as(sim::CpuCategory::kSys, cost, std::move(to_guest));
}

void VirtioNic::rx_poll() {
  // rx_poll_armed_ stays set through the drain: interrupts remain masked
  // while the NAPI loop runs, so frames landing mid-burst pile into the
  // ring and are picked up by the re-poll at completion.
  const std::size_t budget = costs_->napi_budget > 0 ? costs_->napi_budget : 1;
  const std::size_t n = std::min(rx_ring_.size(), budget);
  if (n == 0) {
    rx_poll_armed_ = false;
    return;
  }
  sim::TimePoint end = 0;
  for (std::size_t i = 0; i < n; ++i) {
    end = vhost_->occupy(sim::CpuCategory::kSys, host_side_cost(rx_ring_[i]));
  }
  if (n > 1) engine_->note_coalesced(n - 1);
  // As in tx_kick, the frames ride the FIFO ring itself to the completion
  // stage instead of a scratch vector.
  engine_->schedule_at(end, [this, n] {
    // Guest-side NAPI: the interrupt is injected only when the softirq core
    // is not already in a poll cycle.  While a cycle is pending or running —
    // which on a saturated softirq core is most of the time — frames pile
    // into the backlog and ride the next drain, so the train the stack (and
    // GRO) finally sees grows to the real burst size.
    for (std::size_t i = 0; i < n; ++i) {
      rx_backlog_.push_back(std::move(rx_ring_.front()));
      rx_ring_.pop_front();
    }
    if (!rx_napi_armed_) {
      rx_napi_armed_ = true;
      schedule_guest(costs_->virtio_kick, [this] { rx_napi_poll(); });
    }
    // NAPI loop: service descriptors that accumulated during the drain
    // before unmasking the interrupt.
    rx_poll();
  });
}

void VirtioNic::rx_napi_poll() {
  const std::size_t budget = costs_->napi_budget > 0 ? costs_->napi_budget : 1;
  const std::size_t n = std::min(rx_backlog_.size(), budget);
  if (n == 0) {
    rx_napi_armed_ = false;
    return;
  }
  std::vector<net::EthernetFrame> train;
  train.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    train.push_back(std::move(rx_backlog_.front()));
    rx_backlog_.pop_front();
  }
  if (n > 1) engine_->note_coalesced(n - 1);
  // Per-frame used-ring work for the whole train runs as one softirq item;
  // its completion hands the train to the stack.
  const sim::Duration work =
      static_cast<sim::Duration>(n) * guest_ring_work();
  schedule_guest(work, [this, t = std::move(train)]() mutable {
    rx_count_ += t.size();
    if (rx_train_) {
      rx_train_(std::move(t));
    } else if (rx_) {
      for (auto& f : t) rx_(std::move(f));
    }
    // NAPI loop: drain whatever accumulated during the delivery before
    // re-enabling the interrupt.
    rx_napi_poll();
  });
}

}  // namespace nestv::vmm

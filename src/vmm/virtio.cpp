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

void VirtioNic::deliver_to_guest(net::EthernetFrame&& frame) {
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

}  // namespace nestv::vmm

#include "vmm/hostlo_tap.hpp"

#include <utility>

#include "vmm/virtio.hpp"

namespace nestv::vmm {

HostloTap::HostloTap(sim::Engine& engine, std::string name,
                     const sim::CostModel& costs,
                     sim::SerialResource* host_kernel)
    : engine_(&engine),
      name_(std::move(name)),
      costs_(&costs),
      host_kernel_(host_kernel) {}

int HostloTap::add_queue(VirtioNic& endpoint) {
  queues_.push_back(&endpoint);
  const int index = static_cast<int>(queues_.size()) - 1;
  endpoint.attach_hostlo(*this, index);
  return index;
}

void HostloTap::rx_from_queue(int from_queue, net::EthernetFrame&& frame) {
  (void)from_queue;  // the reflect includes the writer's own queue
  const auto& c = *costs_;
  const auto n = static_cast<sim::Duration>(queues_.size());
  // Reflect work scales with the number of served queues: one copy per
  // queue (this fan-out is Hostlo's scalability limit; see
  // bench/abl_hostlo_queues).
  const sim::Duration work =
      n * (c.hostlo_reflect_pkt +
           static_cast<sim::Duration>(c.hostlo_reflect_copy_byte *
                                      static_cast<double>(frame.wire_bytes())));
  auto reflect = [this, f = std::move(frame)]() mutable {
    ++reflected_;
    // Reflect-to-all-queues is the datapath's canonical duplication point:
    // every queue gets a genuine, counted copy, except the last, which
    // takes the original.
    const std::size_t n = queues_.size();
    for (std::size_t i = 0; i < n; ++i) {
      ++deliveries_;
      if (i + 1 == n) {
        queues_[i]->deliver_to_guest(std::move(f));
      } else {
        queues_[i]->deliver_to_guest(net::EthernetFrame(f));
      }
    }
  };
  if (host_kernel_ != nullptr) {
    host_kernel_->submit_as(sim::CpuCategory::kSys, work, std::move(reflect));
  } else {
    engine_->schedule_in(work, std::move(reflect));
  }
}

}  // namespace nestv::vmm

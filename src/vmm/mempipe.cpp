#include "vmm/mempipe.hpp"

namespace nestv::vmm {

MemPipe::MemPipe(Vm& a, Vm& b) {
  a_.vm = &a;
  a_.peer = &b_;
  b_.vm = &b;
  b_.peer = &a_;
}

void MemPipe::Endpoint::xmit(net::EthernetFrame&& frame) {
  ++frames_tx;
  const auto& costs = vm->host().costs();
  // Sender: copy into the shared ring (guest kernel work).
  const sim::Duration send_work =
      costs.mempipe_pkt +
      static_cast<sim::Duration>(costs.mempipe_copy_byte *
                                 static_cast<double>(frame.wire_bytes()));
  Endpoint* dst = peer;
  vm->softirq().submit_as(
      sim::CpuCategory::kSys, send_work, [dst, f = std::move(frame)]() mutable {
        // Receiver: notification + copy out of the ring.
        const auto& c = dst->vm->host().costs();
        const sim::Duration recv_work =
            c.mempipe_pkt +
            static_cast<sim::Duration>(c.mempipe_copy_byte *
                                       static_cast<double>(f.wire_bytes()));
        dst->vm->softirq().submit_as(
            sim::CpuCategory::kSys, recv_work,
            [dst, f2 = std::move(f)]() mutable {
              if (dst->rx) dst->rx(std::move(f2));
            });
      });
}

}  // namespace nestv::vmm

// MemPipe-style cross-VM shared-memory transport (Zhang & Liu [41],
// discussed in section 4.3.2 and related work as "the best-suited solution
// for our context" for intra-host VM-to-VM data, and as a candidate
// localhost replacement the authors deemed challenging).
//
// Two co-resident VMs get endpoint devices backed by a shared-memory ring:
// a frame written on one side is memcpy'd into shared pages and the peer
// is notified — no vhost, no tap, no host bridge.  Contrast with Hostlo:
// cheaper per byte, but point-to-point only and, as the paper notes,
// "there is no concept of isolation" (any frame is visible to the peer
// unconditionally; nothing multiplexes more than two parties).
#pragma once

#include <cstdint>

#include "net/backend.hpp"
#include "vmm/vm.hpp"

namespace nestv::vmm {

class MemPipe {
 public:
  /// Establishes the shared ring between two VMs on the same host.
  MemPipe(Vm& a, Vm& b);

  /// Endpoint devices, usable as a NetworkStack InterfaceBackend.
  [[nodiscard]] net::InterfaceBackend& endpoint_a() { return a_; }
  [[nodiscard]] net::InterfaceBackend& endpoint_b() { return b_; }

  [[nodiscard]] std::uint64_t frames_transferred() const {
    return a_.frames_tx + b_.frames_tx;
  }

 private:
  struct Endpoint : net::InterfaceBackend {
    Vm* vm = nullptr;          ///< owning (sending) VM
    Endpoint* peer = nullptr;
    RxHandler rx;
    std::uint64_t frames_tx = 0;

    void xmit(net::EthernetFrame&& frame) override;
    void set_rx(RxHandler handler) override { rx = std::move(handler); }
  };

  Endpoint a_;
  Endpoint b_;
};

}  // namespace nestv::vmm

// TAP device: a kernel L2 interface whose other side is a file descriptor
// (section 4.2: "virtual network interfaces ... that read and write
// Ethernet frames from and to a file descriptor").  QEMU/vhost uses the fd
// side as the backend of a VM's virtio NIC.
#pragma once

#include <functional>
#include <string>

#include "net/device.hpp"

namespace nestv::net {

class TapDevice : public Device {
 public:
  using FdHandler = std::function<void(EthernetFrame&&)>;

  TapDevice(sim::Engine& engine, std::string name,
            const sim::CostModel& costs);

  /// The consumer of frames read from the fd (e.g. a vhost worker).
  void set_fd_handler(FdHandler handler) { fd_handler_ = std::move(handler); }

  /// Network side -> fd side (kernel delivers a frame to the fd reader).
  void ingress(EthernetFrame&& frame, int port) override;

  /// fd side -> network side (a write() on the tap fd injects a frame).
  void inject(EthernetFrame&& frame);

  [[nodiscard]] std::uint64_t frames_to_fd() const { return to_fd_; }
  [[nodiscard]] std::uint64_t frames_from_fd() const { return from_fd_; }

 private:
  [[nodiscard]] sim::Duration frame_work(const EthernetFrame& f) const;

  FdHandler fd_handler_;
  std::uint64_t to_fd_ = 0;
  std::uint64_t from_fd_ = 0;
};

}  // namespace nestv::net

// Docker-like container engine running inside one VM.
//
// Drives the boot sequence (fig 8's measured interval): runtime setup ->
// netns -> network attach (pluggable, the CNI boundary) -> app exec ->
// first TCP message.  The network-attach step is a callback so the engine
// is agnostic of bridge+NAT vs BrFusion vs Hostlo — exactly the CNI plugin
// boundary Kubernetes uses (sections 3.2 / 4.2).
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "container/boot.hpp"
#include "container/container.hpp"
#include "container/pod.hpp"
#include "sim/rng.hpp"
#include "vmm/vm.hpp"

namespace nestv::container {

class Runtime {
 public:
  /// Outcome handed back by a network attachment.
  struct AttachOutcome {
    bool ok = true;
    int ifindex = -1;
    net::Ipv4Address ip;
  };
  /// The CNI boundary: wire `fragment` into a network, then call done.
  /// Any time the attachment takes (hot-plug, iptables...) elapses on the
  /// simulated clock before `done` fires.
  using AttachFn =
      std::function<void(Pod::Fragment&, std::function<void(AttachOutcome)>)>;

  Runtime(vmm::Vm& vm, sim::Rng rng, BootTimingModel timing = {});

  /// Creates and boots a container inside `fragment`.  `done` fires when
  /// the container has sent its first TCP message (state kRunning), with
  /// the measured boot duration.
  void create_container(Pod::Fragment& fragment, const std::string& name,
                        AttachFn attach,
                        std::function<void(Container&, sim::Duration)> done);

  [[nodiscard]] vmm::Vm& vm() { return *vm_; }

 private:
  vmm::Vm* vm_;
  sim::Rng rng_;
  BootTimingModel timing_;
};

}  // namespace nestv::container

// Container Network Interface plugins.
//
// "Extending the Kubernetes orchestrator [...] is easily done with a
// Container Network Interface plugin.  CNI plugins follow a standard
// specification and are used to provide new networking models" (section
// 3.2).  Three plugins are provided:
//   * BridgeNatCni  - the vanilla nested design (fig 1a): veth into the
//                     guest docker0 bridge + guest NAT.  The "NAT" baseline.
//   * BrFusionCni   - section 3: per-pod NIC hot-plugged by the VMM and
//                     moved straight into the pod namespace.
//   * HostloCni     - section 4: a host-backed multiplexed localhost for
//                     cross-VM pods (whole-pod attach, one endpoint per
//                     fragment).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "container/boot.hpp"
#include "container/runtime.hpp"
#include "core/docker_net.hpp"
#include "core/protocol.hpp"
#include "sim/rng.hpp"

namespace nestv::core {

class Cni {
 public:
  struct Options {
    /// Ports exposed to the outside (Docker `-p`); the bridge+NAT plugin
    /// implements them as guest DNAT rules, BrFusion needs none because the
    /// pod NIC sits directly on the host-level network.
    std::vector<std::uint16_t> publish_ports;
  };

  virtual ~Cni() = default;

  virtual void attach(
      container::Pod::Fragment& fragment, const Options& options,
      std::function<void(container::Runtime::AttachOutcome)> done) = 0;

  /// Adapter for Runtime::create_container.
  [[nodiscard]] container::Runtime::AttachFn attach_fn(Options options = {});

  /// The attach of a container joining a namespace that is already wired
  /// (a pod's later containers, every fragment of a Hostlo pod): nothing
  /// to do, and no time passes.
  [[nodiscard]] static container::Runtime::AttachFn join_pod();
};

/// The vanilla nested networking the paper calls "NAT".
class BridgeNatCni : public Cni {
 public:
  BridgeNatCni(sim::Rng rng, container::BootTimingModel timing = {});


  void attach(container::Pod::Fragment& fragment, const Options& options,
              std::function<void(container::Runtime::AttachOutcome)> done)
      override;

  /// The per-VM docker network (created lazily on first attach).
  GuestDockerNetwork& network_for(vmm::Vm& vm);

 private:
  sim::Rng rng_;
  container::BootTimingModel timing_;
  std::map<vmm::Vm*, std::unique_ptr<GuestDockerNetwork>> networks_;
};

/// The NAT datapath with the per-flow fast-path cache enabled
/// (src/net/flowcache): identical wiring to BridgeNatCni, but the guest
/// stack memoizes each established flow's hook/route/ARP outcome so later
/// packets take a single cached hop.  The "NAT+FlowCache" datapath mode.
class FlowCacheCni : public BridgeNatCni {
 public:
  using BridgeNatCni::BridgeNatCni;


  void attach(container::Pod::Fragment& fragment, const Options& options,
              std::function<void(container::Runtime::AttachOutcome)> done)
      override;
};

/// Section 3: fused networking.  The pod NIC is provisioned by the VMM,
/// plugged into the host bridge, and configured inside the pod namespace —
/// "without the intermediary of NAT, a bridge and another vNIC in the VM".
class BrFusionCni : public Cni {
 public:
  BrFusionCni(OrchVmmChannel& channel, sim::Rng rng,
              container::BootTimingModel timing = {});


  void attach(container::Pod::Fragment& fragment, const Options& options,
              std::function<void(container::Runtime::AttachOutcome)> done)
      override;

  /// Pod teardown: detaches the pod NIC from the fragment's stack (dead
  /// ifindex, targeted flow-cache flush) and has the VMM hot-unplug it via
  /// QMP device_del.  `done` fires once the guest unbind completed.
  void detach(container::Pod::Fragment& fragment, int ifindex,
              std::function<void()> done);

 private:
  OrchVmmChannel* channel_;
  sim::Rng rng_;
  container::BootTimingModel timing_;
};

/// Section 4: cross-VM pod localhost.  Attaches the *whole pod*: one Hostlo
/// endpoint per fragment, all backed by one host-kernel multi-queue TAP.
class HostloCni {
 public:
  explicit HostloCni(OrchVmmChannel& channel);

  struct EndpointInfo {
    container::Pod::Fragment* fragment = nullptr;
    int ifindex = -1;
    net::Ipv4Address ip;
    net::MacAddress mac;
  };

  /// Provisions the Hostlo for `pod` across all its fragments' VMs; done
  /// receives one endpoint per fragment (in fragment order).
  void attach_pod(container::Pod& pod,
                  std::function<void(std::vector<EndpointInfo>)> done);

 private:
  OrchVmmChannel* channel_;
  std::uint8_t next_pod_subnet_ = 1;
};

}  // namespace nestv::core

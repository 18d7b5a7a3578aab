// Cross-VM intra-pod communication scenarios: the Hostlo evaluation
// topology (section 5.3).  The two halves of a pod (a client container and
// a server container) talk over:
//   kSameNode   - both containers in one pod in one VM, via the pod's
//                 localhost interface (the baseline).
//   kHostlo     - pod disaggregated over two VMs, endpoints of one Hostlo.
//   kNatCrossVm - two separate bridge+NAT containers, server port published
//                 (what you get today without overlay networking).
//   kOverlay    - Docker-Overlay-style VXLAN network between the VMs.
#pragma once

#include <memory>

#include "scenario/overlay.hpp"
#include "scenario/testbed.hpp"

namespace nestv::scenario {

enum class CrossVmMode { kSameNode, kHostlo, kNatCrossVm, kOverlay };

[[nodiscard]] const char* to_string(CrossVmMode m);

struct CrossVm {
  std::unique_ptr<Testbed> bed;
  std::unique_ptr<OverlayNetwork> overlay;  ///< kOverlay only
  Endpoint client;  ///< container A (sends requests)
  Endpoint server;  ///< container B (serves)
  container::Pod* pod = nullptr;
};

/// Builds the scenario and advances the clock until both containers run.
/// kOverlay's ONCache starts disabled (CrossVm::overlay enables it).
[[nodiscard]] CrossVm make_cross_vm(CrossVmMode mode,
                                    std::uint16_t service_port,
                                    TestbedConfig config = {});

}  // namespace nestv::scenario

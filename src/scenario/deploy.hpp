// Pod deployment: the one place a scenario turns one of the paper's
// deployment modes into booted containers and dialable endpoints.
//
// A mode decides three things, and this module owns all three:
//   * which CNI wires a fragment's namespace (bridge+NAT, NAT+FlowCache,
//     BrFusion's pod NIC, the Hostlo whole-pod attach, or the VXLAN
//     overlay) — every later container of a wired fragment just joins it;
//   * how the containers boot (one Runtime per VM, in spec order);
//   * which address a peer dials: the VM's published eth0 for NAT, the pod
//     NIC for BrFusion, the server's Hostlo endpoint, the server's ov0 on
//     an overlay, and localhost when both containers share one namespace.
//
// A pod is either a *server* pod (one container; its client is a host
// process the caller picks) or a *pair* (a client and a server container:
// SameNode, Hostlo, NAT-to-NAT across VMs, Overlay).  Synchronous callers
// pass a wait hook that runs the clock at each of the deployment's wait
// points; conductor worlds pass none, launch every pod, then poll ready().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scenario/overlay.hpp"
#include "scenario/testbed.hpp"
#include "sim/sharded_conductor.hpp"

namespace nestv::scenario {

enum class PodMode { kNat, kNatFlowCache, kBrFusion, kHostlo, kOverlay };

struct PodSpec {
  PodMode mode = PodMode::kNat;
  /// The server's port; the NAT modes publish it on the server VM.
  std::uint16_t port = 0;
  std::string srv_vm, srv_pod, srv;  ///< VM, pod and container names
  /// Empty for a server pod.  A pair boots its client container first.
  std::string cli;
  /// Empty: the client shares the server's VM and namespace (SameNode).
  std::string cli_vm;
  /// Empty: one pod holds both fragments (always so for Hostlo).
  std::string cli_pod;
  net::StackMode stack_mode = net::StackMode::kFull;
  std::uint32_t vni = 0;  ///< kOverlay: the pair's private overlay
};

/// Runs the clock until the predicate holds (Testbed::run_until_ready).
using WaitHook = std::function<void(const std::function<bool()>&)>;

[[nodiscard]] WaitHook wait_on(Testbed& bed);

/// One deployed pod.  Its boot callbacks hold its address, so it lives
/// behind the unique_ptr deploy_pod returns.
struct PodDeployment {
  PodDeployment() = default;
  PodDeployment(const PodDeployment&) = delete;
  PodDeployment& operator=(const PodDeployment&) = delete;

  PodSpec spec;
  Testbed* bed = nullptr;
  vmm::Vm* srv_vm = nullptr;
  vmm::Vm* cli_vm = nullptr;  ///< pairs only
  container::Pod::Fragment* srv_frag = nullptr;
  container::Pod::Fragment* cli_frag = nullptr;  ///< pairs only
  container::Container* srv_ctr = nullptr;
  container::Container* cli_ctr = nullptr;  ///< pairs only
  sim::Duration srv_boot = 0;              ///< fig 8's metric
  std::vector<core::HostloCni::EndpointInfo> eps;  ///< kHostlo
  std::unique_ptr<OverlayNetwork> overlay;         ///< kOverlay

  [[nodiscard]] bool is_pair() const { return !spec.cli.empty(); }
  /// Every container runs and the mode's wiring is complete.
  [[nodiscard]] bool ready() const;
  /// The server process; service_ip follows the mode's address rule.
  [[nodiscard]] Endpoint server() const;
  /// A pair's client process; its service_ip is the server's.
  [[nodiscard]] Endpoint client() const;
};

/// Creates the spec's VMs and pods on `bed` and boots its containers.
[[nodiscard]] std::unique_ptr<PodDeployment> deploy_pod(
    Testbed& bed, PodSpec spec, const WaitHook& wait = {});

/// Endpoint of a process on `stack` inside `vm`, reachable at `service_ip`.
[[nodiscard]] Endpoint guest_endpoint(vmm::Vm& vm, net::StackBackend& stack,
                                      sim::SerialResource* app,
                                      net::Ipv4Address service_ip,
                                      net::Ipv4Address local_ip);

/// A UDP echo server on `server`: every datagram to `port` goes back to its
/// sender, same size, from the server's local address.
void bind_udp_echo(const Endpoint& server, std::uint16_t port);

/// A bulk TCP sender on `sock` (netperf TCP_STREAM's loop): once the
/// handshake completes it writes `msg_bytes` at a time, keeping up to two
/// windows queued — each accepted write queues the next, and a drain below
/// one window resumes a sender at that mark — until `engine` reaches
/// `stop_at`.
void start_bulk_send(net::TcpSocket sock, sim::Engine& engine,
                     std::uint32_t msg_bytes, sim::TimePoint stop_at);

/// One Testbed per machine of a conductor world, in machine order: machine
/// i is "host<i>" on shard i * shards / count, seeded from `seed` and
/// bridged on `subnet(i)`.
[[nodiscard]] std::vector<std::unique_ptr<Testbed>> make_machines(
    sim::ShardedConductor& conductor, int count, std::uint64_t seed,
    const sim::CostModel& costs,
    const std::function<net::Ipv4Cidr(int)>& subnet);

/// Runs `conductor` in 10 ms steps until `ready()`; false if `limit` came
/// first.  Only the conductor moves time in a conductor world.
[[nodiscard]] bool run_until_deployed(sim::ShardedConductor& conductor,
                                      const std::function<bool()>& ready,
                                      sim::TimePoint limit);

}  // namespace nestv::scenario

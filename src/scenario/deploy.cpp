#include "scenario/deploy.hpp"

#include <memory>
#include <utility>

namespace nestv::scenario {
namespace {

/// Sub-stream id base (Rng::mix) of a conductor world's machine seeds.
constexpr std::uint64_t kMachineStreamBase = 0x2000ULL;  // + machine ordinal

/// Bytes a bulk sender keeps queued: two windows.
constexpr std::uint32_t kBulkHighWater = 2 * 262144;

struct BulkSend {
  net::TcpSocket sock;
  sim::Engine* engine;
  std::uint32_t msg_bytes;
  sim::TimePoint stop_at;
  bool waiting = false;  ///< at the high-water mark; on_writable resumes
};

void refill(const std::shared_ptr<BulkSend>& s) {
  if (s->engine->now() >= s->stop_at) return;
  if (s->sock.buffered() >= kBulkHighWater) {
    s->waiting = true;
    return;
  }
  s->sock.send(s->msg_bytes, [s] { refill(s); });
}

net::Ipv4Address iface_ip(net::StackBackend& stack, const char* name) {
  return stack.iface_ip(stack.ifindex_of(name));
}

/// The address a process binds inside `frag`, the pod's `ep`-th fragment
/// (0: the client's, 1: the server's; Hostlo endpoints come in that order).
net::Ipv4Address local_ip(const PodDeployment& d,
                          container::Pod::Fragment& frag, std::size_t ep) {
  if (d.cli_frag == d.srv_frag) return net::Ipv4Address(127, 0, 0, 1);
  switch (d.spec.mode) {
    case PodMode::kHostlo: return d.eps[ep].ip;
    case PodMode::kOverlay: return iface_ip(*frag.stack, "ov0");
    default: return iface_ip(*frag.stack, "eth0");
  }
}

/// How a fresh namespace gets its network: the mode's CNI (the NAT modes
/// publish the port of a `server` namespace), the overlay, or — for Hostlo,
/// whose whole-pod attach already wired it — nothing.
container::Runtime::AttachFn wiring(PodDeployment& d, bool server) {
  Testbed& bed = *d.bed;
  core::Cni::Options publish;
  if (server) publish.publish_ports = {d.spec.port};
  switch (d.spec.mode) {
    case PodMode::kNat: return bed.nat_cni().attach_fn(std::move(publish));
    case PodMode::kNatFlowCache:
      return bed.flowcache_cni().attach_fn(std::move(publish));
    case PodMode::kBrFusion: return bed.brfusion_cni().attach_fn({});
    case PodMode::kHostlo: return core::Cni::join_pod();
    case PodMode::kOverlay:
      return [overlay = d.overlay.get()](
                 container::Pod::Fragment& fragment,
                 std::function<void(container::Runtime::AttachOutcome)>
                     done) {
        const auto a = overlay->attach(fragment);
        done(container::Runtime::AttachOutcome{true, a.ifindex, a.ip});
      };
  }
  return core::Cni::join_pod();
}

}  // namespace

WaitHook wait_on(Testbed& bed) {
  return [&bed](const std::function<bool()>& pred) {
    bed.run_until_ready(pred);
  };
}

bool PodDeployment::ready() const {
  return srv_ctr != nullptr && (!is_pair() || cli_ctr != nullptr) &&
         (spec.mode != PodMode::kHostlo || eps.size() == 2);
}

Endpoint PodDeployment::server() const {
  const net::Ipv4Address local = local_ip(*this, *srv_frag, 1);
  const bool published = cli_frag != srv_frag &&
                         (spec.mode == PodMode::kNat ||
                          spec.mode == PodMode::kNatFlowCache);
  return guest_endpoint(*srv_vm, *srv_frag->stack, srv_ctr->app_core(),
                        published ? iface_ip(srv_vm->stack(), "eth0") : local,
                        local);
}

Endpoint PodDeployment::client() const {
  return guest_endpoint(*cli_vm, *cli_frag->stack, cli_ctr->app_core(),
                        server().service_ip, local_ip(*this, *cli_frag, 0));
}

std::unique_ptr<PodDeployment> deploy_pod(Testbed& bed, PodSpec spec,
                                          const WaitHook& wait) {
  auto owned = std::make_unique<PodDeployment>();
  PodDeployment* d = owned.get();
  d->spec = std::move(spec);
  d->bed = &bed;
  const PodSpec& s = d->spec;

  // VMs, pods and fragments, client side first.
  const bool split = d->is_pair() && !s.cli_vm.empty();
  if (split) d->cli_vm = &bed.create_vm_with_uplink(s.cli_vm);
  d->srv_vm = &bed.create_vm_with_uplink(s.srv_vm);
  if (s.mode == PodMode::kOverlay) {
    d->overlay = std::make_unique<OverlayNetwork>(bed, s.vni);
  }
  const bool two_pods = split && !s.cli_pod.empty();
  container::Pod& first = bed.create_pod(two_pods ? s.cli_pod : s.srv_pod);
  container::Pod& second = two_pods ? bed.create_pod(s.srv_pod) : first;
  if (split) d->cli_frag = &first.add_fragment(*d->cli_vm, s.stack_mode);
  d->srv_frag = &second.add_fragment(*d->srv_vm, s.stack_mode);
  if (d->is_pair() && !split) {
    d->cli_vm = d->srv_vm;
    d->cli_frag = d->srv_frag;
  }

  if (s.mode == PodMode::kHostlo) {
    bed.hostlo_cni().attach_pod(
        first, [d](std::vector<core::HostloCni::EndpointInfo> eps) {
          d->eps = std::move(eps);
        });
    if (wait) wait([d] { return !d->eps.empty(); });
  }

  // Containers, client first.  A namespace is wired once: a container
  // landing in an already-wired fragment joins it.  The overlay programs
  // its VTEP tables once both members are up.
  auto boot = [&](container::Pod::Fragment& frag, const std::string& name,
                  container::Runtime::AttachFn attach,
                  container::Container** out) {
    bed.runtime_for(*frag.vm).create_container(
        frag, name, std::move(attach),
        [d, out](container::Container& c, sim::Duration boot_time) {
          *out = &c;
          if (out == &d->srv_ctr) d->srv_boot = boot_time;
          if (d->overlay != nullptr && d->srv_ctr != nullptr &&
              d->cli_ctr != nullptr) {
            d->overlay->finalize();
          }
        });
    if (wait) wait([out] { return *out != nullptr; });
  };
  if (d->is_pair()) boot(*d->cli_frag, s.cli, wiring(*d, false), &d->cli_ctr);
  boot(*d->srv_frag, s.srv,
       d->srv_frag == d->cli_frag ? core::Cni::join_pod() : wiring(*d, true),
       &d->srv_ctr);
  return owned;
}

Endpoint guest_endpoint(vmm::Vm& vm, net::StackBackend& stack,
                        sim::SerialResource* app,
                        net::Ipv4Address service_ip,
                        net::Ipv4Address local_ip) {
  Endpoint e;
  e.stack = &stack;
  e.service_ip = service_ip;
  e.local_ip = local_ip;
  e.app = app;
  e.vm = &vm;
  vmm::Vm* vm_ptr = &vm;
  e.make_core = [vm_ptr](const std::string& name) -> sim::SerialResource& {
    return vm_ptr->make_app_core(name);
  };
  return e;
}

void bind_udp_echo(const Endpoint& server, std::uint16_t port) {
  net::StackBackend* stack = server.stack;
  sim::SerialResource* app = server.app;
  const net::Ipv4Address local = server.local_ip;
  stack->udp_bind(port, app,
                  [stack, app, local, port](
                      net::StackBackend::UdpDelivery& del) {
                    stack->udp_send(local, port, del.src_ip, del.src_port,
                                    del.bytes, app);
                  });
}

void start_bulk_send(net::TcpSocket sock, sim::Engine& engine,
                     std::uint32_t msg_bytes, sim::TimePoint stop_at) {
  auto s = std::make_shared<BulkSend>(
      BulkSend{sock, &engine, msg_bytes, stop_at});
  sock.set_on_writable([s] {
    if (s->waiting) {
      s->waiting = false;
      refill(s);
    }
  });
  sock.set_on_connected([s] { refill(s); });
}

std::vector<std::unique_ptr<Testbed>> make_machines(
    sim::ShardedConductor& conductor, int count, std::uint64_t seed,
    const sim::CostModel& costs,
    const std::function<net::Ipv4Cidr(int)>& subnet) {
  std::vector<std::unique_ptr<Testbed>> beds;
  beds.reserve(std::size_t(count));
  for (int i = 0; i < count; ++i) {
    TestbedConfig tc;
    tc.seed = sim::Rng::mix(seed, kMachineStreamBase + std::uint64_t(i));
    tc.costs = costs;
    tc.engine = &conductor.shard(i * conductor.shards() / count);
    tc.machine.name = "host" + std::to_string(i);
    tc.machine.bridge_subnet = subnet(i);
    beds.push_back(std::make_unique<Testbed>(tc));
  }
  return beds;
}

bool run_until_deployed(sim::ShardedConductor& conductor,
                        const std::function<bool()>& ready,
                        sim::TimePoint limit) {
  while (!ready()) {
    if (conductor.now() >= limit) return false;
    conductor.run_until(conductor.now() + sim::milliseconds(10));
  }
  return true;
}

}  // namespace nestv::scenario

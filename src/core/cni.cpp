#include "core/cni.hpp"

#include <cassert>
#include <utility>

namespace nestv::core {

container::Runtime::AttachFn Cni::attach_fn(Options options) {
  return [this, options = std::move(options)](
             container::Pod::Fragment& fragment,
             std::function<void(container::Runtime::AttachOutcome)> done) {
    attach(fragment, options, std::move(done));
  };
}

container::Runtime::AttachFn Cni::join_pod() {
  return [](container::Pod::Fragment&,
            std::function<void(container::Runtime::AttachOutcome)> done) {
    done(container::Runtime::AttachOutcome{true, -1, net::Ipv4Address{}});
  };
}

// ---- BridgeNatCni -----------------------------------------------------------

BridgeNatCni::BridgeNatCni(sim::Rng rng, container::BootTimingModel timing)
    : rng_(rng), timing_(timing) {}

GuestDockerNetwork& BridgeNatCni::network_for(vmm::Vm& vm) {
  auto it = networks_.find(&vm);
  if (it == networks_.end()) {
    it = networks_
             .emplace(&vm, std::make_unique<GuestDockerNetwork>(vm))
             .first;
  }
  return *it->second;
}

void BridgeNatCni::attach(
    container::Pod::Fragment& fragment, const Options& options,
    std::function<void(container::Runtime::AttachOutcome)> done) {
  assert(fragment.vm != nullptr);
  vmm::Vm& vm = *fragment.vm;
  auto& engine = vm.host().engine();

  // Control-plane cost: create the veth, attach it to docker0, and insert
  // the iptables bookkeeping + publish rules (each insert rewrites the
  // table under the xtables lock).
  sim::Duration delay =
      timing_.sample(rng_, timing_.veth_create_mu, timing_.veth_create_sigma) +
      timing_.sample(rng_, timing_.bridge_attach_mu,
                     timing_.bridge_attach_sigma);
  const int rule_count =
      timing_.iptables_rules_per_container +
      2 * static_cast<int>(options.publish_ports.size());
  for (int i = 0; i < rule_count; ++i) {
    delay += timing_.sample(rng_, timing_.iptables_rule_mu,
                            timing_.iptables_rule_sigma);
  }

  // Init-capture `options` non-const so the closure keeps a nothrow move
  // (a plain copy-capture of the const reference would pin a const member
  // whose move is a throwing copy, spilling the task to the heap).
  engine.schedule_in(delay, [this, &fragment, &vm, options = Options(options),
                             done = std::move(done)] {
    GuestDockerNetwork& network = network_for(vm);
    const auto attachment =
        network.attach(fragment, vm.host().costs().gso_nat_nested);
    for (const std::uint16_t port : options.publish_ports) {
      network.publish_port(port, attachment.ip);
    }
    done(container::Runtime::AttachOutcome{true, attachment.ifindex,
                                           attachment.ip});
  });
}

// ---- FlowCacheCni -----------------------------------------------------------

void FlowCacheCni::attach(
    container::Pod::Fragment& fragment, const Options& options,
    std::function<void(container::Runtime::AttachOutcome)> done) {
  assert(fragment.vm != nullptr);
  vmm::Vm& vm = *fragment.vm;
  container::Pod::Fragment* frag = &fragment;
  BridgeNatCni::attach(
      fragment, options,
      [&vm, frag, done = std::move(done)](
          container::Runtime::AttachOutcome outcome) {
        // Same nested wiring as NAT; flip on the fast-path cache in both
        // the forwarding guest stack and the pod's own stack.
        vm.stack().set_flowcache(true);
        frag->stack->set_flowcache(true);
        done(outcome);
      });
}

// ---- BrFusionCni ------------------------------------------------------------

BrFusionCni::BrFusionCni(OrchVmmChannel& channel, sim::Rng rng,
                         container::BootTimingModel timing)
    : channel_(&channel), rng_(rng), timing_(timing) {}

void BrFusionCni::attach(
    container::Pod::Fragment& fragment, const Options& options,
    std::function<void(container::Runtime::AttachOutcome)> done) {
  (void)options;  // the pod NIC is directly reachable; nothing to publish
  assert(fragment.vm != nullptr);
  vmm::Vm& vm = *fragment.vm;
  auto& machine = vm.host();
  auto& engine = machine.engine();

  const auto ifconfig = timing_.sample(rng_, timing_.guest_ifconfig_mu,
                                       timing_.guest_ifconfig_sigma);

  // Steps 1-4 of section 3.1: request the NIC, wait for hot-plug + guest
  // probe, then configure it inside the pod namespace.
  channel_->request_nic(
      vm, [&machine, &engine, &fragment, ifconfig,
           done = std::move(done)](vmm::Vmm::ProvisionedNic nic) mutable {
        engine.schedule_in(ifconfig, [&machine, &fragment, nic,
                                      done = std::move(done)] {
          net::InterfaceConfig cfg;
          cfg.name = "eth0";
          cfg.mac = nic.mac;
          cfg.ip = machine.allocate_bridge_ip();
          cfg.subnet = machine.config().bridge_subnet;
          cfg.gso_bytes = machine.costs().gso_virtio;
          const int ifindex = fragment.stack->add_interface(*nic.nic, cfg);
          fragment.stack->routes().add_default(machine.bridge_ip(), ifindex);
          done(container::Runtime::AttachOutcome{true, ifindex, cfg.ip});
        });
      });
}

void BrFusionCni::detach(container::Pod::Fragment& fragment, int ifindex,
                         std::function<void()> done) {
  assert(fragment.vm != nullptr);
  const auto mac = fragment.stack->iface_mac(ifindex);
  // Guest side first: the netdev disappears from the namespace, dropping
  // parked packets and exactly the cached flows through this ifindex.
  fragment.stack->detach_interface(ifindex);
  channel_->release_nic(*fragment.vm, mac, std::move(done));
}

// ---- HostloCni --------------------------------------------------------------

HostloCni::HostloCni(OrchVmmChannel& channel) : channel_(&channel) {}

void HostloCni::attach_pod(
    container::Pod& pod,
    std::function<void(std::vector<EndpointInfo>)> done) {
  // A link-local /24 per pod for the shared localhost (the pod's private
  // loopback domain; see DESIGN.md on the 127/8 substitution).
  const net::Ipv4Cidr pod_subnet(
      net::Ipv4Address(169, 254, next_pod_subnet_++, 0), 24);

  std::vector<vmm::Vm*> vms;
  for (auto& frag : pod.fragments()) vms.push_back(frag->vm);

  channel_->request_hostlo(
      vms, [&pod, pod_subnet, done = std::move(done)](
               vmm::Vmm::ProvisionedHostlo result) mutable {
        std::vector<EndpointInfo> endpoints;
        auto& fragments = pod.fragments();
        assert(result.endpoints.size() == fragments.size());
        for (std::size_t i = 0; i < fragments.size(); ++i) {
          auto& frag = *fragments[i];
          const auto& ep = result.endpoints[i];
          net::InterfaceConfig cfg;
          cfg.name = "hostlo0";
          cfg.mac = ep.mac;
          cfg.ip = pod_subnet.host(static_cast<std::uint32_t>(i) + 1);
          cfg.subnet = pod_subnet;
          cfg.gso_bytes = frag.vm->host().costs().gso_hostlo;
          // The modified tap driver negotiates no offload features:
          // TSO off (gso_hostlo) and no GRO at the endpoint either.
          frag.stack->set_gro(false);
          const int ifindex = frag.stack->add_interface(*ep.nic, cfg);
          endpoints.push_back(EndpointInfo{&frag, ifindex, cfg.ip, ep.mac});
        }
        done(std::move(endpoints));
      });
}

}  // namespace nestv::core

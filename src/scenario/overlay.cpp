#include "scenario/overlay.hpp"

#include <cassert>

namespace nestv::scenario {

OverlayNetwork::OverlayNetwork(Testbed& bed, std::uint32_t vni)
    : bed_(&bed), vni_(vni) {}

OverlayNetwork::VmState& OverlayNetwork::state_for(vmm::Vm& vm) {
  auto it = states_.find(&vm);
  if (it != states_.end()) return *it->second;

  auto state = std::make_unique<VmState>();
  state->vm = &vm;
  auto& engine = bed_->engine();
  const auto& costs = bed_->costs();

  state->bridge = std::make_unique<net::oncache::CachedBridge>(
      engine, vm.name() + "/br-overlay", costs, /*guest_level=*/true);
  state->bridge->set_cpu(&vm.softirq(), sim::CpuCategory::kSoft);

  // The VTEP rides the VM's uplink address.
  const int up = vm.stack().ifindex_of("eth0");
  assert(up >= 0 && "overlay requires a configured VM uplink");
  state->vtep_ip = vm.stack().iface_ip(up);
  state->vxlan = std::make_unique<net::VxlanDevice>(
      engine, vm.name() + "/vxlan0", costs, vm.stack(), state->vtep_ip,
      vni_);
  state->vxlan->set_cpu(&vm.softirq(), sim::CpuCategory::kSoft);
  const int vxlan_port = state->bridge->add_port();
  net::Device::connect(*state->vxlan, 0, *state->bridge, vxlan_port);
  state->oncache =
      std::make_unique<net::oncache::OnCache>(vm.stack(), costs, vni_);
  state->oncache->set_local_vtep(state->vtep_ip);
  state->oncache->set_uplink_ifindex(up);
  state->bridge->attach_oncache(state->oncache.get(), vxlan_port);
  state->vxlan->set_oncache(state->oncache.get());
  vm.stack().attach_oncache(state->oncache.get());
  // The overlay guest forwards + encapsulates: same service-time noise as
  // the NAT-forwarding guests (fig 10's variable Overlay latency).
  vm.stack().set_forward_jitter(
      0.7, vm.host().rng().fork().next_u64());

  auto& ref = *state;
  states_[&vm] = std::move(state);
  return ref;
}

OverlayNetwork::Attachment OverlayNetwork::attach(
    container::Pod::Fragment& fragment) {
  assert(fragment.vm != nullptr);
  VmState& state = state_for(*fragment.vm);
  auto& machine = fragment.vm->host();

  auto veth = std::make_unique<net::VethPair>(
      bed_->engine(),
      fragment.vm->name() + "/oveth" + std::to_string(state.veths.size()),
      bed_->costs());
  veth->set_cpu(&fragment.vm->softirq(), sim::CpuCategory::kSoft);
  net::Device::connect(veth->a(), 0, *state.bridge, state.bridge->add_port());

  const net::Ipv4Cidr subnet(net::Ipv4Address(10, 99, 0, 0), 24);
  net::InterfaceConfig cfg;
  cfg.name = "ov0";
  cfg.mac = machine.allocate_mac();
  cfg.ip = subnet.host(next_ip_++);
  cfg.subnet = subnet;
  cfg.gso_bytes = bed_->costs().gso_overlay;
  const int ifindex = fragment.stack->add_interface(veth->b(), cfg);

  state.veths.push_back(std::move(veth));
  members_.push_back(Member{&state, cfg.mac});
  return Attachment{ifindex, cfg.ip, cfg.mac};
}

void OverlayNetwork::finalize() {
  for (auto& [vm, state] : states_) {
    (void)vm;
    for (const Member& m : members_) {
      if (m.state == state.get()) continue;  // local members switch in-bridge
      state->vxlan->add_remote(m.mac, m.state->vtep_ip);
    }
    for (auto& [other_vm, other] : states_) {
      (void)other_vm;
      if (other.get() == state.get()) continue;
      state->vxlan->add_flood_target(other->vtep_ip);
    }
  }
}

void OverlayNetwork::set_oncache_enabled(bool on) {
  for (auto& [vm, state] : states_) {
    (void)vm;
    state->oncache->set_enabled(on);
  }
}

OverlayNetwork::OncacheTotals OverlayNetwork::oncache_totals() const {
  OncacheTotals t;
  for (const auto& [vm, state] : states_) {
    (void)vm;
    t.egress_hits += state->oncache->egress_hits();
    t.ingress_hits += state->oncache->ingress_hits();
    t.invalidations += state->oncache->invalidations();
    t.entries += state->oncache->size();
    t.state_bytes += state->oncache->state_bytes();
  }
  return t;
}

}  // namespace nestv::scenario

#include "scenario/testbed.hpp"

#include <cassert>
#include <stdexcept>

namespace nestv::scenario {
namespace {

/// Sub-stream id for the FlowCache CNI's boot-jitter RNG (Rng::of_stream).
constexpr std::uint64_t kFlowCacheCniStream = 0x666c6f77ULL;  // "flow"

}  // namespace

Testbed::Testbed(TestbedConfig config)
    : costs_(config.costs), use_vhost_(config.use_vhost) {
  if (config.engine != nullptr) {
    engine_ = config.engine;
  } else {
    owned_engine_ = std::make_unique<sim::Engine>();
    engine_ = owned_engine_.get();
  }
  vmm::PhysicalMachine::Config mc = config.machine;
  mc.seed = config.seed;
  machine_ =
      std::make_unique<vmm::PhysicalMachine>(*engine_, costs_, mc);
  vmm_ = std::make_unique<vmm::Vmm>(*machine_);
  channel_ = std::make_unique<core::OrchVmmChannel>(*vmm_);
  nat_cni_ = std::make_unique<core::BridgeNatCni>(machine_->rng().fork());
  // Seeded off the config rather than the machine RNG stream so adding
  // this CNI does not shift the fork sequence (and thus every jittered
  // timing) of the pre-existing scenarios.
  flowcache_cni_ = std::make_unique<core::FlowCacheCni>(
      sim::Rng::of_stream(config.seed, kFlowCacheCniStream));
  brfusion_cni_ = std::make_unique<core::BrFusionCni>(
      *channel_, machine_->rng().fork());
  hostlo_cni_ = std::make_unique<core::HostloCni>(*channel_);
}

vmm::Vm& Testbed::create_vm_with_uplink(const std::string& name) {
  vmm::Vm& vm = vmm_->create_vm({.name = name});

  net::TapDevice& tap = machine_->make_tap("tap-" + name);
  vmm::VirtioNic& nic = vm.create_nic("eth0", use_vhost_);
  nic.attach_host_tap(tap);

  net::InterfaceConfig cfg;
  cfg.name = "eth0";
  cfg.mac = machine_->allocate_mac();
  cfg.ip = machine_->allocate_bridge_ip();
  cfg.subnet = machine_->config().bridge_subnet;
  cfg.gso_bytes = costs_.gso_virtio;
  const int ifindex = vm.stack().add_interface(nic, cfg);
  vm.stack().routes().add_default(machine_->bridge_ip(), ifindex);
  return vm;
}

container::Pod& Testbed::create_pod(const std::string& name) {
  pods_.push_back(std::make_unique<container::Pod>(name));
  return *pods_.back();
}

container::Runtime& Testbed::runtime_for(vmm::Vm& vm) {
  auto it = runtimes_.find(&vm);
  if (it == runtimes_.end()) {
    it = runtimes_
             .emplace(&vm, std::make_unique<container::Runtime>(
                               vm, machine_->rng().fork()))
             .first;
  }
  return *it->second;
}

Endpoint Testbed::host_client(const std::string& process_name) {
  Endpoint e;
  e.stack = &machine_->stack();
  e.service_ip = machine_->bridge_ip();
  e.local_ip = machine_->bridge_ip();
  e.app = &machine_->make_app_core(process_name);
  e.vm = nullptr;
  vmm::PhysicalMachine* machine = machine_.get();
  e.make_core = [machine](const std::string& name) -> sim::SerialResource& {
    return machine->make_app_core(name);
  };
  return e;
}

void Testbed::run_until_ready(const std::function<bool()>& pred,
                              sim::Duration step, sim::Duration limit) {
  const sim::TimePoint deadline = engine_->now() + limit;
  while (!pred()) {
    if (engine_->now() >= deadline) {
      throw std::runtime_error("testbed: deployment did not become ready");
    }
    engine_->run_until(engine_->now() + step);
  }
}

}  // namespace nestv::scenario

#include "vmm/machine.hpp"

#include <atomic>

namespace nestv::vmm {

namespace {
// Per-process machine numbering.  Atomic because parallel bench sweeps
// (and conductor workers tearing worlds down) construct machines from
// several threads; the ordinal only namespaces MAC addresses, so which
// machine draws which number does not affect any simulated metric.
std::uint32_t next_machine_ordinal() {
  static std::atomic<std::uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

PhysicalMachine::PhysicalMachine(sim::Engine& engine,
                                 const sim::CostModel& costs, Config config)
    : engine_(&engine),
      costs_(&costs),
      config_(std::move(config)),
      rng_(config_.seed) {
  machine_ordinal_ = next_machine_ordinal();
  host_account_ = &ledger_.account(config_.name);

  auto softirq = std::make_unique<sim::SerialResource>(
      engine, config_.name + "/softirq");
  softirq->bind(*host_account_, sim::CpuCategory::kSoft);
  host_softirq_ = softirq.get();
  resources_.push_back(std::move(softirq));

  bridge_ = std::make_unique<net::Bridge>(engine, config_.name + "/br0",
                                          costs, /*guest_level=*/false);
  bridge_->set_cpu(host_softirq_, sim::CpuCategory::kSoft);

  host_stack_ = std::make_unique<net::NetworkStack>(
      engine, config_.name, costs, host_softirq_);
  host_stack_->set_forwarding(true);
  // Host netfilter bookkeeping chains.
  host_stack_->netfilter().install_standing_rules(costs.nf_standing_rules);

  // The host stack owns the bridge address (like virbr0's 192.168.122.1).
  host_port_ = std::make_unique<net::PortBackend>(
      engine, config_.name + "/br0-port", costs);
  // PortBackend pre-creates its port 0; give the bridge a fresh port.
  net::Device::connect(*host_port_, 0, *bridge_, bridge_->add_port());
  bridge_ip_ = config_.bridge_subnet.host(next_host_ip_++);
  net::InterfaceConfig cfg;
  cfg.name = "br0";
  cfg.mac = allocate_mac();
  cfg.ip = bridge_ip_;
  cfg.subnet = config_.bridge_subnet;
  cfg.gso_bytes = costs.gso_virtio;
  host_stack_->add_interface(*host_port_, cfg);
}

net::Ipv4Address PhysicalMachine::allocate_bridge_ip() {
  return config_.bridge_subnet.host(++next_host_ip_);
}

net::MacAddress PhysicalMachine::allocate_mac() {
  // The machine ordinal goes into the OUI-ish upper bytes so that MACs are
  // unique across every machine on one fabric (each machine has its own
  // counter; without the prefix two hosts would mint identical addresses).
  return net::MacAddress::local_from_id(
      (static_cast<std::uint64_t>(machine_ordinal_) << 24) |
      next_mac_id_++);
}

sim::SerialResource& PhysicalMachine::make_app_core(
    const std::string& process_name) {
  auto r = std::make_unique<sim::SerialResource>(
      *engine_, config_.name + "/" + process_name);
  r->bind(ledger_.account(config_.name + "/" + process_name),
          sim::CpuCategory::kUsr);
  sim::SerialResource& ref = *r;
  resources_.push_back(std::move(r));
  return ref;
}

sim::SerialResource& PhysicalMachine::make_kernel_worker(
    const std::string& name) {
  auto r = std::make_unique<sim::SerialResource>(*engine_,
                                                 config_.name + "/" + name);
  // Kernel workers on behalf of guests: host "sys" time (the ~1.68 cores
  // the paper observes for vhost in section 5.3.4).
  r->bind(*host_account_, sim::CpuCategory::kSys);
  r->bind(ledger_.account(config_.name + "/kworkers"),
          sim::CpuCategory::kSys);
  sim::SerialResource& ref = *r;
  resources_.push_back(std::move(r));
  return ref;
}

net::TapDevice& PhysicalMachine::make_tap(const std::string& name) {
  auto tap = std::make_unique<net::TapDevice>(
      *engine_, config_.name + "/" + name, *costs_);
  tap->set_cpu(host_softirq_, sim::CpuCategory::kSoft);
  net::Device::connect(*tap, 0, *bridge_, bridge_->add_port());
  net::TapDevice& ref = *tap;
  taps_.push_back(std::move(tap));
  return ref;
}

}  // namespace nestv::vmm

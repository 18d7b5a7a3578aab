// The physical host: CPU ledger, host kernel network stack, host bridge.
//
// Mirrors the paper's testbed node (section 5.1): a server whose host
// kernel runs a bridge ("the host's bridge") that multiplexes the physical
// NIC between VMs, with netfilter rules installed by the VMM's tooling.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/bridge.hpp"
#include "net/stack.hpp"
#include "net/tap.hpp"
#include "sim/cost_model.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"

namespace nestv::vmm {

class PhysicalMachine {
 public:
  struct Config {
    std::string name = "host";
    net::Ipv4Cidr bridge_subnet =
        net::Ipv4Cidr(net::Ipv4Address(192, 168, 122, 0), 24);
    std::uint64_t seed = 42;
  };

  PhysicalMachine(sim::Engine& engine, const sim::CostModel& costs,
                  Config config);
  /// Default Config.
  PhysicalMachine(sim::Engine& engine, const sim::CostModel& costs)
      : PhysicalMachine(engine, costs, Config{}) {}

  PhysicalMachine(const PhysicalMachine&) = delete;
  PhysicalMachine& operator=(const PhysicalMachine&) = delete;

  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] const sim::CostModel& costs() const { return *costs_; }
  [[nodiscard]] sim::CpuLedger& ledger() { return ledger_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] const Config& config() const { return config_; }

  /// The host kernel account ("host" in fig 14/15's host-side breakdown).
  [[nodiscard]] sim::CpuAccount& host_account() { return *host_account_; }

  /// The host-level bridge all VM taps plug into (fig 1a "bridge" on the
  /// physical machine).
  [[nodiscard]] net::Bridge& bridge() { return *bridge_; }
  /// The host kernel's network stack (owns the bridge IP, NAT rules).
  [[nodiscard]] net::NetworkStack& stack() { return *host_stack_; }
  [[nodiscard]] net::Ipv4Address bridge_ip() const { return bridge_ip_; }

  /// Allocates a host IP on the bridge subnet (VM addresses, client iface).
  net::Ipv4Address allocate_bridge_ip();
  net::MacAddress allocate_mac();

  /// A userspace process pinned to its own host core (the Netperf /
  /// memtier / wrk2 client of section 5.1 runs "on different CPUs of the
  /// physical host").
  sim::SerialResource& make_app_core(const std::string& process_name);

  /// A host kernel worker thread (vhost, hostlo module work).
  sim::SerialResource& make_kernel_worker(const std::string& name);

  /// Creates a TAP attached to a fresh host bridge port, processing on the
  /// host softirq core.
  net::TapDevice& make_tap(const std::string& name);

 private:
  sim::Engine* engine_;
  const sim::CostModel* costs_;
  Config config_;
  sim::Rng rng_;
  sim::CpuLedger ledger_;
  sim::CpuAccount* host_account_;

  std::vector<std::unique_ptr<sim::SerialResource>> resources_;
  sim::SerialResource* host_softirq_;

  std::unique_ptr<net::Bridge> bridge_;
  std::unique_ptr<net::PortBackend> host_port_;
  std::unique_ptr<net::NetworkStack> host_stack_;
  net::Ipv4Address bridge_ip_;
  std::vector<std::unique_ptr<net::TapDevice>> taps_;

  std::uint32_t next_host_ip_ = 1;
  std::uint64_t next_mac_id_ = 1;
  std::uint32_t machine_ordinal_ = 0;  ///< process-wide instance number
};

}  // namespace nestv::vmm

// A QEMU/KVM virtual machine: vCPUs, guest kernel stack, virtio NICs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/stack.hpp"
#include "vmm/machine.hpp"
#include "vmm/virtio.hpp"

namespace nestv::vmm {

class Vm {
 public:
  struct Config {
    std::string name;
  };

  Vm(PhysicalMachine& host, Config config);

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] PhysicalMachine& host() { return *host_; }

  /// The guest kernel's init network namespace.
  [[nodiscard]] net::StackBackend& stack() { return *stack_; }
  /// The vCPU servicing guest softirq (bridge, netfilter, virtio rings).
  [[nodiscard]] sim::SerialResource& softirq() { return *softirq_; }
  /// Aggregate guest account ("vm/<name>", fig 6b's VM-level view).
  [[nodiscard]] sim::CpuAccount& account() { return *account_; }

  /// A guest application core; charges the per-app account, the VM
  /// aggregate, and the host's guest time.
  sim::SerialResource& make_app_core(const std::string& app_name);

  /// Creates a virtio NIC whose guest-side ring work runs on this VM's
  /// softirq vCPU, backed by a fresh vhost worker on the host.
  VirtioNic& create_nic(const std::string& nic_name, bool use_vhost = true);

  [[nodiscard]] const std::vector<std::unique_ptr<VirtioNic>>& nics() const {
    return nics_;
  }

 private:
  PhysicalMachine* host_;
  Config config_;
  sim::CpuAccount* account_;
  std::vector<std::unique_ptr<sim::SerialResource>> resources_;
  sim::SerialResource* softirq_;
  std::unique_ptr<net::FullStack> stack_;
  std::vector<std::unique_ptr<VirtioNic>> nics_;
};

}  // namespace nestv::vmm

#include "vmm/vm.hpp"

namespace nestv::vmm {

Vm::Vm(PhysicalMachine& host, Config config)
    : host_(&host), config_(std::move(config)) {
  auto& ledger = host_->ledger();
  account_ = &ledger.account("vm/" + config_.name);

  auto softirq = std::make_unique<sim::SerialResource>(
      host_->engine(), config_.name + "/softirq");
  softirq->bind(*account_, sim::CpuCategory::kSoft);
  // vCPU time is host CPU lent to the guest (fig 14's "guest" rows).
  softirq->bind(host_->host_account(), sim::CpuCategory::kGuest);
  softirq_ = softirq.get();
  resources_.push_back(std::move(softirq));

  stack_ = std::make_unique<net::FullStack>(
      host_->engine(), "vm/" + config_.name, host_->costs(), softirq_);
  // Docker/K8s netfilter chains in the guest.
  stack_->netfilter().install_standing_rules(host_->costs().nf_standing_rules);
}

sim::SerialResource& Vm::make_app_core(const std::string& app_name) {
  auto r = std::make_unique<sim::SerialResource>(
      host_->engine(), config_.name + "/" + app_name);
  r->bind(host_->ledger().account("vm/" + config_.name + "/" + app_name),
          sim::CpuCategory::kUsr);
  r->bind(*account_, sim::CpuCategory::kUsr);
  r->bind(host_->host_account(), sim::CpuCategory::kGuest);
  sim::SerialResource& ref = *r;
  resources_.push_back(std::move(r));
  return ref;
}

VirtioNic& Vm::create_nic(const std::string& nic_name, bool use_vhost) {
  auto& vhost =
      host_->make_kernel_worker("vhost-" + config_.name + "-" + nic_name);
  auto nic = std::make_unique<VirtioNic>(host_->engine(), host_->costs(),
                                         softirq_, &vhost, use_vhost);
  VirtioNic& ref = *nic;
  nics_.push_back(std::move(nic));
  return ref;
}

}  // namespace nestv::vmm

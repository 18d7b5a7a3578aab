// StackService: network-stack-as-a-service (NetKernel's core idea).
//
// Instead of every guest burning its own softirq core on protocol
// processing, one host-side worker runs the stack for N guests.  Each
// attached guest gets a full-featured stack instance (FullStack semantics:
// netfilter, GRO, flowcache, ICMP) whose softirq work is submitted to the
// service's shared SerialResource — so an idle-ish guest consumes no
// standing core, and the service's utilization is the sum of its tenants'
// actual demand.  That consolidation is the paper-adjacent win the
// abl_stack_backend bench quantifies (packets per provisioned core-second
// versus one dedicated softirq per guest).
//
// Attribution: every softirq charge a hosted stack submits is also recorded
// against a per-guest CpuAccount in the service's ledger, so "who is using
// the shared worker" stays answerable per tenant — NetKernel's billing
// argument, and the per-backend CPU breakdown DatapathStats reports.
//
// Teardown: detaching a guest dead-ends its interfaces and *retires* the
// stack rather than destroying it — in-flight softirq items and timers
// still reference it.  Retired stacks die with the service, after the
// engine has drained.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/stack_backend.hpp"
#include "sim/cost_model.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace nestv::net {

class ServiceHostedStack;

class StackService {
 public:
  StackService(sim::Engine& engine, std::string name,
               const sim::CostModel& costs);
  ~StackService();

  StackService(const StackService&) = delete;
  StackService& operator=(const StackService&) = delete;

  /// Attaches a tenant: returns a FullStack-featured backend (kind() ==
  /// kServiceHosted) whose protocol work runs on this service's worker.
  /// The reference stays valid until the service is destroyed (detaching
  /// only retires it).
  StackBackend& attach_guest(const std::string& guest_name);

  /// Detaches a tenant mid-run: every non-loopback interface is dead-ended
  /// (parked/queued packets drop) and the stack moves to the retired list.
  /// Safe with packets in flight — retired stacks outlive their events.
  void detach_guest(StackBackend& stack);

  /// The shared worker; callers bind it to their CPU ledger like any other
  /// softirq resource (ServerlessMachine binds it as kSoft host time).
  [[nodiscard]] sim::SerialResource& worker() { return worker_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t guest_count() const { return guests_.size(); }
  [[nodiscard]] std::size_t retired_count() const { return retired_.size(); }

  /// Soft-CPU nanoseconds the worker has executed on behalf of the named
  /// guest (0 for unknown names).  Sum over guests == worker busy time.
  [[nodiscard]] sim::Duration attributed_soft_ns(
      const std::string& guest_name) const;

  /// Per-guest attribution accounts (rendered by DatapathStats).
  [[nodiscard]] const sim::CpuLedger& ledger() const { return ledger_; }

 private:
  sim::Engine* engine_;
  std::string name_;
  const sim::CostModel* costs_;
  sim::SerialResource worker_;
  sim::CpuLedger ledger_;
  std::vector<std::unique_ptr<ServiceHostedStack>> guests_;
  std::vector<std::unique_ptr<ServiceHostedStack>> retired_;
};

}  // namespace nestv::net

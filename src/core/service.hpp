// ClusterIP services — the kube-proxy layer.
//
// Kubernetes fronts pods with virtual service addresses; kube-proxy
// programs every node's netfilter with KUBE-SVC chains that DNAT new flows
// to a backend pod, round-robin.  These chains are precisely the standing
// rules whose per-packet scan cost the nested NAT datapath pays (figs 6/7),
// and they interact with the paper's designs in an instructive way: with
// bridge+NAT pods a backend on another VM is *not reachable* (pod subnets
// are VM-local — the very "VM-local network virtualization" problem of
// section 2), while BrFusion pods live on the host-level network and are
// service-routable from every node with no overlay.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/netfilter.hpp"
#include "vmm/vm.hpp"

namespace nestv::core {

class ServiceRegistry {
 public:
  explicit ServiceRegistry(net::Ipv4Cidr service_cidr = net::Ipv4Cidr(
                               net::Ipv4Address(10, 96, 0, 0), 16))
      : cidr_(service_cidr) {}

  struct Service {
    std::string name;
    net::Ipv4Address cluster_ip;
    std::uint16_t port = 0;
    std::vector<net::NatBackend> backends;
  };

  /// Registers a node: kube-proxy starts programming its netfilter.
  void add_node(vmm::Vm& vm);

  /// Creates (or replaces) a service and programs every node.
  const Service& expose(const std::string& name, std::uint16_t port,
                        std::vector<net::NatBackend> backends);

  /// Adds one endpoint to an existing service and reprograms the nodes.
  void add_backend(const std::string& name, net::NatBackend backend);

  [[nodiscard]] const Service* find(const std::string& name) const;
  [[nodiscard]] std::size_t service_count() const { return services_.size(); }

 private:
  void program_all();
  void program_node(vmm::Vm& vm);

  net::Ipv4Cidr cidr_;
  std::uint32_t next_ip_ = 1;
  std::map<std::string, Service> services_;
  std::vector<vmm::Vm*> nodes_;
};

}  // namespace nestv::core

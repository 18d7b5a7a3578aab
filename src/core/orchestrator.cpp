#include "core/orchestrator.hpp"

#include <algorithm>
#include <cassert>

namespace nestv::core {

const char* to_string(NetworkMode m) {
  switch (m) {
    case NetworkMode::kBridgeNat: return "bridge-nat";
    case NetworkMode::kBrFusion: return "brfusion";
    case NetworkMode::kHostlo: return "hostlo";
  }
  return "?";
}

Orchestrator::Orchestrator(vmm::Vmm& vmm, BridgeNatCni& nat,
                           BrFusionCni& brfusion, HostloCni& hostlo)
    : vmm_(&vmm), nat_(&nat), brfusion_(&brfusion), hostlo_(&hostlo) {}

void Orchestrator::register_node(vmm::Vm& vm, NodeCapacity capacity) {
  auto node = std::make_unique<Node>();
  node->vm = &vm;
  node->capacity = capacity;
  node->runtime = std::make_unique<container::Runtime>(
      vm, vm.host().rng().fork());
  nodes_.push_back(std::move(node));
}

Orchestrator::NodeCapacity Orchestrator::free_capacity(
    const vmm::Vm& vm) const {
  for (const auto& node : nodes_) {
    if (node->vm == &vm) {
      return NodeCapacity{node->capacity.cpu - node->used_cpu,
                          node->capacity.memory_gb - node->used_mem};
    }
  }
  return NodeCapacity{0.0, 0.0};
}

Orchestrator::Node* Orchestrator::pick_node(double cpu, double mem) {
  Node* best = nullptr;
  for (auto& node : nodes_) {
    if (!node->fits(cpu, mem)) continue;
    if (best == nullptr ||
        node->requested_score() > best->requested_score()) {
      best = node.get();
    }
  }
  return best;
}

std::vector<Orchestrator::Node*> Orchestrator::pick_split(
    const PodRequest& request) {
  // Greedy per container, biggest first, most-requested node that fits —
  // the online analogue of the fig 9 rescheduler.  Reservations are made
  // on scratch copies so an infeasible request leaves no trace.
  std::vector<std::size_t> order(request.containers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& ca = request.containers[a];
    const auto& cb = request.containers[b];
    return ca.cpu + ca.memory_gb > cb.cpu + cb.memory_gb;
  });

  std::vector<double> scratch_cpu(nodes_.size());
  std::vector<double> scratch_mem(nodes_.size());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    scratch_cpu[n] = nodes_[n]->used_cpu;
    scratch_mem[n] = nodes_[n]->used_mem;
  }

  std::vector<Node*> placement(request.containers.size(), nullptr);
  for (const std::size_t ci : order) {
    const auto& c = request.containers[ci];
    std::size_t best = nodes_.size();
    double best_score = -1.0;
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      const auto& node = *nodes_[n];
      if (node.capacity.cpu - scratch_cpu[n] + 1e-9 < c.cpu ||
          node.capacity.memory_gb - scratch_mem[n] + 1e-9 < c.memory_gb) {
        continue;
      }
      const double score = scratch_cpu[n] / node.capacity.cpu +
                           scratch_mem[n] / node.capacity.memory_gb;
      if (score > best_score) {
        best_score = score;
        best = n;
      }
    }
    if (best == nodes_.size()) return {};
    scratch_cpu[best] += c.cpu;
    scratch_mem[best] += c.memory_gb;
    placement[ci] = nodes_[best].get();
  }
  return placement;
}

void Orchestrator::deploy(PodRequest request,
                          std::function<void(Deployment)> done) {
  double total_cpu = 0, total_mem = 0;
  for (const auto& c : request.containers) {
    total_cpu += c.cpu;
    total_mem += c.memory_gb;
  }

  std::vector<Node*> placement;
  if (request.network == NetworkMode::kHostlo) {
    placement = pick_split(request);
    if (placement.empty()) {
      done(Deployment{false, "no feasible split placement", nullptr, {}});
      return;
    }
  } else {
    Node* node = pick_node(total_cpu, total_mem);
    if (node == nullptr) {
      done(Deployment{false, "no node fits the whole pod", nullptr, {}});
      return;
    }
    placement.assign(request.containers.size(), node);
  }

  // Reserve resources.
  for (std::size_t i = 0; i < request.containers.size(); ++i) {
    placement[i]->used_cpu += request.containers[i].cpu;
    placement[i]->used_mem += request.containers[i].memory_gb;
  }

  pods_.push_back(std::make_unique<container::Pod>(request.name));
  container::Pod& pod = *pods_.back();

  // One fragment per distinct node, in placement order.
  std::map<Node*, container::Pod::Fragment*> fragments;
  for (Node* node : placement) {
    if (fragments.count(node) == 0) {
      fragments[node] = &pod.add_fragment(*node->vm);
    }
  }

  if (request.network == NetworkMode::kHostlo) {
    // Provision the shared localhost first, then boot.
    hostlo_->attach_pod(
        pod, [this, &pod, placement, request = std::move(request),
              done = std::move(done)](
                 std::vector<HostloCni::EndpointInfo>) mutable {
          boot_containers(pod, placement, request, std::move(done));
        });
    return;
  }
  boot_containers(pod, placement, request, std::move(done));
}

void Orchestrator::boot_containers(container::Pod& pod,
                                   const std::vector<Node*>& placement,
                                   const PodRequest& request,
                                   std::function<void(Deployment)> done) {
  auto result = std::make_shared<Deployment>();
  result->ok = true;
  result->pod = &pod;
  for (Node* n : placement) result->placement.push_back(n->vm);
  auto remaining = std::make_shared<std::size_t>(request.containers.size());
  auto shared_done =
      std::make_shared<std::function<void(Deployment)>>(std::move(done));

  // The per-node network attach: the first container of a fragment wires
  // the namespace; later ones (and every Hostlo container, whose pod
  // attach_pod already wired) join it.
  std::map<const container::Pod::Fragment*, bool> fragment_wired;

  for (std::size_t i = 0; i < request.containers.size(); ++i) {
    Node* node = placement[i];
    container::Pod::Fragment* fragment = nullptr;
    for (auto& f : pod.fragments()) {
      if (f->vm == node->vm) fragment = f.get();
    }
    assert(fragment != nullptr);

    container::Runtime::AttachFn attach = Cni::join_pod();
    if (request.network != NetworkMode::kHostlo && !fragment_wired[fragment]) {
      Cni::Options opts;
      opts.publish_ports = request.containers[i].publish_ports;
      Cni& cni = request.network == NetworkMode::kBrFusion
                     ? static_cast<Cni&>(*brfusion_)
                     : static_cast<Cni&>(*nat_);
      attach = cni.attach_fn(opts);
      fragment_wired[fragment] = true;
    }

    node->runtime->create_container(
        *fragment, request.containers[i].image, request.containers[i].name,
        std::move(attach),
        [this, result, remaining, shared_done](container::Container& c,
                                               sim::Duration) {
          if (c.state() != container::ContainerState::kRunning) {
            result->ok = false;
            result->reason = "container failed to start";
          }
          if (--*remaining == 0) {
            ++deployed_;
            (*shared_done)(*result);
          }
        });
  }
}

}  // namespace nestv::core

// Docker-Overlay-style network: per-VM overlay bridge + VXLAN VTEP, the
// only production alternative for cross-node pod traffic the paper
// compares Hostlo against ("Overlay: Docker's network overlay solution,
// which is the only currently viable approach for cross-node pod
// deployment", section 5.1).
//
// Each VM's overlay bridge is a net::oncache::CachedBridge wired to a
// per-VM OnCache (the ONCache-style encap/decap fast path).  The cache
// starts *disabled* — every frame takes the itemized bridge + VXLAN slow
// path — and set_oncache_enabled(true) flips the fast path on at runtime.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "container/pod.hpp"
#include "net/bridge.hpp"
#include "net/oncache.hpp"
#include "net/veth.hpp"
#include "net/vxlan.hpp"
#include "scenario/testbed.hpp"

namespace nestv::scenario {

class OverlayNetwork {
 public:
  /// Members are addressed from 10.99.0.0/24; `vni` keeps overlays that
  /// share one underlay apart.
  OverlayNetwork(Testbed& bed, std::uint32_t vni);

  struct Attachment {
    int ifindex = -1;
    net::Ipv4Address ip;
    net::MacAddress mac;
  };

  /// Joins `fragment` to the overlay: lazily creates the hosting VM's
  /// overlay bridge + VXLAN device, then attaches the fragment via veth.
  Attachment attach(container::Pod::Fragment& fragment);

  /// Programs the static L2->VTEP tables (docker's gossip/kv store role).
  /// Call after all fragments are attached.
  void finalize();

  /// Flips the encap/decap fast path on every member VM's cache.
  /// Disabling flushes the caches.
  void set_oncache_enabled(bool on);

  /// Aggregates across member VMs (macro-scale peak-state sampling).
  struct OncacheTotals {
    std::uint64_t egress_hits = 0;
    std::uint64_t ingress_hits = 0;
    std::uint64_t invalidations = 0;
    std::size_t entries = 0;
    std::size_t state_bytes = 0;
  };
  [[nodiscard]] OncacheTotals oncache_totals() const;

 private:
  struct VmState {
    vmm::Vm* vm = nullptr;
    std::unique_ptr<net::oncache::CachedBridge> bridge;
    std::unique_ptr<net::oncache::OnCache> oncache;
    std::unique_ptr<net::VxlanDevice> vxlan;
    std::vector<std::unique_ptr<net::VethPair>> veths;
    net::Ipv4Address vtep_ip;
  };
  struct Member {
    VmState* state;
    net::MacAddress mac;
  };

  VmState& state_for(vmm::Vm& vm);

  Testbed* bed_;
  std::uint32_t vni_;
  std::map<vmm::Vm*, std::unique_ptr<VmState>> states_;
  std::vector<Member> members_;
  std::uint32_t next_ip_ = 2;
};

}  // namespace nestv::scenario

// FastPathStack: a compact stream-oriented StackBackend in the IncludeOS
// idiom — one fixed pipeline per direction, no hook points to traverse, no
// conntrack, no GRO merge pass, no IP fragmentation machinery.
//
// The RX path is a single fused pass (MAC filter -> demux -> L4 segment
// handling) charged as one fastpath_rx_pkt; TX fuses the route decision and
// neighbour lookup into one fastpath_tx_pkt.  What the full stack spreads
// over route_lookup + hook traversals + l4_segment, this stack does in a
// table-free straight line — the unikernel argument that a single-tenant
// guest needs no generality it will never configure.
//
// Deliberately absent (throwing from the seam's capability defaults):
// netfilter, forwarding, resegmentation, jitter injection, the flow cache
// (nothing to cache: the whole path is already one charge) and ICMP.  A
// datagram larger than the egress MTU is dropped — streams segment to GSO
// size in L4, and the fast path refuses to own a fragmenter.
//
// ARP is retained unchanged (same frames on the wire as FullStack): the
// fast path must interoperate on a shared L2 with full stacks, and the
// differential fuzz oracle leans on identical neighbour behavior.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/backend.hpp"
#include "net/neighbor.hpp"
#include "net/packet.hpp"
#include "net/route.hpp"
#include "net/stack_backend.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace nestv::net {

class FastPathStack : public StackBackend {
 public:
  FastPathStack(sim::Engine& engine, std::string name,
                const sim::CostModel& costs, sim::SerialResource* softirq);
  ~FastPathStack() override;

  [[nodiscard]] StackKind kind() const override {
    return StackKind::kFastPath;
  }

  // ---- configuration ----------------------------------------------------
  int add_interface(InterfaceBackend& backend,
                    const InterfaceConfig& cfg) override;
  void configure_loopback(std::uint32_t gso_bytes) override;
  [[nodiscard]] RoutingTable& routes() override { return routes_; }
  [[nodiscard]] int ifindex_of(const std::string& name) const override;
  [[nodiscard]] Ipv4Address iface_ip(int ifindex) const override;
  [[nodiscard]] MacAddress iface_mac(int ifindex) const override;
  void set_iface_gso(int ifindex, std::uint32_t gso_bytes) override;
  void seed_neighbor(int ifindex, Ipv4Address ip, MacAddress mac) override;
  void detach_interface(int ifindex) override;
  [[nodiscard]] std::size_t interface_count() const override {
    return ifaces_.size();
  }

  // ---- datapath ---------------------------------------------------------
  void rx(int ifindex, EthernetFrame&& frame) override;
  void rx_train(int ifindex, std::vector<EthernetFrame> frames) override;
  void emit_packet(Packet&& p) override;
  [[nodiscard]] std::uint32_t egress_gso(Ipv4Address dst) const override;

 private:
  struct Interface {
    InterfaceConfig cfg;
    InterfaceBackend* backend = nullptr;  ///< null for loopback
    NeighborTable neighbors;
    /// Packets parked awaiting ARP resolution, keyed by next-hop.
    std::unordered_map<Ipv4Address, std::vector<Packet>> arp_pending;
  };

  [[nodiscard]] bool is_local_address(Ipv4Address a) const;
  /// The fused per-packet pass: locality check, L4 demux, segment handling.
  /// Runs inside a softirq item already charged fastpath_rx_pkt.
  void rx_demux(Packet&& p);
  void deliver_local_fast(Packet&& p);
  /// TCP demux without a separate l4_segment charge (folded into the fixed
  /// per-packet cost); otherwise mirrors StackBackend::deliver_tcp.
  void deliver_tcp_fast(Packet&& p);
  void arp_resolve_and_send(Packet&& p, int out_ifindex);
  void send_arp_request(int ifindex, Ipv4Address target);
  void handle_arp(int ifindex, const EthernetFrame& frame);

  std::vector<Interface> ifaces_;  ///< [0] is loopback
  RoutingTable routes_;
  /// Drives the faststack_dup_udp_delivery test hook (deterministic
  /// per-stack delivery counter; no effect with the hook off).
  std::uint64_t udp_rx_count_ = 0;
};

}  // namespace nestv::net

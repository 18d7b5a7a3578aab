// FastPathStack: a compact stream-oriented StackBackend in the IncludeOS
// idiom — one fixed pipeline per direction, no hook points to traverse, no
// conntrack, no GRO merge pass, no IP fragmentation machinery.
//
// Behind the shared MAC filter, the RX path is a single fused pass (demux
// -> L4 segment handling) charged as one fastpath_rx_pkt; TX fuses the route decision and
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
// The link layer — interface table, ARP, the L2 receive head and frame
// transmit — is StackBackend's shared code, so the fast path puts the same
// frames on the wire as FullStack by construction: it interoperates on a
// shared L2 with full stacks, and the differential fuzz oracle leans on
// identical neighbour behavior.  This class adds only the fused per-packet
// pipeline and the oversized-datagram drop.
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"
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

  void emit_packet(Packet&& p) override;

 private:
  /// Charges one fused fastpath_rx_pkt per packet.
  void l3_rx(int ifindex, Packet&& p) override;
  /// The fused per-packet pass: locality check, L4 demux, segment handling.
  /// Runs inside a softirq item already charged fastpath_rx_pkt.
  void rx_demux(Packet&& p);
  void deliver_local_fast(Packet&& p);
  /// TCP demux without a separate l4_segment charge (folded into the fixed
  /// per-packet cost); otherwise mirrors StackBackend::deliver_tcp.
  void deliver_tcp_fast(Packet&& p);
  /// No fragmenter: a datagram over the egress MTU drops here.
  void arp_resolve_and_send(Packet&& p, int out_ifindex) override;

  /// Drives the faststack_dup_udp_delivery test hook (deterministic
  /// per-stack delivery counter; no effect with the hook off).
  std::uint64_t udp_rx_count_ = 0;
};

}  // namespace nestv::net

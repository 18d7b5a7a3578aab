#include "net/faststack.hpp"

#include <utility>

#include "net/tcp.hpp"
#include "sim/test_hooks.hpp"

namespace nestv::net {

FastPathStack::FastPathStack(sim::Engine& engine, std::string name,
                             const sim::CostModel& costs,
                             sim::SerialResource* softirq)
    : StackBackend(engine, std::move(name), costs, softirq) {}

FastPathStack::~FastPathStack() = default;

// ---- RX path ----------------------------------------------------------------

void FastPathStack::l3_rx(int /*ifindex*/, Packet&& p) {
  // The whole pipeline is one fixed charge; demux + L4 run inside it.
  softirq_run(costs_->fastpath_rx_pkt, [this, pkt = std::move(p)]() mutable {
    rx_demux(std::move(pkt));
  });
}

void FastPathStack::rx_demux(Packet&& p) {
  // No fragmenter on the fast path: a fragment cannot be reassembled.
  if (p.frag_more || p.frag_offset > 0) {
    ++reassembly_failures_;
    ++dropped_;
    return;
  }
  // No forwarding: a single-tenant endpoint stack only terminates traffic.
  if (!is_local_address(p.dst_ip)) {
    ++dropped_;
    return;
  }
  deliver_local_fast(std::move(p));
}

void FastPathStack::deliver_local_fast(Packet&& p) {
  ++delivered_;
  if (p.proto == L4Proto::kUdp) {
    if (sim::test_hooks::faststack_dup_udp_delivery &&
        ++udp_rx_count_ % 4 == 0) {
      // Injected bug (fuzz self-test): every 4th datagram delivers twice.
      Packet dup = p;
      deliver_udp(std::move(dup));
    }
    deliver_udp(std::move(p));
    return;
  }
  if (p.proto == L4Proto::kTcp) {
    deliver_tcp_fast(std::move(p));
    return;
  }
  // No ICMP on the fast path.
  ++dropped_;
}

void FastPathStack::deliver_tcp_fast(Packet&& p) {
  // Mirrors StackBackend::deliver_tcp, but the segment runs inline: its
  // L4 work is already folded into the fixed fastpath_rx_pkt charge.
  const TcpKey key{p.dst_ip, p.dst_port, p.src_ip, p.src_port};
  const auto it = tcp_conns_.find(key);
  if (it != tcp_conns_.end()) {
    it->second->on_segment(p);
    return;
  }
  const auto lit = tcp_listeners_.find(p.dst_port);
  if (lit != tcp_listeners_.end() && p.tcp_flags.syn && !p.tcp_flags.ack) {
    TcpConnection& conn = create_connection(key, lit->second.app);
    lit->second.on_accept(make_socket(&conn));
    conn.open_passive(p);
    return;
  }
  ++dropped_;
}

// ---- TX path ----------------------------------------------------------------

void FastPathStack::emit_packet(Packet&& p) {
  p.ct_id = 0;
  p.ct_reply = false;
  if (p.packet_id == 0) p.packet_id = next_packet_id();
  const auto& c = *costs_;

  if (is_local_address(p.dst_ip)) {
    // Loopback short-circuit: fixed TX charge + lo device work, then
    // straight back into local delivery.
    const auto cost =
        c.fastpath_tx_pkt + c.loopback_pkt +
        static_cast<sim::Duration>(c.loopback_copy_byte *
                                   static_cast<double>(p.payload_bytes));
    softirq_run(cost, [this, pkt = std::move(p)]() mutable {
      deliver_local_fast(std::move(pkt));
    });
    return;
  }

  const auto route = routes_.lookup(p.dst_ip);
  if (!route || route->ifindex <= 0 ||
      static_cast<std::size_t>(route->ifindex) >= ifaces_.size()) {
    softirq_run(c.fastpath_tx_pkt, [this] { ++dropped_; });
    return;
  }
  softirq_run(c.fastpath_tx_pkt,
              [this, pkt = std::move(p), out = route->ifindex]() mutable {
                arp_resolve_and_send(std::move(pkt), out);
              });
}

void FastPathStack::arp_resolve_and_send(Packet&& p, int out_ifindex) {
  const Interface& itf = iface(out_ifindex);
  if (itf.backend == nullptr) {
    // Hot-unplugged: the netdev is gone.
    ++dropped_;
    return;
  }
  // No fragmenter: datagrams that do not fit the egress MTU are dropped
  // (streams never hit this — TCP segments to the interface's GSO size).
  const std::uint32_t mtu_payload =
      itf.cfg.mtu > (kIpv4HeaderBytes + kUdpHeaderBytes)
          ? itf.cfg.mtu - kIpv4HeaderBytes - kUdpHeaderBytes
          : 1472;
  if (p.proto == L4Proto::kUdp && p.payload_bytes > mtu_payload) {
    ++dropped_;
    return;
  }
  if (const auto mac = resolve_or_park(p, out_ifindex)) {
    xmit_packet(out_ifindex, *mac, std::move(p));
  }
}

}  // namespace nestv::net

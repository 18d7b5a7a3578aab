#include "net/faststack.hpp"

#include <algorithm>
#include <utility>

#include "net/pcap.hpp"
#include "net/tcp.hpp"
#include "net/trace.hpp"
#include "sim/test_hooks.hpp"

namespace nestv::net {

FastPathStack::FastPathStack(sim::Engine& engine, std::string name,
                             const sim::CostModel& costs,
                             sim::SerialResource* softirq)
    : StackBackend(engine, std::move(name), costs, softirq) {
  // Interface 0 is always loopback, same shape as FullStack's so the
  // consumer-facing ifindex space is identical across backends.
  Interface lo;
  lo.cfg.name = "lo";
  lo.cfg.ip = Ipv4Address(127, 0, 0, 1);
  lo.cfg.subnet = Ipv4Cidr(Ipv4Address(127, 0, 0, 0), 8);
  lo.cfg.mtu = 65536;
  lo.cfg.gso_bytes = costs.gso_loopback;
  ifaces_.push_back(std::move(lo));
  routes_.add_connected(ifaces_[0].cfg.subnet, 0);
}

FastPathStack::~FastPathStack() = default;

int FastPathStack::add_interface(InterfaceBackend& backend,
                                 const InterfaceConfig& cfg) {
  const int ifindex = static_cast<int>(ifaces_.size());
  Interface itf;
  itf.cfg = cfg;
  itf.backend = &backend;
  ifaces_.push_back(std::move(itf));
  backend.set_rx(
      [this, ifindex](EthernetFrame&& f) { rx(ifindex, std::move(f)); });
  backend.set_rx_train([this, ifindex](std::vector<EthernetFrame> fs) {
    rx_train(ifindex, std::move(fs));
  });
  if (cfg.subnet.prefix_len() > 0) {
    routes_.add_connected(cfg.subnet, ifindex);
  }
  return ifindex;
}

void FastPathStack::configure_loopback(std::uint32_t gso_bytes) {
  ifaces_[0].cfg.gso_bytes = gso_bytes;
}

int FastPathStack::ifindex_of(const std::string& name) const {
  for (std::size_t i = 0; i < ifaces_.size(); ++i) {
    if (ifaces_[i].cfg.name == name) return static_cast<int>(i);
  }
  return -1;
}

Ipv4Address FastPathStack::iface_ip(int ifindex) const {
  return ifaces_.at(static_cast<std::size_t>(ifindex)).cfg.ip;
}

MacAddress FastPathStack::iface_mac(int ifindex) const {
  return ifaces_.at(static_cast<std::size_t>(ifindex)).cfg.mac;
}

void FastPathStack::set_iface_gso(int ifindex, std::uint32_t gso_bytes) {
  ifaces_.at(static_cast<std::size_t>(ifindex)).cfg.gso_bytes = gso_bytes;
}

void FastPathStack::seed_neighbor(int ifindex, Ipv4Address ip,
                                  MacAddress mac) {
  ifaces_.at(static_cast<std::size_t>(ifindex))
      .neighbors.insert(ip, mac, engine_->now());
}

void FastPathStack::detach_interface(int ifindex) {
  Interface& itf = ifaces_.at(static_cast<std::size_t>(ifindex));
  if (itf.backend != nullptr) itf.backend->set_rx({});
  itf.backend = nullptr;
  for (const auto& [next_hop, pkts] : itf.arp_pending) {
    dropped_ += pkts.size();
  }
  itf.arp_pending.clear();
}

std::uint32_t FastPathStack::egress_gso(Ipv4Address dst) const {
  if (is_local_address(dst)) return ifaces_[0].cfg.gso_bytes;
  const auto r = routes_.lookup(dst);
  if (!r || r->ifindex < 0 ||
      static_cast<std::size_t>(r->ifindex) >= ifaces_.size()) {
    return 1448;
  }
  return ifaces_[static_cast<std::size_t>(r->ifindex)].cfg.gso_bytes;
}

bool FastPathStack::is_local_address(Ipv4Address a) const {
  if (a.is_loopback()) return true;
  for (const Interface& i : ifaces_) {
    if (!i.cfg.ip.is_unspecified() && i.cfg.ip == a) return true;
  }
  return false;
}

// ---- RX path ----------------------------------------------------------------

void FastPathStack::rx(int ifindex, EthernetFrame&& frame) {
  const Interface& itf = ifaces_.at(static_cast<std::size_t>(ifindex));
  if (capture_ != nullptr) capture_->record(engine_->now(), frame);
  // Same MAC filter as FullStack: not-for-us frames cost one lookup.
  if (!frame.dst.is_broadcast() && !frame.dst.is_multicast() &&
      frame.dst != itf.cfg.mac) {
    softirq_run(costs_->arp_hit, [this] { ++dropped_; });
    return;
  }
  if (frame.ethertype == 0x0806) {
    softirq_run(costs_->arp_hit, [this, ifindex, f = std::move(frame)] {
      handle_arp(ifindex, f);
    });
    return;
  }
  if (frame.ethertype != 0x0800) {
    ++dropped_;
    return;
  }
  // The frame is this call's to consume: work on its packet in place.
  Packet& p = frame.packet;
  if (nestv_trace_enabled())
    std::fprintf(stderr, "[%s t=%llu] fast-rx if=%d %s\n", name_.c_str(),
                 (unsigned long long)engine_->now(), ifindex,
                 p.describe().c_str());
  p.ct_id = 0;
  p.ct_reply = false;
  // The whole pipeline is one fixed charge; demux + L4 run inside it.
  softirq_run(costs_->fastpath_rx_pkt, [this, pkt = std::move(p)]() mutable {
    rx_demux(std::move(pkt));
  });
}

void FastPathStack::rx_train(int ifindex, std::vector<EthernetFrame> frames) {
  if (frames.size() == 1) {
    rx(ifindex, std::move(frames[0]));
    return;
  }
  const Interface& itf = ifaces_.at(static_cast<std::size_t>(ifindex));
  // Pool the whole train into one softirq item: a k-frame burst costs one
  // event carrying k fused per-packet charges, and the k demux passes run
  // back-to-back inside it (the fast path's NAPI analogue).
  sim::Duration carry = 0;
  std::vector<Packet> batch;
  const auto flush = [this, &carry, &batch] {
    if (carry == 0 && batch.empty()) return;
    softirq_run(carry, [this, b = std::move(batch)]() mutable {
      for (Packet& p : b) rx_demux(std::move(p));
    });
    carry = 0;
    batch.clear();
  };
  for (EthernetFrame& frame : frames) {
    if (capture_ != nullptr) capture_->record(engine_->now(), frame);
    if (!frame.dst.is_broadcast() && !frame.dst.is_multicast() &&
        frame.dst != itf.cfg.mac) {
      carry += costs_->arp_hit;
      ++dropped_;
      continue;
    }
    if (frame.ethertype == 0x0806) {
      // ARP keeps FIFO position relative to the batch around it.
      flush();
      softirq_run(costs_->arp_hit, [this, ifindex, f = std::move(frame)] {
        handle_arp(ifindex, f);
      });
      continue;
    }
    if (frame.ethertype != 0x0800) {
      ++dropped_;
      continue;
    }
    Packet& p = frame.packet;
    if (nestv_trace_enabled())
      std::fprintf(stderr, "[%s t=%llu] fast-rx if=%d %s\n", name_.c_str(),
                   (unsigned long long)engine_->now(), ifindex,
                   p.describe().c_str());
    p.ct_id = 0;
    p.ct_reply = false;
    carry += costs_->fastpath_rx_pkt;
    batch.push_back(std::move(p));
  }
  flush();
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
  Interface& itf = ifaces_.at(static_cast<std::size_t>(out_ifindex));
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
  const auto route = routes_.lookup(p.dst_ip);
  const Ipv4Address next_hop = route ? route->next_hop : p.dst_ip;

  const auto mac = itf.neighbors.lookup(next_hop, engine_->now());
  if (!mac) {
    auto& pending = itf.arp_pending[next_hop];
    pending.push_back(std::move(p));
    if (pending.size() == 1) send_arp_request(out_ifindex, next_hop);
    return;
  }
  EthernetFrame f;
  f.src = itf.cfg.mac;
  f.dst = *mac;
  f.ethertype = 0x0800;
  f.packet = std::move(p);
  if (capture_ != nullptr) capture_->record(engine_->now(), f);
  itf.backend->xmit(std::move(f));
}

void FastPathStack::send_arp_request(int ifindex, Ipv4Address target) {
  Interface& itf = ifaces_.at(static_cast<std::size_t>(ifindex));
  ++arp_tx_;
  EthernetFrame f;
  f.src = itf.cfg.mac;
  f.dst = MacAddress::broadcast();
  f.ethertype = 0x0806;
  f.arp_is_request = true;
  f.arp_sender_ip = itf.cfg.ip;
  f.arp_sender_mac = itf.cfg.mac;
  f.arp_target_ip = target;
  itf.backend->xmit(std::move(f));
}

void FastPathStack::handle_arp(int ifindex, const EthernetFrame& frame) {
  Interface& itf = ifaces_.at(static_cast<std::size_t>(ifindex));
  itf.neighbors.insert(frame.arp_sender_ip, frame.arp_sender_mac,
                       engine_->now());

  if (frame.arp_is_request && frame.arp_target_ip == itf.cfg.ip &&
      itf.backend != nullptr) {
    EthernetFrame reply;
    reply.src = itf.cfg.mac;
    reply.dst = frame.arp_sender_mac;
    reply.ethertype = 0x0806;
    reply.arp_is_request = false;
    reply.arp_sender_ip = itf.cfg.ip;
    reply.arp_sender_mac = itf.cfg.mac;
    reply.arp_target_ip = frame.arp_sender_ip;
    itf.backend->xmit(std::move(reply));
  }

  const auto pending = itf.arp_pending.find(frame.arp_sender_ip);
  if (pending != itf.arp_pending.end()) {
    std::vector<Packet> pkts = std::move(pending->second);
    itf.arp_pending.erase(pending);
    for (Packet& p : pkts) {
      arp_resolve_and_send(std::move(p), ifindex);
    }
  }
}

}  // namespace nestv::net

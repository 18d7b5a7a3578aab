#include "net/stack_backend.hpp"

#include <stdexcept>
#include <utility>

#include "net/faststack.hpp"
#include "net/pcap.hpp"
#include "net/stack.hpp"
#include "net/tcp.hpp"
#include "net/trace.hpp"

namespace nestv::net {

const char* to_string(StackKind kind) {
  switch (kind) {
    case StackKind::kFullStack: return "fullstack";
    case StackKind::kFastPath: return "fastpath";
    case StackKind::kServiceHosted: return "service-hosted";
  }
  return "?";
}

const char* to_string(StackMode mode) {
  switch (mode) {
    case StackMode::kFull: return "full";
    case StackMode::kFastPath: return "fastpath";
  }
  return "?";
}

// ---- TcpSocket ------------------------------------------------------------

void TcpSocket::send(std::uint32_t bytes, sim::InlineTask&& on_queued) {
  conn_->app_send(bytes, std::move(on_queued));
}
void TcpSocket::set_on_writable(sim::InlineHandler<> cb) {
  conn_->set_on_writable(std::move(cb));
}
std::uint32_t TcpSocket::buffered() const { return conn_->buffered(); }
std::uint16_t TcpSocket::local_port() const { return conn_->local_port(); }
std::uint16_t TcpSocket::remote_port() const { return conn_->remote_port(); }
std::uint32_t TcpSocket::congestion_window() const {
  return conn_->congestion_window();
}
double TcpSocket::srtt_ns() const { return conn_->srtt_ns(); }
void TcpSocket::set_on_receive(sim::InlineHandler<std::uint32_t> cb) {
  conn_->set_on_receive(std::move(cb));
}
void TcpSocket::set_on_connected(sim::InlineHandler<> cb) {
  conn_->set_on_connected(std::move(cb));
}
void TcpSocket::set_on_closed(sim::InlineHandler<> cb) {
  conn_->set_on_closed(std::move(cb));
}
void TcpSocket::close() { conn_->close(); }
bool TcpSocket::established() const {
  return conn_->state() == TcpConnection::State::kEstablished;
}
std::uint64_t TcpSocket::bytes_received() const {
  return conn_->bytes_received();
}
std::uint64_t TcpSocket::bytes_sent() const { return conn_->bytes_sent(); }
std::uint64_t TcpSocket::retransmits() const { return conn_->retransmits(); }

// ---- StackBackend ---------------------------------------------------------

StackBackend::StackBackend(sim::Engine& engine, std::string name,
                           const sim::CostModel& costs,
                           sim::SerialResource* softirq)
    : engine_(&engine),
      name_(std::move(name)),
      costs_(&costs),
      softirq_(softirq) {
  // Interface 0 is always loopback.
  Interface lo;
  lo.cfg.name = "lo";
  lo.cfg.ip = Ipv4Address(127, 0, 0, 1);
  lo.cfg.subnet = Ipv4Cidr(Ipv4Address(127, 0, 0, 0), 8);
  lo.cfg.mtu = 65536;
  lo.cfg.gso_bytes = costs.gso_loopback;
  ifaces_.push_back(std::move(lo));
  routes_.add_connected(ifaces_[0].cfg.subnet, 0);
}

StackBackend::~StackBackend() = default;

// ---- interface table ---------------------------------------------------------

int StackBackend::add_interface(InterfaceBackend& backend,
                                const InterfaceConfig& cfg) {
  const int ifindex = static_cast<int>(ifaces_.size());
  Interface itf;
  itf.cfg = cfg;
  itf.backend = &backend;
  ifaces_.push_back(std::move(itf));
  backend.set_rx(
      [this, ifindex](EthernetFrame&& f) { rx(ifindex, std::move(f)); });
  if (cfg.subnet.prefix_len() > 0) {
    routes_.add_connected(cfg.subnet, ifindex);
  }
  return ifindex;
}

int StackBackend::ifindex_of(const std::string& name) const {
  for (std::size_t i = 0; i < ifaces_.size(); ++i) {
    if (ifaces_[i].cfg.name == name) return static_cast<int>(i);
  }
  return -1;
}

void StackBackend::detach_interface(int ifindex) {
  Interface& itf = iface(ifindex);
  if (itf.backend != nullptr) itf.backend->set_rx({});
  itf.backend = nullptr;
  // Parked packets die with the netdev.
  for (const auto& [next_hop, pkts] : itf.arp_pending) {
    dropped_ += pkts.size();
  }
  itf.arp_pending.clear();
}

std::uint32_t StackBackend::egress_gso(Ipv4Address dst) const {
  if (is_local_address(dst)) return ifaces_[0].cfg.gso_bytes;
  const auto r = routes_.lookup(dst);
  if (!r || r->ifindex < 0 ||
      static_cast<std::size_t>(r->ifindex) >= ifaces_.size()) {
    return 1448;
  }
  return ifaces_[static_cast<std::size_t>(r->ifindex)].cfg.gso_bytes;
}

// ---- L2 receive ----------------------------------------------------------------

void StackBackend::rx(int ifindex, EthernetFrame&& frame) {
  if (capture_ != nullptr) capture_->record(engine_->now(), frame);
  // MAC filter: frames not for us (Hostlo's reflect-to-all-queues shows
  // every endpoint every frame) cost a lookup and are dropped here.
  if (!frame.dst.is_broadcast() && !frame.dst.is_multicast() &&
      frame.dst != iface(ifindex).cfg.mac) {
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
  Packet& p = frame.packet;
  if (nestv_trace_enabled())
    std::fprintf(stderr, "[%s t=%llu] rx if=%d %s\n", name_.c_str(),
                 (unsigned long long)engine_->now(), ifindex,
                 p.describe().c_str());
  p.ct_id = 0;  // conntrack attachment is per-stack
  p.ct_reply = false;
  l3_rx(ifindex, std::move(p));
}

// ---- ARP and L2 transmit -------------------------------------------------------

std::optional<MacAddress> StackBackend::resolve_or_park(Packet& p,
                                                        int out_ifindex) {
  if (nestv_trace_enabled())
    std::fprintf(stderr, "[%s t=%llu] arp_resolve %s\n", name_.c_str(),
                 (unsigned long long)engine_->now(), p.describe().c_str());
  Interface& itf = iface(out_ifindex);
  const auto route = routes_.lookup(p.dst_ip);
  const Ipv4Address next_hop = route ? route->next_hop : p.dst_ip;
  const auto mac = itf.neighbors.lookup(next_hop, engine_->now());
  if (!mac) {
    auto& pending = itf.arp_pending[next_hop];
    pending.push_back(std::move(p));
    // One outstanding request per next-hop; later packets just park.
    if (pending.size() == 1) send_arp_request(out_ifindex, next_hop);
  }
  return mac;
}

void StackBackend::xmit_packet(int out_ifindex, MacAddress dst, Packet&& p) {
  EthernetFrame f;
  f.src = iface(out_ifindex).cfg.mac;
  f.dst = dst;
  f.ethertype = 0x0800;
  f.packet = std::move(p);
  xmit_frame(out_ifindex, std::move(f));
}

void StackBackend::xmit_frame(int out_ifindex, EthernetFrame&& frame) {
  Interface& itf = iface(out_ifindex);
  if (itf.backend == nullptr) {
    // Hot-unplugged (QMP device_del) while the packet was in flight: the
    // netdev is gone, like a carrier-less link.
    ++dropped_;
    return;
  }
  if (capture_ != nullptr) capture_->record(engine_->now(), frame);
  itf.backend->xmit(std::move(frame));
}

void StackBackend::send_arp_request(int ifindex, Ipv4Address target) {
  Interface& itf = iface(ifindex);
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

void StackBackend::handle_arp(int ifindex, const EthernetFrame& frame) {
  Interface& itf = iface(ifindex);
  // Learn the sender either way.
  itf.neighbors.insert(frame.arp_sender_ip, frame.arp_sender_mac,
                       engine_->now());

  // A request that outlived a hot-unplug finds no netdev to answer on.
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

  // Flush packets parked on this resolution through the stack's own send
  // path (FullStack fragments, FastPathStack drops what exceeds the MTU).
  const auto pending = itf.arp_pending.find(frame.arp_sender_ip);
  if (pending != itf.arp_pending.end()) {
    std::vector<Packet> pkts = std::move(pending->second);
    itf.arp_pending.erase(pending);
    for (Packet& p : pkts) {
      arp_resolve_and_send(std::move(p), ifindex);
    }
  }
}

// ---- optional-capability defaults ------------------------------------------

namespace {
[[noreturn]] void no_capability(const StackBackend& stack, const char* what) {
  throw std::logic_error("stack '" + stack.name() + "' (" +
                         to_string(stack.kind()) + ") has no " + what);
}
}  // namespace

Netfilter& StackBackend::netfilter() { no_capability(*this, "netfilter"); }
const Netfilter& StackBackend::netfilter() const {
  no_capability(*this, "netfilter");
}
void StackBackend::set_forwarding(bool) {
  // Silently ignoring would drop traffic a consumer expects forwarded.
  no_capability(*this, "forwarding");
}
void StackBackend::set_forced_resegment(std::uint32_t) {
  no_capability(*this, "forced resegmentation");
}
void StackBackend::set_forward_jitter(double, std::uint64_t) {
  no_capability(*this, "forward jitter");
}
void StackBackend::set_gro(bool) {
  // GRO is an RX optimization invisible to applications; a backend without
  // it treats enable/disable as a no-op.
}
void StackBackend::set_flowcache(bool) {}
flowcache::FlowCache& StackBackend::flow_cache() {
  no_capability(*this, "flow cache");
}
const flowcache::FlowCache& StackBackend::flow_cache() const {
  no_capability(*this, "flow cache");
}
std::size_t StackBackend::conntrack_gc(sim::Duration) { return 0; }
void StackBackend::ping(Ipv4Address, std::uint32_t,
                        std::function<void(sim::Duration)>) {
  no_capability(*this, "ICMP echo");
}
void StackBackend::set_icmp_error_handler(
    std::function<void(const Packet&)>) {}

// ---- softirq / app-resource charging ---------------------------------------

void StackBackend::softirq_run(sim::Duration work, sim::InlineTask&& then) {
  resource_run(softirq_, sim::CpuCategory::kSoft, work, std::move(then));
}

void StackBackend::resource_run(sim::SerialResource* res,
                                sim::CpuCategory category, sim::Duration work,
                                sim::InlineTask&& then) {
  if (res == nullptr) {
    if (work == 0) {
      then();
    } else {
      engine_->schedule_in(work, std::move(then));
    }
    return;
  }
  res->submit_as(category, work, std::move(then));
}

// ---- L4 demux ---------------------------------------------------------------

void StackBackend::udp_unbound(const Packet&) {}

void StackBackend::deliver_udp(Packet&& p) {
  const auto it = udp_binds_.find(p.dst_port);
  if (it == udp_binds_.end()) {
    ++dropped_;
    udp_unbound(p);
    return;
  }
  UdpBinding& bind = it->second;
  // Sole consumer from here on: the inner frame (if any) moves along.
  UdpDelivery d{p.payload_bytes, p.src_ip, p.src_port, p.sent_at,
                std::move(p.inner)};
  if (bind.kernel) {
    // In-kernel consumer (VXLAN VTEP): no wakeup, no syscall.
    bind.handler(d);
    return;
  }
  const auto& c = *costs_;
  const auto app_cost = c.syscall_pkt + c.l4_segment +
                        static_cast<sim::Duration>(
                            c.copy_byte * static_cast<double>(p.payload_bytes));
  // Wakeup latency, then the recvfrom() on the app's CPU.
  engine_->schedule_in(c.rx_wakeup, [this, &bind, d = std::move(d),
                                      app_cost]() mutable {
    if (bind.app != nullptr) {
      resource_run(bind.app, sim::CpuCategory::kSys, app_cost,
                   [&bind, d = std::move(d)]() mutable { bind.handler(d); });
    } else {
      bind.handler(d);
    }
  });
}

void StackBackend::deliver_tcp(Packet&& p) {
  if (nestv_trace_enabled())
    std::fprintf(stderr, "[%s t=%llu] deliver_tcp %s seq=%u ack=%u\n", name_.c_str(),
                 (unsigned long long)engine_->now(), p.describe().c_str(), p.tcp_seq, p.tcp_ack);
  const TcpKey key{p.dst_ip, p.dst_port, p.src_ip, p.src_port};
  const auto it = tcp_conns_.find(key);
  if (it != tcp_conns_.end()) {
    TcpConnection* conn = it->second.get();
    softirq_run(costs_->l4_segment,
                [conn, pkt = std::move(p)] { conn->on_segment(pkt); });
    return;
  }
  const auto lit = tcp_listeners_.find(p.dst_port);
  if (lit != tcp_listeners_.end() && p.tcp_flags.syn && !p.tcp_flags.ack) {
    TcpConnection& conn = create_connection(key, lit->second.app);
    // Install the app's handlers (accept callback) before the handshake
    // completes so no delivery is missed.
    lit->second.on_accept(TcpSocket(&conn));
    softirq_run(costs_->l4_segment,
                [&conn, pkt = std::move(p)] { conn.open_passive(pkt); });
    return;
  }
  ++dropped_;
}

// ---- TX entry ---------------------------------------------------------------

void StackBackend::l4_emit(sim::Duration l4_work, Packet&& p) {
  softirq_run(l4_work, [this, pkt = std::move(p)]() mutable {
    emit_packet(std::move(pkt));
  });
}

// ---- UDP API ----------------------------------------------------------------

void StackBackend::udp_bind(std::uint16_t port, sim::SerialResource* app,
                            UdpHandler handler) {
  udp_binds_[port] = UdpBinding{app, std::move(handler), false};
}

void StackBackend::udp_bind_kernel(std::uint16_t port, UdpHandler handler) {
  udp_binds_[port] = UdpBinding{nullptr, std::move(handler), true};
}

void StackBackend::udp_unbind(std::uint16_t port) { udp_binds_.erase(port); }

void StackBackend::udp_send(Ipv4Address src_ip, std::uint16_t src_port,
                            Ipv4Address dst_ip, std::uint16_t dst_port,
                            std::uint32_t bytes, sim::SerialResource* app,
                            sim::InlineTask&& on_sent) {
  const auto& c = *costs_;
  const auto app_cost =
      c.syscall_pkt +
      static_cast<sim::Duration>(c.copy_byte * static_cast<double>(bytes));
  auto emit = [this, src_ip, src_port, dst_ip, dst_port, bytes] {
    Packet p;
    p.src_ip = src_ip;
    p.dst_ip = dst_ip;
    p.proto = L4Proto::kUdp;
    p.src_port = src_port;
    p.dst_port = dst_port;
    p.payload_bytes = bytes;
    p.ip_id = next_ip_id_++;
    p.packet_id = next_packet_id();
    p.sent_at = engine_->now();
    l4_emit(costs_->l4_segment, std::move(p));
  };
  // `on_sent` rides as its own zero-cost FIFO item right behind the emit:
  // capturing an InlineTask inside the emit closure would overflow its
  // inline buffer (a task cannot nest inside another task's storage) and
  // put an allocation back on the per-datagram path.
  if (app != nullptr) {
    resource_run(app, sim::CpuCategory::kSys, app_cost, std::move(emit));
    if (on_sent) {
      resource_run(app, sim::CpuCategory::kSys, 0, std::move(on_sent));
    }
  } else {
    emit();
    if (on_sent) on_sent();
  }
}

// ---- TCP API ----------------------------------------------------------------

void StackBackend::tcp_listen(std::uint16_t port, sim::SerialResource* app,
                              AcceptHandler on_accept) {
  tcp_listeners_[port] = TcpListener{app, std::move(on_accept)};
}

TcpSocket StackBackend::tcp_connect(Ipv4Address src_ip, Ipv4Address dst_ip,
                                    std::uint16_t dst_port,
                                    sim::SerialResource* app) {
  const std::uint16_t sport = next_ephemeral_port_++;
  const TcpKey key{src_ip, sport, dst_ip, dst_port};
  TcpConnection& conn = create_connection(key, app);
  conn.open_active();
  return TcpSocket(&conn);
}

TcpConnection& StackBackend::create_connection(const TcpKey& key,
                                               sim::SerialResource* app) {
  auto conn = std::make_unique<TcpConnection>(
      *this, key.local_ip, key.local_port, key.remote_ip, key.remote_port,
      app);
  TcpConnection& ref = *conn;
  tcp_conns_[key] = std::move(conn);
  return ref;
}

// ---- factory ----------------------------------------------------------------

std::unique_ptr<StackBackend> make_stack(StackMode mode, sim::Engine& engine,
                                         std::string name,
                                         const sim::CostModel& costs,
                                         sim::SerialResource* softirq) {
  if (mode == StackMode::kFastPath) {
    return std::make_unique<FastPathStack>(engine, std::move(name), costs,
                                           softirq);
  }
  return std::make_unique<FullStack>(engine, std::move(name), costs, softirq);
}

}  // namespace nestv::net

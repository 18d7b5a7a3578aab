// StackBackend: the pluggable seam between guests and their network stack.
//
// Captures the NetworkStack contract — interface attach, the UDP/TCP socket
// API, rx ingress, softirq/app resource binding and the optional
// netfilter/flowcache hooks — so alternative stacks can slot in behind one
// interface (NetKernel's "network stack as part of the virtualized
// infrastructure" argument).  Three backends exist:
//   * FullStack      — the original stack (net/stack.hpp): netfilter,
//                      forwarding, GRO/reassembly, flowcache, ICMP.
//   * FastPathStack  — compact stream-oriented stack, fixed pipeline, no
//                      netfilter traversal (net/faststack.hpp).
//   * StackService   — FullStack instances hosted on one shared host-side
//                      worker for N guests (net/stack_service.hpp).
//
// Two layers live here as shared non-virtual code, so every backend
// behaves identically on them by construction:
//   * the link layer — the interface table (loopback at ifindex 0), the
//     routing table, ARP (requests, replies, neighbour learning, packets
//     parked per next hop), the L2 receive head (capture, MAC filter,
//     ARP dispatch, non-IPv4 drop) and the resolved-frame transmit;
//   * the socket layer — UDP/TCP tables, syscall charging, L4 demux and
//     TCP connection ownership: every backend speaks exactly the same
//     application ABI, and the differential fuzz oracle leans on that to
//     compare backends end-to-end.
// A backend supplies only its L3/L4 pipeline: l3_rx behind the L2 head,
// emit_packet, and arp_resolve_and_send (its MTU policy in front of the
// shared neighbour resolution).
//
// CPU model (unchanged from the pre-seam stack): protocol work runs on the
// backend's softirq SerialResource charged as kSoft; socket syscall work is
// charged to the calling application's resource as kSys.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "net/backend.hpp"
#include "net/neighbor.hpp"
#include "net/packet.hpp"
#include "net/route.hpp"
#include "sim/cost_model.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/inline_task.hpp"
#include "sim/resource.hpp"

namespace nestv::net {

class Netfilter;
class PcapWriter;
class TcpConnection;
class StackBackend;
namespace flowcache {
class FlowCache;
}  // namespace flowcache
namespace oncache {
class OnCache;
}  // namespace oncache

/// Which concrete stack implementation sits behind a StackBackend*.
enum class StackKind : std::uint8_t {
  kFullStack,      ///< the original full-featured stack (net/stack.hpp)
  kFastPath,       ///< compact stream-oriented stack (net/faststack.hpp)
  kServiceHosted,  ///< FullStack hosted by a shared StackService worker
};

/// Requested stack flavour when constructing a guest/pod namespace.
enum class StackMode : std::uint8_t {
  kFull,      ///< FullStack owned by the guest (default; pre-seam behavior)
  kFastPath,  ///< FastPathStack owned by the guest
};

[[nodiscard]] const char* to_string(StackKind kind);
[[nodiscard]] const char* to_string(StackMode mode);

/// Application-facing handle to one TCP connection.
class TcpSocket {
 public:
  /// Queues `bytes` for transmission.  `app` is charged the syscall and
  /// user->kernel copy; segmentation happens asynchronously in softirq.
  /// `on_queued` (optional) fires once the bytes entered the send buffer —
  /// i.e. when the (blocking) send() syscall would have returned.
  void send(std::uint32_t bytes, sim::InlineTask&& on_queued = {});

  /// Called with the byte count of each chunk delivered to the app.
  void set_on_receive(sim::InlineHandler<std::uint32_t> cb);
  /// Called once the three-way handshake completes (client side).
  void set_on_connected(sim::InlineHandler<> cb);
  void set_on_closed(sim::InlineHandler<> cb);
  /// Fires whenever the send buffer drains below one window.
  void set_on_writable(sim::InlineHandler<> cb);

  void close();

  [[nodiscard]] bool established() const;
  [[nodiscard]] std::uint64_t bytes_received() const;
  [[nodiscard]] std::uint64_t bytes_sent() const;
  [[nodiscard]] std::uint64_t retransmits() const;
  [[nodiscard]] std::uint32_t buffered() const;
  [[nodiscard]] std::uint16_t local_port() const;
  [[nodiscard]] std::uint16_t remote_port() const;
  /// Effective congestion window (== flow-control window when congestion
  /// control is disabled in the cost model).
  [[nodiscard]] std::uint32_t congestion_window() const;
  /// Smoothed RTT estimate in ns (0 until the first sample; congestion
  /// control must be enabled).
  [[nodiscard]] double srtt_ns() const;

 private:
  friend class StackBackend;
  friend class TcpConnection;
  explicit TcpSocket(TcpConnection* conn) : conn_(conn) {}
  TcpConnection* conn_;
};

struct InterfaceConfig {
  std::string name;
  MacAddress mac;
  Ipv4Address ip;
  Ipv4Cidr subnet;
  std::uint32_t mtu = 1500;
  /// Effective TCP segment size when transmitting out this interface
  /// (models TSO/GSO; see CostModel's gso_* discussion).
  std::uint32_t gso_bytes = 1448;
};

class StackBackend {
 public:
  StackBackend(sim::Engine& engine, std::string name,
               const sim::CostModel& costs, sim::SerialResource* softirq);
  virtual ~StackBackend();

  StackBackend(const StackBackend&) = delete;
  StackBackend& operator=(const StackBackend&) = delete;

  [[nodiscard]] virtual StackKind kind() const = 0;

  // ---- configuration ----------------------------------------------------
  /// Attaches an interface; the stack installs itself as the device's RX
  /// handler and adds a connected route for the subnet.  Returns ifindex.
  int add_interface(InterfaceBackend& backend, const InterfaceConfig& cfg);

  [[nodiscard]] RoutingTable& routes() { return routes_; }
  [[nodiscard]] int ifindex_of(const std::string& name) const;
  [[nodiscard]] Ipv4Address iface_ip(int ifindex) const {
    return iface(ifindex).cfg.ip;
  }
  [[nodiscard]] MacAddress iface_mac(int ifindex) const {
    return iface(ifindex).cfg.mac;
  }
  void set_iface_gso(int ifindex, std::uint32_t gso_bytes) {
    iface(ifindex).cfg.gso_bytes = gso_bytes;
  }
  /// Pre-seeds an ARP entry (tests & deterministic startup).
  void seed_neighbor(int ifindex, Ipv4Address ip, MacAddress mac) {
    iface(ifindex).neighbors.insert(ip, mac, engine_->now());
  }
  /// NIC hot-unplug (QMP device_del): detaches the backend so the ifindex
  /// goes dead — packets parked on ARP drop here, queued ones when they
  /// reach the dead device.  Virtual so a stack can also flush the caches
  /// keyed on the ifindex; an override must delegate here.
  virtual void detach_interface(int ifindex);
  /// Interfaces ever attached, loopback included (dead ifindexes count).
  [[nodiscard]] std::size_t interface_count() const { return ifaces_.size(); }

  // ---- optional capabilities --------------------------------------------
  // Backends without a feature throw std::logic_error from accessors whose
  // result the caller needs (asking a FastPathStack for netfilter is a
  // wiring bug), and accept mutators as no-ops where ignoring is sound
  // (GRO, flowcache and ICMP-error delivery are transparent to
  // applications).  Capability queries let consumers branch.
  [[nodiscard]] virtual bool has_netfilter() const { return false; }
  [[nodiscard]] virtual Netfilter& netfilter();
  [[nodiscard]] virtual const Netfilter& netfilter() const;
  virtual void set_forwarding(bool on);
  virtual void set_forced_resegment(std::uint32_t bytes);
  virtual void set_forward_jitter(double sigma, std::uint64_t seed);
  virtual void set_gro(bool on);

  [[nodiscard]] virtual bool has_flowcache() const { return false; }
  virtual void set_flowcache(bool on);
  [[nodiscard]] virtual bool flowcache_enabled() const { return false; }
  [[nodiscard]] virtual flowcache::FlowCache& flow_cache();
  [[nodiscard]] virtual const flowcache::FlowCache& flow_cache() const;

  /// Overlay fast-path cache (net/oncache) for the overlay this stack's
  /// VTEP serves; non-owning, one per stack.  Every backend accepts the
  /// attachment (null guards only); recording and the ingress fast path
  /// live in FullStack, so a cache attached to another backend simply
  /// stays cold (the FastPathStack-hosted VTEP case).
  void attach_oncache(oncache::OnCache* cache) { oncache_ = cache; }
  /// Transmits a fully resolved frame out `out_ifindex` (capture tap
  /// included) — the last hop of every egress path: the ARP-resolved one,
  /// the flowcache and the oncache fast paths.  A frame for an unplugged
  /// interface drops.
  void xmit_frame(int out_ifindex, EthernetFrame&& frame);

  /// Conntrack garbage collection; returns reaped connections (0 when the
  /// backend keeps no conntrack).
  virtual std::size_t conntrack_gc(sim::Duration idle_timeout);

  /// Sends an echo request; `done` fires with the round-trip time when the
  /// reply arrives.  Unanswered pings simply never call back.
  virtual void ping(Ipv4Address dst, std::uint32_t payload_bytes,
                    std::function<void(sim::Duration rtt)> done);

  /// ICMP errors addressed to this stack (destination unreachable, time
  /// exceeded) are passed here; the packet carries icmp_type/icmp_code and
  /// the src_ip of the reporting hop.
  virtual void set_icmp_error_handler(
      std::function<void(const Packet&)> handler);
  [[nodiscard]] virtual std::uint64_t icmp_errors_sent() const { return 0; }

  // ---- capture / accessors ----------------------------------------------
  /// Attaches a pcap writer capturing every frame this stack receives or
  /// transmits on any interface (like `tcpdump -i any` in the namespace).
  /// The writer must outlive the stack or be detached with nullptr.
  void attach_capture(PcapWriter* writer) { capture_ = writer; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::Engine& engine() { return *engine_; }
  [[nodiscard]] const sim::CostModel& costs() const { return *costs_; }
  [[nodiscard]] sim::SerialResource* softirq() { return softirq_; }

  /// Runs `work` on `res` then `then` (SerialResource::submit_as).
  /// `res == nullptr` degrades to a pure delay, as the call sites did.
  void resource_run(sim::SerialResource* res, sim::CpuCategory category,
                    sim::Duration work, sim::InlineTask&& then);

  // ---- UDP ----------------------------------------------------------------
  struct UdpDelivery {
    std::uint32_t bytes = 0;
    Ipv4Address src_ip;
    std::uint16_t src_port = 0;
    sim::TimePoint sent_at = 0;  ///< sender's socket-exit timestamp
    /// Encapsulated inner frame (VXLAN), handed over from the datagram.
    std::unique_ptr<EthernetFrame> inner;
  };
  /// Handlers get a mutable delivery so a sole kernel consumer (the VXLAN
  /// VTEP) can steal the inner frame instead of deep-copying it; handlers
  /// that only read may take `const UdpDelivery&` as before.
  using UdpHandler = std::function<void(UdpDelivery&)>;

  /// Binds `port`; deliveries charge `app` (syscall+copy) before `handler`
  /// runs.  `app` may be null (no charge, immediate dispatch after wakeup).
  void udp_bind(std::uint16_t port, sim::SerialResource* app,
                UdpHandler handler);
  /// Kernel-consumer bind (VXLAN VTEP): the handler runs in softirq with no
  /// wakeup latency and no syscall charge.
  void udp_bind_kernel(std::uint16_t port, UdpHandler handler);
  void udp_unbind(std::uint16_t port);

  /// Sends one datagram.  Charges `app` for the syscall, then hands the
  /// packet to the stack.  `on_sent` (optional) fires when the packet has
  /// left the socket (used by closed-loop load generators).
  void udp_send(Ipv4Address src_ip, std::uint16_t src_port,
                Ipv4Address dst_ip, std::uint16_t dst_port,
                std::uint32_t bytes, sim::SerialResource* app,
                sim::InlineTask&& on_sent = {});

  // ---- TCP ----------------------------------------------------------------
  using AcceptHandler = std::function<void(TcpSocket)>;

  /// Listens on `port`; each accepted connection's app work charges `app`.
  void tcp_listen(std::uint16_t port, sim::SerialResource* app,
                  AcceptHandler on_accept);

  /// Opens a client connection.  The returned socket is valid for the
  /// stack's lifetime.
  TcpSocket tcp_connect(Ipv4Address src_ip, Ipv4Address dst_ip,
                        std::uint16_t dst_port, sim::SerialResource* app);

  // ---- datapath (called by backends / internals) -------------------------
  /// One frame from interface `ifindex`: the shared L2 head (capture, MAC
  /// filter, ARP, non-IPv4 drop), then the backend's l3_rx.
  void rx(int ifindex, EthernetFrame&& frame);

  /// L4 -> network: routes and transmits (plus OUTPUT/POSTROUTING on
  /// backends that run netfilter).  All processing charges softirq.
  virtual void emit_packet(Packet&& p) = 0;

  /// Charges `l4_work` to softirq, then emits `p` (used by TCP/UDP).
  void l4_emit(sim::Duration l4_work, Packet&& p);

  /// Effective TCP segment size towards `dst`: loopback GSO for local
  /// destinations, else the egress interface's GSO size.
  [[nodiscard]] std::uint32_t egress_gso(Ipv4Address dst) const;

  // ---- statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t packets_forwarded() const { return forwarded_; }
  [[nodiscard]] std::uint64_t packets_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t packets_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t arp_requests_sent() const { return arp_tx_; }
  [[nodiscard]] std::uint64_t reassembly_failures() const {
    return reassembly_failures_;
  }

  std::uint64_t next_packet_id() { return next_packet_id_++; }

 protected:
  friend class TcpConnection;

  struct Interface {
    InterfaceConfig cfg;
    InterfaceBackend* backend = nullptr;  ///< null for loopback / unplugged
    NeighborTable neighbors;
    /// Packets parked awaiting ARP resolution, keyed by next-hop.
    std::unordered_map<Ipv4Address, std::vector<Packet>> arp_pending;
  };

  [[nodiscard]] Interface& iface(int ifindex) {
    return ifaces_.at(static_cast<std::size_t>(ifindex));
  }
  [[nodiscard]] const Interface& iface(int ifindex) const {
    return ifaces_.at(static_cast<std::size_t>(ifindex));
  }
  /// Inline: every stack asks this per packet on its RX and TX paths.
  [[nodiscard]] bool is_local_address(Ipv4Address a) const {
    if (a.is_loopback()) return true;
    for (const Interface& i : ifaces_) {
      if (!i.cfg.ip.is_unspecified() && i.cfg.ip == a) return true;
    }
    return false;
  }

  /// The backend's IPv4 ingress behind the shared L2 head (`p.ct_id` is
  /// already reset).
  virtual void l3_rx(int ifindex, Packet&& p) = 0;

  /// The backend's L2 output for a routed packet: its MTU policy, then
  /// resolve_or_park + xmit_packet.  Packets parked on ARP re-enter here
  /// when the reply arrives.
  virtual void arp_resolve_and_send(Packet&& p, int out_ifindex) = 0;
  /// The next-hop MAC for `p` out `out_ifindex`.  On a neighbour miss `p`
  /// is parked (moved from) until the ARP reply — one outstanding request
  /// per next hop — and the result is empty.
  std::optional<MacAddress> resolve_or_park(Packet& p, int out_ifindex);
  /// Frames `p` to `dst` and hands it to xmit_frame.
  void xmit_packet(int out_ifindex, MacAddress dst, Packet&& p);
  void send_arp_request(int ifindex, Ipv4Address target);
  /// Learns the sender, answers a request for our address, and re-sends
  /// the packets parked on the sender through arp_resolve_and_send.
  void handle_arp(int ifindex, const EthernetFrame& frame);

  struct UdpBinding {
    sim::SerialResource* app = nullptr;
    UdpHandler handler;
    bool kernel = false;
  };

  struct TcpKey {
    Ipv4Address local_ip;
    std::uint16_t local_port;
    Ipv4Address remote_ip;
    std::uint16_t remote_port;
    friend bool operator<(const TcpKey& a, const TcpKey& b) {
      return std::tie(a.local_ip, a.local_port, a.remote_ip, a.remote_port) <
             std::tie(b.local_ip, b.local_port, b.remote_ip, b.remote_port);
    }
  };

  struct TcpListener {
    sim::SerialResource* app = nullptr;
    AcceptHandler on_accept;
  };

  /// Runs `work` on softirq (kSoft) then `then`.  Virtual so a
  /// service-hosted stack can attribute the work to its guest's account
  /// before it lands on the shared worker (NetKernel-style per-tenant CPU
  /// accounting); the override must delegate here.
  virtual void softirq_run(sim::Duration work, sim::InlineTask&& then);

  /// L4 demux into the shared socket tables (same for every backend; the
  /// caller has already decided the packet is locally destined and paid
  /// its pipeline's RX costs).
  void deliver_udp(Packet&& p);
  void deliver_tcp(Packet&& p);

  /// Hook for datagrams arriving on an unbound port (after the drop is
  /// counted); FullStack answers with ICMP port-unreachable, other
  /// backends stay silent.
  virtual void udp_unbound(const Packet& p);

  TcpConnection& create_connection(const TcpKey& key,
                                   sim::SerialResource* app);

  /// Lets derived backends mint application handles (TcpSocket's
  /// constructor is private; friendship does not inherit).
  static TcpSocket make_socket(TcpConnection* conn) {
    return TcpSocket(conn);
  }

  sim::Engine* engine_;
  std::string name_;
  const sim::CostModel* costs_;
  sim::SerialResource* softirq_;

  std::map<std::uint16_t, UdpBinding> udp_binds_;
  std::map<std::uint16_t, TcpListener> tcp_listeners_;
  std::map<TcpKey, std::unique_ptr<TcpConnection>> tcp_conns_;
  std::uint16_t next_ephemeral_port_ = 40000;

  std::vector<Interface> ifaces_;  ///< [0] is loopback
  RoutingTable routes_;

  PcapWriter* capture_ = nullptr;
  oncache::OnCache* oncache_ = nullptr;

  std::uint64_t forwarded_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t arp_tx_ = 0;
  std::uint64_t next_packet_id_ = 1;
  std::uint16_t next_ip_id_ = 1;
  std::uint64_t reassembly_failures_ = 0;

};

/// Constructs a self-contained backend.  Service-hosted stacks are minted
/// by their StackService (StackService::attach_guest), which shares its
/// worker between them.
std::unique_ptr<StackBackend> make_stack(StackMode mode, sim::Engine& engine,
                                         std::string name,
                                         const sim::CostModel& costs,
                                         sim::SerialResource* softirq);

}  // namespace nestv::net

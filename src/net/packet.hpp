// Packet and frame value types moved through the simulated datapath.
//
// Headers are modeled as structured fields (sizes are accounted exactly;
// payload bytes are carried as a length, not a buffer).  net/wire.hpp can
// serialize these structures to real octets with valid checksums for tests
// and for the VXLAN encapsulation path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "net/address.hpp"
#include "sim/time.hpp"

namespace nestv::net {

enum class L4Proto : std::uint8_t {
  kUdp = 17,
  kTcp = 6,
  kIcmp = 1,
};

[[nodiscard]] const char* to_string(L4Proto p);

/// TCP flag bits (subset used by the simplified TCP implementation).
struct TcpFlags {
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  bool psh = false;

  [[nodiscard]] std::string to_string() const;
  friend bool operator==(const TcpFlags&, const TcpFlags&) = default;
};

constexpr std::uint32_t kEthernetHeaderBytes = 14;
constexpr std::uint32_t kIpv4HeaderBytes = 20;
constexpr std::uint32_t kUdpHeaderBytes = 8;
constexpr std::uint32_t kTcpHeaderBytes = 20;

/// Every header field of a Packet and nothing that owns memory, so it is
/// trivially copyable: a Packet's move is one block copy of this base plus
/// the hand-off of `inner`.  Fields are ordered by alignment (8, 4, 2 and
/// 1 B), so the 71 bytes of fields and `reserved` fill 72 with no padding.
struct PacketHeader {
  /// Monotonic id for tracing/debugging, assigned by the sender's stack.
  std::uint64_t packet_id = 0;
  /// Conntrack attachment, emulating skb->_nfct: valid only within one
  /// stack's hook traversal; reset by every stack on packet entry.
  std::uint64_t ct_id = 0;
  /// Simulated instant the packet left the sending socket, for latency
  /// bookkeeping (the DES clock stands in for the paper's cross-VM TSC).
  sim::TimePoint sent_at = 0;

  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  // TCP-only fields.
  std::uint32_t tcp_seq = 0;
  std::uint32_t tcp_ack = 0;
  std::uint32_t tcp_window = 0;
  /// L4 payload length in bytes (the bytes themselves are not simulated).
  std::uint32_t payload_bytes = 0;

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t ip_id = 0;
  /// IPv4 fragmentation (UDP datagrams larger than the egress MTU).
  std::uint16_t frag_offset = 0;  ///< payload byte offset of this fragment
  // ICMP-only fields.
  std::uint16_t icmp_id = 0;
  std::uint16_t icmp_seq = 0;

  L4Proto proto = L4Proto::kUdp;
  std::uint8_t ttl = 64;
  bool frag_more = false;      ///< MF bit
  std::uint8_t icmp_type = 0;  ///< 8=echo request, 0=echo reply, 3=unreach,
                               ///< 11=time exceeded
  std::uint8_t icmp_code = 0;
  /// Direction of this packet w.r.t. its tracked connection.
  bool ct_reply = false;
  TcpFlags tcp_flags;  ///< TCP only
  /// Fills the last byte.  A base class's tail padding may hold a derived
  /// class's members, so without it the compiler copies this base as 71
  /// bytes: an odd overlapping tail store that the next copy's 16-byte
  /// load cannot forward from.  With it, a copy is whole 8/16-byte words.
  std::uint8_t reserved = 0;
};

static_assert(std::is_trivially_copyable_v<PacketHeader>,
              "a Packet move must stay a block copy plus one pointer");

/// An IPv4 packet with one L4 header.  Copyable (deep-copies any
/// encapsulated frame); Hostlo's reflect-to-all-queues duplicates frames,
/// so copies must be genuine duplicates.  Heap-allocated packets recycle
/// through the per-thread PacketPool (net/packet_pool.hpp).
struct Packet : PacketHeader {
  /// VXLAN: the encapsulated inner frame, if any.
  std::unique_ptr<struct EthernetFrame> inner;

  Packet() = default;
  Packet(const Packet& other);
  Packet& operator=(const Packet& other);
  Packet(Packet&&) noexcept = default;
  Packet& operator=(Packet&&) noexcept = default;
  // Defined inline at the bottom of this header (after EthernetFrame is
  // complete): the dtor runs millions of times per simulated second and
  // must not be an out-of-line call just to test a null unique_ptr.
  ~Packet();

  static void* operator new(std::size_t bytes);
  static void operator delete(void* p, std::size_t bytes) noexcept;
  static void operator delete(void* p) noexcept;

  [[nodiscard]] std::uint32_t l4_header_bytes() const;
  /// Total IP datagram length (IP header + L4 header + payload + inner).
  [[nodiscard]] std::uint32_t ip_total_bytes() const;
  [[nodiscard]] std::string describe() const;
};

/// Ethernet frame carrying one IPv4 packet or an ARP message.  Copies are
/// deep (the Packet may carry an encapsulated inner frame) and counted by
/// PacketPool::frames_cloned(), so the datapath's genuine duplication
/// points stay visible; single-consumer hops move instead.  Heap nodes
/// (VXLAN inner frames) recycle through the per-thread PacketPool.  Fields
/// are ordered by alignment, like PacketHeader's, to leave no padding.
struct EthernetFrame {
  Packet packet;  ///< valid when ethertype == 0x0800

  // ARP fields (valid when ethertype == 0x0806).
  Ipv4Address arp_sender_ip;
  Ipv4Address arp_target_ip;

  MacAddress src;
  MacAddress dst;
  MacAddress arp_sender_mac;  ///< ARP
  std::uint16_t ethertype = 0x0800;  ///< IPv4 by default; 0x0806 = ARP
  bool arp_is_request = false;       ///< ARP

  EthernetFrame() = default;
  EthernetFrame(const EthernetFrame& other);
  EthernetFrame& operator=(const EthernetFrame& other);
  EthernetFrame(EthernetFrame&&) noexcept = default;
  EthernetFrame& operator=(EthernetFrame&&) noexcept = default;
  ~EthernetFrame() = default;

  static void* operator new(std::size_t bytes);
  static void operator delete(void* p, std::size_t bytes) noexcept;
  static void operator delete(void* p) noexcept;

  [[nodiscard]] std::uint32_t wire_bytes() const {
    return kEthernetHeaderBytes +
           (ethertype == 0x0800 ? packet.ip_total_bytes() : 28);
  }
  [[nodiscard]] std::string describe() const;
};

inline Packet::~Packet() = default;

}  // namespace nestv::net

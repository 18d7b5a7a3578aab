#include "net/packet.hpp"

#include <cstdio>

#include "net/packet_pool.hpp"

namespace nestv::net {

const char* to_string(L4Proto p) {
  switch (p) {
    case L4Proto::kUdp: return "udp";
    case L4Proto::kTcp: return "tcp";
    case L4Proto::kIcmp: return "icmp";
  }
  return "?";
}

std::string TcpFlags::to_string() const {
  std::string s;
  if (syn) s += 'S';
  if (ack) s += 'A';
  if (fin) s += 'F';
  if (rst) s += 'R';
  if (psh) s += 'P';
  return s.empty() ? "-" : s;
}

Packet::Packet(const Packet& other) : PacketHeader(other) {
  if (other.inner) inner = std::make_unique<EthernetFrame>(*other.inner);
}

Packet& Packet::operator=(const Packet& other) {
  if (this == &other) return *this;
  Packet tmp(other);
  *this = std::move(tmp);
  return *this;
}


void* Packet::operator new(std::size_t bytes) {
  return PacketPool::local().allocate(bytes);
}
void Packet::operator delete(void* p, std::size_t bytes) noexcept {
  PacketPool::local().deallocate(p, bytes);
}
// The unsized form is the one delete-expressions actually select when both
// overloads are declared; it must recycle through the pool exactly like the
// sized form or every freed node skips the live-node accounting.  Packet is
// never a base class, so the static size is the allocated size.
void Packet::operator delete(void* p) noexcept {
  PacketPool::local().deallocate(p, sizeof(Packet));
}

EthernetFrame::EthernetFrame(const EthernetFrame& other)
    : packet(other.packet),
      arp_sender_ip(other.arp_sender_ip),
      arp_target_ip(other.arp_target_ip),
      src(other.src),
      dst(other.dst),
      arp_sender_mac(other.arp_sender_mac),
      ethertype(other.ethertype),
      arp_is_request(other.arp_is_request) {
  PacketPool::count_clone();
}

EthernetFrame& EthernetFrame::operator=(const EthernetFrame& other) {
  if (this == &other) return *this;
  EthernetFrame tmp(other);
  *this = std::move(tmp);
  return *this;
}

void* EthernetFrame::operator new(std::size_t bytes) {
  return PacketPool::local().allocate(bytes);
}
void EthernetFrame::operator delete(void* p, std::size_t bytes) noexcept {
  PacketPool::local().deallocate(p, bytes);
}
void EthernetFrame::operator delete(void* p) noexcept {
  PacketPool::local().deallocate(p, sizeof(EthernetFrame));
}

std::uint32_t Packet::l4_header_bytes() const {
  switch (proto) {
    case L4Proto::kUdp: return kUdpHeaderBytes;
    case L4Proto::kTcp: return kTcpHeaderBytes;
    case L4Proto::kIcmp: return 8;
  }
  return 8;
}

std::uint32_t Packet::ip_total_bytes() const {
  std::uint32_t inner_bytes = inner ? inner->wire_bytes() : 0;
  return kIpv4HeaderBytes + l4_header_bytes() + payload_bytes + inner_bytes;
}

std::string Packet::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %s:%u -> %s:%u len=%u%s%s",
                net::to_string(proto), src_ip.to_string().c_str(), src_port,
                dst_ip.to_string().c_str(), dst_port, payload_bytes,
                proto == L4Proto::kTcp
                    ? (" flags=" + tcp_flags.to_string()).c_str()
                    : "",
                inner ? " [vxlan-inner]" : "");
  return buf;
}

std::string EthernetFrame::describe() const {
  if (ethertype == 0x0806) {
    return std::string("arp ") + (arp_is_request ? "who-has " : "is-at ") +
           arp_target_ip.to_string() + " tell " + arp_sender_ip.to_string();
  }
  return packet.describe();
}

}  // namespace nestv::net

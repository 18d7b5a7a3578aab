#include "net/fabric_switch.hpp"

#include <algorithm>
#include <utility>

namespace nestv::net {

FabricSwitch::FabricSwitch(sim::Engine& engine, std::string name,
                           const sim::CostModel& costs,
                           const FabricDirectory& directory,
                           std::uint32_t ecmp_salt)
    : Device(engine, std::move(name), costs),
      directory_(&directory),
      salt_(ecmp_salt) {}

void FabricSwitch::bind_mac(MacAddress mac, int port) {
  mac_port_[mac] = port;
}

void FabricSwitch::add_uplink(int port) {
  uplinks_.push_back(port);
  uplink_tx_.push_back(0);
}

std::size_t FabricSwitch::ecmp_pick(const EthernetFrame& frame) const {
  // Pure function of the flow identity in the frame header — the ECMP
  // analogue of the keyed wire delivery order: the path is a property of
  // the *flow*, not of the execution mode, so any shard/worker count
  // resolves a multi-path tie identically (splitmix64-style finalizer).
  std::uint64_t h = salt_;
  if (frame.ethertype == 0x0800) {
    const Packet& p = frame.packet;
    h ^= (std::uint64_t{p.src_ip.value()} << 32) | p.dst_ip.value();
    h *= 0xff51afd7ed558ccdULL;
    h ^= (std::uint64_t{p.src_port} << 24) | (std::uint64_t{p.dst_port} << 8) |
         static_cast<std::uint64_t>(p.proto);
  } else {
    h ^= (std::uint64_t{frame.arp_sender_ip.value()} << 32) |
         frame.arp_target_ip.value();
  }
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<std::size_t>(h % uplinks_.size());
}

void FabricSwitch::ingress(EthernetFrame&& frame, int port) {
  // Cut-through forwarding work: pure delay (no CPU resource — the switch
  // ASIC is not a contended core of any machine).
  process(costs().fabric_switch_pkt,
          [this, port, f = std::move(frame)]() mutable {
            forward(std::move(f), port);
          });
}

void FabricSwitch::forward(EthernetFrame&& frame, int ingress_port) {
  if (frame.ethertype == 0x0806 && frame.arp_is_request &&
      frame.dst.is_broadcast()) {
    // Proxy ARP at the edge (EVPN-style suppression): answer from the
    // fabric directory, never flood the request across the fabric.
    const MacAddress* mac = directory_->find(frame.arp_target_ip);
    if (mac == nullptr) {
      ++arp_unanswered_;
      return;
    }
    EthernetFrame reply;
    reply.ethertype = 0x0806;
    reply.src = *mac;
    reply.dst = frame.src;
    reply.arp_is_request = false;
    reply.arp_sender_ip = frame.arp_target_ip;
    reply.arp_sender_mac = *mac;
    reply.arp_target_ip = frame.arp_sender_ip;
    ++arp_proxied_;
    egress(ingress_port, std::move(reply));
    return;
  }
  if (frame.dst.is_broadcast() || frame.dst.is_multicast()) {
    // The fabric carries routed unicast + suppressed ARP only; anything
    // else broadcast would flood O(machines) and is dropped by policy.
    count_drop();
    return;
  }
  const auto it = mac_port_.find(frame.dst);
  if (it != mac_port_.end()) {
    egress(it->second, std::move(frame));
    return;
  }
  if (!uplinks_.empty()) {
    const std::size_t pick = ecmp_pick(frame);
    ++uplink_tx_[pick];
    egress(uplinks_[pick], std::move(frame));
    return;
  }
  ++unknown_dropped_;
  count_drop();
}

void FabricSwitch::egress(int port, EthernetFrame&& frame) {
  // Per-link serialization: the link is busy for the frame's wire time;
  // later frames queue behind the horizon.  Everything is computed from
  // simulated state, so the queueing is identical in every execution mode.
  if (port_free_.size() <= static_cast<std::size_t>(port)) {
    port_free_.resize(static_cast<std::size_t>(port) + 1, 0);
  }
  const auto serialize = static_cast<sim::Duration>(
      static_cast<double>(frame.wire_bytes()) * costs().fabric_link_byte);
  const sim::TimePoint now = engine().now();
  const sim::TimePoint start =
      std::max(now, port_free_[static_cast<std::size_t>(port)]);
  const sim::TimePoint done = start + serialize;
  port_free_[static_cast<std::size_t>(port)] = done;
  if (done <= now) {
    transmit(port, std::move(frame));
    return;
  }
  engine().schedule_in(done - now,
                       [this, port, f = std::move(frame)]() mutable {
                         transmit(port, std::move(f));
                       });
}

}  // namespace nestv::net

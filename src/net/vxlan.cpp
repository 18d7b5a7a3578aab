#include "net/vxlan.hpp"

#include <algorithm>
#include <utility>

#include "net/oncache.hpp"
#include "sim/test_hooks.hpp"

namespace nestv::net {

VxlanDevice::VxlanDevice(sim::Engine& engine, std::string name,
                         const sim::CostModel& costs, StackBackend& stack,
                         Ipv4Address local_vtep, std::uint32_t vni)
    : Device(engine, std::move(name), costs),
      stack_(&stack),
      local_vtep_(local_vtep),
      vni_(vni) {
  add_port();  // port 0: overlay bridge side
  stack_->udp_bind_kernel(
      kVtepPort, [this](StackBackend::UdpDelivery& d) {
        on_vtep_datagram(d);
      });
}

void VxlanDevice::add_remote(MacAddress inner_mac, Ipv4Address vtep) {
  const auto it = l2_table_.find(inner_mac);
  if (it != l2_table_.end() && it->second != vtep && oncache_ != nullptr &&
      !sim::test_hooks::skip_oncache_vtep_invalidation) {
    // The endpoint moved: cached fast paths keep the old VTEP baked into
    // their outer header, so they must go before the remap takes effect.
    oncache_->invalidate_inner_mac(inner_mac);
  }
  l2_table_[inner_mac] = vtep;
}

void VxlanDevice::add_flood_target(Ipv4Address vtep) {
  if (vtep == local_vtep_) return;  // never tunnel a flood to ourselves
  if (std::find(flood_.begin(), flood_.end(), vtep) != flood_.end()) return;
  flood_.push_back(vtep);
}

void VxlanDevice::ingress(EthernetFrame&& frame, int port) {
  (void)port;
  const auto it = l2_table_.find(frame.dst);
  if (it != l2_table_.end()) {
    encap_to(it->second, std::move(frame));
    return;
  }
  // Flooded frames are not cacheable (no single resolved remote).
  if (oncache_ != nullptr) {
    oncache_->abandon_egress({frame.packet.packet_id, frame.src});
  }
  // Flooding is a genuine duplication point: one counted copy per remote
  // VTEP, the last one moved.
  for (std::size_t i = 0; i < flood_.size(); ++i) {
    if (i + 1 == flood_.size()) {
      encap_to(flood_[i], std::move(frame));
    } else {
      encap_to(flood_[i], EthernetFrame(frame));
    }
  }
}

void VxlanDevice::encap_to(Ipv4Address vtep, EthernetFrame&& inner) {
  const auto& c = costs();
  const sim::Duration work =
      c.vxlan_encap_pkt +
      static_cast<sim::Duration>(c.vxlan_copy_byte *
                                 static_cast<double>(inner.wire_bytes()));
  // The pending egress record is keyed by the inner frame's identity;
  // capture it before the frame moves into the closure.
  const std::uint64_t inner_id = inner.packet.packet_id;
  const MacAddress inner_src = inner.src;
  process(work, [this, vtep, inner_id, inner_src,
                         inner = std::move(inner)]() mutable {
    ++encap_;
    Packet outer;
    outer.src_ip = local_vtep_;
    outer.dst_ip = vtep;
    outer.proto = L4Proto::kUdp;
    outer.src_port = kVtepPort;
    outer.dst_port = kVtepPort;
    // VXLAN header (8B) counted on top of the inner frame bytes.
    outer.payload_bytes = static_cast<std::uint32_t>(
        costs().vxlan_header_bytes) - kEthernetHeaderBytes -
        kIpv4HeaderBytes - kUdpHeaderBytes;
    // Pool-recycled node; the inner frame moves all the way through.
    outer.inner = std::make_unique<EthernetFrame>(std::move(inner));
    outer.packet_id = stack_->next_packet_id();
    outer.sent_at = engine().now();
    if (oncache_ != nullptr) {
      // The remote is resolved and the outer identity minted: hand the
      // pending record to the stack leg (completed at ARP resolution).
      oncache_->promote_egress({inner_id, inner_src}, vtep, outer.packet_id);
    }
    stack_->l4_emit(costs().l4_segment, std::move(outer));
  });
}

void VxlanDevice::on_vtep_datagram(StackBackend::UdpDelivery& d) {
  if (!d.inner) {
    // Truncated / non-VXLAN payload on the VTEP port: no inner frame to
    // decapsulate, drop it (counted; no decap event is charged).
    ++rx_non_vxlan_;
    return;
  }
  const auto& c = costs();
  const sim::Duration work =
      c.vxlan_decap_pkt +
      static_cast<sim::Duration>(c.vxlan_copy_byte *
                                 static_cast<double>(d.inner->wire_bytes()));
  const EthernetFrame& inner = *d.inner;
  if (oncache_ != nullptr && inner.ethertype == 0x0800) {
    oncache_->note_ingress(
        {inner.packet.packet_id, inner.src},
        oncache::IngressKey::of(inner.packet, vni_), d.src_ip);
  }
  // The VTEP is the delivery's sole consumer: steal the inner frame.
  process(work, [this, f = std::move(*d.inner)]() mutable {
    ++decap_;
    transmit(0, std::move(f));
  });
}

}  // namespace nestv::net

#include "net/oncache.hpp"

#include <utility>

#include "net/route.hpp"

namespace nestv::net::oncache {

// ---- CachedBridge -----------------------------------------------------------

void CachedBridge::attach_oncache(OnCache* cache, int vxlan_port) {
  cache_ = cache;
  vxlan_port_ = vxlan_port;
  cache_->set_bridge(this);
  // Overlay FDB eviction (ageing sweep, full flush) drops the
  // cached paths switched through the evicted MAC, in both directions.
  fdb().set_eviction_listener(
      [cache](MacAddress mac) { cache->invalidate_inner_mac(mac); });
}

void CachedBridge::ingress(EthernetFrame&& frame, int port) {
  // Egress fast path: a unicast IPv4 frame from a pod whose inner flow has
  // a resolved entry skips the bridge/encap/hook/route chain entirely —
  // one fused event emits the finished outer frame.
  if (cache_ != nullptr && cache_->enabled() && port != vxlan_port_ &&
      frame.ethertype == 0x0800 && !frame.dst.is_broadcast() &&
      !frame.dst.is_multicast()) {
    if (const EgressPath* e = cache_->match_egress(frame, port)) {
      // The slow path's source learning still happens (free, as in
      // Bridge::ingress); the fused event replaces the forward pass.
      fdb().learn(frame.src, port, engine().now());
      const EgressPath path = *e;  // the entry may be evicted before firing
      const auto& c = costs();
      const sim::Duration work =
          path.fast_cost +
          static_cast<sim::Duration>(
              c.vxlan_copy_byte * static_cast<double>(frame.wire_bytes()));
      process(work, [this, path, f = std::move(frame)]() mutable {
        cache_->serve_egress(path, std::move(f));
      });
      return;
    }
  }
  Bridge::ingress(std::move(frame), port);
}

void CachedBridge::forward(EthernetFrame&& frame, int ingress_port) {
  if (cache_ != nullptr && cache_->enabled() &&
      frame.ethertype == 0x0800) {
    // Re-derive the switching decision (side-effect free) to classify the
    // frame before delegating the actual forward.
    const int out = frame.dst.is_broadcast() || frame.dst.is_multicast()
                        ? -1
                        : fdb().lookup(frame.dst, engine().now());
    const OnCache::PendingKey k{frame.packet.packet_id, frame.src};
    if (ingress_port == vxlan_port_) {
      // Decapped inner frame: a unicast switch to a pod port completes the
      // ingress record; a flood is not cacheable.
      if (out >= 0 && out != vxlan_port_) {
        cache_->complete_ingress(k, frame.dst, out);
      } else {
        cache_->abandon_ingress(k);
      }
    } else if (out == vxlan_port_) {
      // Pod frame switching toward the VTEP: open an egress record; the
      // VTEP promotes it once the remote resolves.
      cache_->note_egress(
          k, flowcache::FlowKey::of(frame.packet, ingress_port), frame.dst);
    }
  }
  Bridge::forward(std::move(frame), ingress_port);
}

// ---- OnCache: slow-path recording -------------------------------------------

void OnCache::note_egress(const PendingKey& k, const flowcache::FlowKey& key,
                          MacAddress inner_dst) {
  if (!enabled_) return;
  if (pending_by_inner_.size() >= kMaxPending) clear_pending();
  pending_by_inner_[k] = PendingEgress{key, inner_dst, Ipv4Address{}};
}

void OnCache::promote_egress(const PendingKey& k, Ipv4Address remote_vtep,
                             std::uint64_t outer_packet_id) {
  if (!enabled_) return;
  const auto it = pending_by_inner_.find(k);
  if (it == pending_by_inner_.end()) return;
  PendingEgress rec = it->second;
  pending_by_inner_.erase(it);
  rec.remote_vtep = remote_vtep;
  if (pending_by_outer_.size() >= kMaxPending) clear_pending();
  pending_by_outer_[outer_packet_id] = rec;
}

void OnCache::abandon_egress(const PendingKey& k) {
  if (!enabled_) return;
  pending_by_inner_.erase(k);
}

void OnCache::complete_egress(const Packet& outer, int out_ifindex,
                              MacAddress next_hop_mac) {
  if (!enabled_) return;
  const auto it = pending_by_outer_.find(outer.packet_id);
  if (it == pending_by_outer_.end()) return;
  const PendingEgress rec = it->second;
  pending_by_outer_.erase(it);

  EgressPath path;
  path.ct_id = outer.ct_id;
  path.remote_vtep = rec.remote_vtep;
  path.outer_src = outer.src_ip;
  path.outer_dst = outer.dst_ip;
  path.outer_sport = outer.src_port;
  path.outer_dport = outer.dst_port;
  path.fast_cost = static_cast<std::uint32_t>(costs_->oncache_encap_hit);
  path.routes_gen = static_cast<std::uint16_t>(stack_->routes().generation());
  path.inner_dst = rec.inner_dst;
  path.next_hop_mac = next_hop_mac;
  path.out_ifindex = static_cast<std::int16_t>(out_ifindex);
  egress_.insert(rec.key, path);
  charge_insert();
}

void OnCache::note_ingress(const PendingKey& k, const IngressKey& key,
                           Ipv4Address outer_src) {
  if (!enabled_) return;
  if (pending_ingress_.size() >= kMaxPending) clear_pending();
  pending_ingress_[k] = PendingIngress{key, outer_src};
}

void OnCache::abandon_ingress(const PendingKey& k) {
  if (!enabled_) return;
  pending_ingress_.erase(k);
}

void OnCache::complete_ingress(const PendingKey& k, MacAddress inner_dst,
                               int out_port) {
  if (!enabled_) return;
  const auto it = pending_ingress_.find(k);
  if (it == pending_ingress_.end()) return;
  const PendingIngress rec = it->second;
  pending_ingress_.erase(it);

  IngressPath path;
  path.outer_src = rec.outer_src;
  path.fast_cost = static_cast<std::uint32_t>(costs_->oncache_decap_hit);
  path.inner_dst = inner_dst;
  path.out_port = static_cast<std::int16_t>(out_port);
  ingress_.insert(rec.key, path);
  charge_insert();
}

void OnCache::charge_insert() {
  // Building the entry is not free: one-time softirq charge per flow.
  stack_->resource_run(stack_->softirq(), sim::CpuCategory::kSoft,
                       costs_->oncache_insert, [] {});
}

// ---- OnCache: fast paths ----------------------------------------------------

const EgressPath* OnCache::match_egress(const EthernetFrame& frame,
                                        int ingress_port) {
  const auto key = flowcache::FlowKey::of(frame.packet, ingress_port);
  const EgressPath* path = egress_.lookup(key);
  if (path == nullptr) return nullptr;
  // Validate the authoritative state the cache cannot watch: the L2
  // destination the key does not cover, the routing-table generation and
  // the outer connection's conntrack backing.  Stale entries are flushed
  // and the frame falls through to the slow path (which re-records).
  if (path->inner_dst != frame.dst ||
      path->routes_gen !=
          static_cast<std::uint16_t>(stack_->routes().generation())) {
    egress_.invalidate(key);
    return nullptr;
  }
  if (path->ct_id != 0 && stack_->has_netfilter()) {
    Netfilter& nf = stack_->netfilter();
    if (!nf.conn_alive(path->ct_id)) {
      egress_.invalidate(key);
      return nullptr;
    }
    // The fast path bypasses the hooks; keep the outer connection fresh so
    // GC does not reap an actively cached flow.
    nf.touch(path->ct_id, stack_->engine().now());
  }
  return path;
}

void OnCache::serve_egress(const EgressPath& path, EthernetFrame&& inner) {
  EthernetFrame f;
  f.src = stack_->iface_mac(path.out_ifindex);
  f.dst = path.next_hop_mac;
  f.ethertype = 0x0800;
  Packet& outer = f.packet;
  outer.src_ip = path.outer_src;
  outer.dst_ip = path.outer_dst;
  outer.proto = L4Proto::kUdp;
  outer.src_port = path.outer_sport;
  outer.dst_port = path.outer_dport;
  // Same outer framing as VxlanDevice::encap_to: the VXLAN header (8B)
  // counted on top of the inner frame bytes.
  outer.payload_bytes =
      static_cast<std::uint32_t>(costs_->vxlan_header_bytes) -
      kEthernetHeaderBytes - kIpv4HeaderBytes - kUdpHeaderBytes;
  outer.ct_id = path.ct_id;
  outer.inner = std::make_unique<EthernetFrame>(std::move(inner));
  outer.packet_id = stack_->next_packet_id();
  outer.sent_at = stack_->engine().now();
  stack_->xmit_frame(path.out_ifindex, std::move(f));
}

const IngressPath* OnCache::match_ingress(const Packet& outer) {
  const auto key = IngressKey::of(outer.inner->packet, vni_);
  const IngressPath* path = ingress_.lookup(key);
  if (path == nullptr) return nullptr;
  if (path->outer_src != outer.src_ip ||
      path->inner_dst != outer.inner->dst) {
    ingress_.invalidate(key);
    return nullptr;
  }
  return path;
}

void OnCache::deliver_ingress(int out_port, EthernetFrame&& frame) {
  bridge_->inject(out_port, std::move(frame));
}

// ---- OnCache: invalidation --------------------------------------------------

std::size_t OnCache::invalidate_rule_match(
    const RuleMatch& match,
    const std::function<std::string(int)>& iface_name) {
  clear_pending();
  std::size_t flushed = egress_.invalidate_if(
      [this, &match, &iface_name](const flowcache::FlowKey&,
                                  const EgressPath& path) {
        const std::string out = iface_name(path.out_ifindex);
        // Pre-NAT view: what OUTPUT saw when the entry was recorded.
        Packet pre;
        pre.src_ip = local_vtep_;
        pre.dst_ip = path.remote_vtep;
        pre.src_port = kVtepPort;
        pre.dst_port = kVtepPort;
        pre.proto = L4Proto::kUdp;
        if (match.matches(pre, "", out)) return true;
        // Post-NAT view: POSTROUTING-side rules match the rewritten header.
        Packet post = pre;
        post.src_ip = path.outer_src;
        post.dst_ip = path.outer_dst;
        post.src_port = path.outer_sport;
        post.dst_port = path.outer_dport;
        return match.matches(post, "", out);
      });
  const std::string in = iface_name(uplink_ifindex_);
  flushed += ingress_.invalidate_if(
      [this, &match, &in](const IngressKey&, const IngressPath& path) {
        // The outer datagram as PREROUTING/INPUT saw it.
        Packet view;
        view.src_ip = path.outer_src;
        view.dst_ip = local_vtep_;
        view.src_port = kVtepPort;
        view.dst_port = kVtepPort;
        view.proto = L4Proto::kUdp;
        return match.matches(view, in, "");
      });
  return flushed;
}

std::size_t OnCache::invalidate_inner_mac(MacAddress mac) {
  clear_pending();
  std::size_t flushed = egress_.invalidate_if(
      [mac](const flowcache::FlowKey&, const EgressPath& path) {
        return path.inner_dst == mac;
      });
  flushed += ingress_.invalidate_if(
      [mac](const IngressKey&, const IngressPath& path) {
        return path.inner_dst == mac;
      });
  return flushed;
}

std::size_t OnCache::invalidate_egress_ifindex(int ifindex) {
  clear_pending();
  std::size_t flushed = egress_.invalidate_if(
      [ifindex](const flowcache::FlowKey&, const EgressPath& path) {
        return path.out_ifindex == ifindex;
      });
  if (ifindex == uplink_ifindex_) {
    ingress_.invalidate_all();
  }
  return flushed;
}

std::size_t OnCache::invalidate_conn(std::uint64_t ct_id) {
  return egress_.invalidate_if(
      [ct_id](const flowcache::FlowKey&, const EgressPath& path) {
        return path.ct_id == ct_id;
      });
}

void OnCache::invalidate_all() {
  egress_.invalidate_all();
  ingress_.invalidate_all();
  clear_pending();
}

}  // namespace nestv::net::oncache

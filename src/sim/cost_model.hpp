// Calibrated per-operation costs for the simulated datapath.
//
// This is the single calibration surface of the reproduction (DESIGN.md
// section 2).  Constants are chosen so that the *vanilla* comparison —
// nested bridge+NAT versus single-layer virtualization — matches the
// paper's fig 2 headline (~68% throughput degradation, ~31% latency
// increase at 1280B).  All other results (BrFusion == NoCont, the Hostlo
// ratios of fig 10, the CPU breakdowns of figs 6/7/14/15) must emerge from
// path *structure*, not from per-experiment constants: no scenario-specific
// knob exists anywhere below.
//
// Values are in nanoseconds (per packet / per call) or nanoseconds per byte
// (copies, checksums).  They are plausible magnitudes for the paper's
// testbed (Xeon E5-2420 v2 @ 2.2 GHz, virtio + vhost, Linux 4.19) but are
// not measurements; EXPERIMENTS.md compares shapes, not absolute numbers.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace nestv::sim {

struct CostModel {
  // ---- application / socket layer -------------------------------------
  /// send()/recv() syscall entry/exit and socket bookkeeping.
  Duration syscall_pkt = 600;
  /// user<->kernel copy (~16 GB/s on the testbed's DDR3).
  double copy_byte = 0.05;
  /// L4 (UDP/TCP) protocol processing per segment.
  Duration l4_segment = 450;
  /// Scheduler wakeup of a blocked receiver when data is delivered.  Pure
  /// latency: it delays delivery but occupies no CPU resource, so it
  /// affects UDP_RR round-trips but not TCP_STREAM saturation throughput.
  Duration rx_wakeup = 2300;

  // ---- generic L2/L3 ----------------------------------------------------
  Duration route_lookup = 150;     ///< FIB lookup per packet
  Duration arp_hit = 50;           ///< neighbour cache hit
  Duration bridge_pkt = 300;       ///< host bridge: FDB lookup + forward
  Duration bridge_pkt_guest = 550; ///< guest bridge (no offloads in the VM)
  Duration veth_pkt = 300;         ///< veth pair namespace crossing
  double veth_copy_byte = 0.02;
  Duration loopback_pkt = 250;     ///< lo device per packet
  double loopback_copy_byte = 0.02;
  /// Device-to-device hand-off latency (queue + softirq scheduling).
  Duration hop_latency = 300;
  /// Wire latency of the inter-machine fabric (host NIC -> top-of-rack
  /// switch): serialization + propagation + switch cut-through, an order
  /// of magnitude above the intra-host hand-off.  This is also the
  /// lookahead window of the sharded conductor — an event on one machine
  /// cannot affect another machine sooner than one fabric hop — so it
  /// must lower-bound every cross-machine link latency.
  Duration fabric_hop_latency = 2000;
  /// Hierarchical fabric (vmm::HierarchicalFabric): ToR-to-spine link
  /// latency.  Together with fabric_hop_latency it lower-bounds every
  /// cross-machine wire, so the conductor lookahead for a two-tier fabric
  /// is min(fabric_hop_latency, spine_link_latency).
  Duration spine_link_latency = 2000;
  /// Per-frame cut-through forwarding work inside a fabric switch (header
  /// parse + table lookup); pure delay, no CPU resource (the switch ASIC
  /// is not a contended core).
  Duration fabric_switch_pkt = 350;
  /// Per-byte serialization onto a fabric link (100GbE: 0.08 ns/byte).
  /// Modeled as a per-egress-port busy horizon, so bursts into one link
  /// queue behind each other — the only capacity constraint the
  /// hierarchical fabric imposes beyond latency.
  double fabric_link_byte = 0.08;

  // ---- netfilter / NAT --------------------------------------------------
  Duration nf_hook_base = 120;     ///< traversing one hook point
  Duration nf_rule_scan = 70;      ///< evaluating one rule (slow path)
  Duration conntrack_hit = 200;    ///< established-connection lookup
  Duration conntrack_miss = 700;   ///< new flow: rule scan result + entry
  Duration nat_rewrite = 180;      ///< header rewrite + checksum fixup
  /// Docker/Kubernetes install this many rules on the chains a forwarded
  /// packet traverses even on the conntrack fast path (filter FORWARD,
  /// DOCKER-USER, KUBE-FORWARD, ...).  This is what makes the *nested* NAT
  /// layer expensive: it runs once per MTU-sized packet in guest softirq.
  int nf_standing_rules = 6;

  // ---- per-flow fast-path cache (ONCache-style; src/net/flowcache) ------
  /// Hash lookup + validity stamps + applying the cached verdict.  This is
  /// the whole per-packet stack charge on a hit — it replaces the hook
  /// traversals, rule scans, conntrack and FIB lookups above.
  Duration flowcache_hit = 240;
  /// Applying the precomputed NAT header rewrite (no rule walk; checksum
  /// delta was folded into the record).
  Duration flowcache_rewrite = 60;
  /// Recording a verdict after a slow-path traversal (entry allocation +
  /// LRU insert), charged once per flow direction on the miss path.
  Duration flowcache_insert = 350;
  /// Entry budget per stack; LRU beyond this (ONCache uses a fixed-size
  /// eBPF map the same way).
  std::uint32_t flowcache_capacity = 4096;

  // ---- virtio / vhost ---------------------------------------------------
  Duration virtio_ring_pkt = 500;  ///< guest side: avail/used ring + kick
  Duration vhost_pkt = 650;        ///< host kernel worker per packet
  double vhost_copy_byte = 0.09;   ///< copy guest pages <-> tap
  Duration tap_pkt = 250;          ///< tap fd read/write per packet
  double tap_copy_byte = 0.05;
  /// GRO merge work per merged segment at a receiving netdev.
  Duration gro_pkt = 150;
  /// GRO flush deadline when no PSH terminates a burst (NAPI cycle end).
  Duration gro_timeout = 25000;
  /// QEMU-emulated virtio (no vhost): everything funnels through the QEMU
  /// iothread with a syscall round-trip per batch.  Used by the ablation
  /// bench abl_vhost only; all scenarios default to vhost as in the paper.
  Duration qemu_emul_pkt = 12000;
  double qemu_emul_copy_byte = 0.45;

  // ---- Hostlo (the paper's modified multi-queue loopback TAP) ----------
  /// Reflect cost per destination queue per packet ("sends back any
  /// received Ethernet frame to all of its queues", section 4.2).
  Duration hostlo_reflect_pkt = 300;
  double hostlo_reflect_copy_byte = 0.05;
  /// Extra guest-side per-frame work at a Hostlo endpoint: the modified
  /// tap driver negotiates no offloads and no NAPI-style batching, so the
  /// guest takes one interrupt + ring round-trip per wire frame.
  Duration hostlo_endpoint_pkt = 550;

  // ---- fast-path stack (net/faststack; IncludeOS-style fixed pipeline) --
  /// Whole per-packet RX charge of the FastPathStack: MAC filter, compact
  /// demux and L4 segment handling fused into one table-free pass (no hook
  /// points, no conntrack, no GRO merge pass).  Replaces route_lookup +
  /// l4_segment (+ any netfilter traversal) of the full stack's local
  /// delivery.
  Duration fastpath_rx_pkt = 220;
  /// Whole per-packet TX charge: route decision against the compact table +
  /// neighbour lookup fused with the emit.  Replaces route_lookup +
  /// OUTPUT-chain traversal on the full stack.
  Duration fastpath_tx_pkt = 160;

  // ---- MemPipe (section 4.3.2's shared-memory alternative) --------------
  Duration mempipe_pkt = 350;      ///< ring slot claim + event notification
  double mempipe_copy_byte = 0.05; ///< memcpy through shared pages

  // ---- VXLAN overlay (Docker Overlay baseline) --------------------------
  Duration vxlan_encap_pkt = 900;
  Duration vxlan_decap_pkt = 800;
  double vxlan_copy_byte = 0.02;
  int vxlan_header_bytes = 50;     ///< outer Ethernet+IP+UDP+VXLAN

  // ---- ONCache overlay fast path (src/net/oncache) ----------------------
  /// Fused per-packet egress charge on a cache hit: replaces the inner
  /// bridge forward + VXLAN encap + l4_segment + OUTPUT/POSTROUTING hooks
  /// + route lookup of the slow chain (~2.5-3us across ~5 softirq events)
  /// with one event, ONCache-style.  The per-byte encap copy still applies.
  Duration oncache_encap_hit = 650;
  /// Fused per-packet ingress charge: replaces PREROUTING/INPUT + UDP
  /// demux + VXLAN decap + inner bridge forward.
  Duration oncache_decap_hit = 550;
  /// One-time charge for resolving + installing a cache entry.
  Duration oncache_insert = 400;
  /// Entries per direction table (egress and ingress size independently).
  std::uint32_t oncache_capacity = 4096;

  // ---- segmentation offload --------------------------------------------
  // Effective segment size seen by per-packet costs.  TSO/GRO lets the
  // virtio path move ~16KB super-frames; the in-guest loopback device has a
  // 64KB MTU; bridge-netfilter + NAT forces software segmentation to the
  // wire MTU (br_netfilter re-segments GSO frames so iptables can see
  // L3/L4 headers) — that asymmetry is the mechanistic root of fig 2.
  std::uint32_t gso_virtio = 16384;   ///< NoCont / BrFusion pod NIC
  std::uint32_t gso_loopback = 65536; ///< SameNode intra-pod localhost
  std::uint32_t gso_nat_nested = 1448;///< nested bridge+NAT guest path
  std::uint32_t gso_hostlo = 1448;    ///< modified tap: no TSO through reflect
  std::uint32_t gso_overlay = 2896;   ///< VXLAN keeps partial GSO (encap-aware)

  // ---- TCP --------------------------------------------------------------
  std::uint32_t tcp_window_bytes = 262144;
  Duration tcp_rto = milliseconds(200);
  Duration tcp_delayed_ack = microseconds(200);
  /// Congestion control (slow start + AIMD) with RFC 6298 adaptive RTO.
  /// Off by default: the paper's streams are steady-state saturation on a
  /// lossless local fabric where the fixed window is the faithful model;
  /// turn on to study ramp-up and loss recovery (bench/abl_cwnd).
  bool tcp_congestion_control = false;
  std::uint32_t tcp_init_cwnd_segments = 10;  ///< IW10
  Duration tcp_min_rto = milliseconds(5);

  /// Defaults tuned against fig 2; see file comment.
  static const CostModel& defaults();
};

}  // namespace nestv::sim

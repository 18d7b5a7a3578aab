// Macro-scale datacenter scenario: flow churn on a hierarchical fabric.
//
// The simulator's one macro scenario.  It models what a real datacenter
// adds on top of a fixed set of long-lived flows: *churn*.  A
// population of machines under a two-tier fabric (vmm::HierarchicalFabric,
// racks -> ToRs -> spines with deterministic per-flow ECMP) carries an
// open-loop stream of short-lived flows: each arrives at a precomputed
// instant (independent of completions — open loop), runs a handful of
// UDP request/response transactions from a fresh client port against a
// long-lived server pod, and departs.  Every arrival inserts conntrack
// entries (and flowcache entries — the fast path is on) at each stack on
// its path; every departure leaves them to idle out under periodic
// conntrack GC.  That insert/evict pressure at 10^5..10^6 flows is what
// the compact per-flow state (net/conn_table.hpp, the slab FlowCache) is
// for, and this scenario measures it: bytes of conntrack+flowcache state
// per tracked flow at peak occupancy is a first-class output.
//
// Server pods follow the paper's deployment modes, chosen per flow:
//   * NAT      — published-port container behind DNAT (UDP RR cross-rack),
//                plus a few long-lived TCP streams through the same path;
//   * BrFusion — pod NIC on the host bridge (UDP RR cross-rack);
//   * Hostlo   — cross-VM pod on one machine (UDP RR, intra-host by
//                construction);
//   * Overlay  — cross-VM pod pair tunneled through a per-pair VXLAN
//                overlay (UDP RR, VM-to-VM through the host bridge),
//                riding the ONCache-style encap/decap fast path (off by
//                default: zero overlay pairs).
// Placement follows the Google-like trace (trace::generate_google_like_trace).
//
// Determinism: identical simulated outputs at any shards/max_workers
// (bench/abl_macro_scale gates shards=16 == shards=1 with delta 0).  The
// three mechanisms are the keyed wire delivery order, the flow-pure ECMP
// hash, and strictly machine-local mutable state (per-machine accumulators
// merged in machine order after the run).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "scenario/testbed.hpp"
#include "sim/sharded_conductor.hpp"

namespace nestv::scenario {

struct MacroScaleConfig {
  std::uint64_t seed = 11;
  int machines = 8;
  /// Conductor shards; 1 = the single-engine reference every other value
  /// must reproduce bit-for-bit.
  int shards = 1;
  unsigned max_workers = 0;

  // ---- fabric shape ----------------------------------------------------
  int machines_per_rack = 4;
  int spines = 2;

  // ---- population ------------------------------------------------------
  int trace_users = 32;
  /// Cross-VM overlay (VXLAN) pod pairs per machine (0 disables the
  /// overlay flow mode).
  int overlay_pairs_per_machine = 0;

  // ---- churn -----------------------------------------------------------
  /// Ephemeral flows arriving open-loop over `arrival_window`.
  int flows = 2000;
  /// Long-lived NAT TCP streams riding along (bulk bytes under churn).
  int tcp_streams = 2;

  sim::Duration arrival_window = sim::milliseconds(150);
  /// Extra time after the last arrival for in-flight flows to finish.
  sim::Duration drain = sim::milliseconds(50);
  /// Per-machine conntrack GC + state-sampling cadence.
  sim::Duration gc_interval = sim::milliseconds(20);
  /// Idle timeout handed to conntrack GC (well below arrival_window, so
  /// departed flows are actually reaped while the run is still going).
  sim::Duration conntrack_idle = sim::milliseconds(40);

  sim::CostModel costs = {};
};

struct MacroScaleResult {
  // ---- simulated outputs: identical for every shards/max_workers ------
  double flows_completed = 0;
  double rr_transactions = 0;
  double rr_latency_ns_sum = 0;
  double stream_bytes_delivered = 0;
  /// Flow-order-weighted digest; any divergence between execution modes
  /// shows up here even if the sums collide.
  double flow_digest = 0;
  /// Peak simultaneously-live ephemeral flows (computed from the exact
  /// arrival/completion instants after the run).
  std::uint64_t peak_concurrent_flows = 0;
  /// Sum over machines of each machine's peak tracked conntrack entries
  /// (host + server VM + pod stacks, sampled at every GC tick).
  std::uint64_t conntrack_peak_entries = 0;
  /// Conntrack + flowcache resident bytes at those per-machine peaks.
  std::uint64_t state_bytes_at_peak = 0;
  /// Decomposition of state_bytes_at_peak (same sampling instants).
  std::uint64_t conntrack_bytes_at_peak = 0;
  std::uint64_t flowcache_bytes_at_peak = 0;
  /// Live flowcache entries at those peaks (cached paths are
  /// per-direction, so this can exceed conntrack_peak_entries).
  std::uint64_t flowcache_entries_at_peak = 0;
  /// Overlay encap/decap cache state at each machine's own oncache
  /// occupancy peak (sampled at the same GC ticks; all zero when
  /// overlay_pairs_per_machine == 0 or the fast path is off).
  std::uint64_t oncache_entries_at_peak = 0;
  std::uint64_t oncache_bytes_at_peak = 0;
  /// Total encap + decap fast-path hits across all overlay caches.
  std::uint64_t oncache_hits = 0;
  /// state_bytes_at_peak / conntrack_peak_entries: bytes of per-flow
  /// state per tracked flow (the compact-state headline metric).
  double state_bytes_per_flow = 0;
  /// Entries reaped by periodic conntrack GC across all machines.
  std::uint64_t conntrack_gc_reaped = 0;
  /// Own routing-table entries summed over the host stacks at the end of
  /// the run.  The fabric's mesh routes live once in its peer-route set,
  /// so this grows linearly in machines; a per-host full mesh would make
  /// it quadratic.
  std::uint64_t host_route_entries = 0;
  double pods_scheduled = 0;
  double vms_bought = 0;
  double placement_cost_per_hour = 0;
  std::uint64_t events_total = 0;

  // ---- execution shape: reporting only, varies with shards/workers ----
  int shards = 1;
  unsigned worker_threads = 1;
  std::vector<std::uint64_t> per_shard_events;
  std::uint64_t epochs = 0;
  std::uint64_t cross_posts = 0;
  /// Epochs whose drain barrier was skipped because no shard posted
  /// cross-shard mail (sim/sharded_conductor.hpp fused-epoch protocol).
  std::uint64_t fused_epochs = 0;
  /// Mail items actually delivered out of cross-shard boxes (equals
  /// cross_posts once the run quiesces).
  std::uint64_t drained_posts = 0;
  /// Per-shard count of epoch windows that executed zero events.
  std::vector<std::uint64_t> idle_windows;
  /// Per-worker nanoseconds spent waiting at epoch barriers (wall clock:
  /// host-dependent, never gate it).
  std::vector<std::uint64_t> barrier_wait_ns;
  /// Past instants the shard engines clamped to now, over the whole run
  /// (Engine::clamped_events); the keyed ones are cross-machine frames
  /// that arrived late, which a sound lookahead never allows.
  std::uint64_t clamped_events = 0;
  std::uint64_t clamped_keyed_events = 0;
  double wall_seconds = 0;
};

[[nodiscard]] MacroScaleResult run_macro_scale(const MacroScaleConfig& config);

/// Every simulated output of a macro run as (bench JSON metric name,
/// value), in the bench's JSON order: the fields above the execution-shape
/// block of MacroScaleResult.  None of them may depend on shards or
/// max_workers; the bench's shards=1 equivalence gate and the
/// shard-invariance tests compare exactly this list.
[[nodiscard]] inline std::vector<std::pair<const char*, double>>
simulated_outputs(const MacroScaleResult& r) {
  return {
      {"flows_completed", r.flows_completed},
      {"rr_transactions", r.rr_transactions},
      {"rr_latency_ns_sum", r.rr_latency_ns_sum},
      {"stream_bytes_delivered", r.stream_bytes_delivered},
      {"flow_digest", r.flow_digest},
      {"peak_concurrent_flows", double(r.peak_concurrent_flows)},
      {"conntrack_peak_entries", double(r.conntrack_peak_entries)},
      {"state_bytes_at_peak", double(r.state_bytes_at_peak)},
      {"state_bytes_per_flow", r.state_bytes_per_flow},
      {"conntrack_bytes_at_peak", double(r.conntrack_bytes_at_peak)},
      {"flowcache_bytes_at_peak", double(r.flowcache_bytes_at_peak)},
      {"flowcache_entries_at_peak", double(r.flowcache_entries_at_peak)},
      {"oncache_entries_at_peak", double(r.oncache_entries_at_peak)},
      {"oncache_bytes_at_peak", double(r.oncache_bytes_at_peak)},
      {"oncache_hits", double(r.oncache_hits)},
      {"conntrack_gc_reaped", double(r.conntrack_gc_reaped)},
      {"host_route_entries", double(r.host_route_entries)},
      {"pods_scheduled", r.pods_scheduled},
      {"vms_bought", r.vms_bought},
      {"placement_cost_per_hour", r.placement_cost_per_hour},
      {"events_total", double(r.events_total)},
  };
}

}  // namespace nestv::scenario

// Structured scenario generation: one 64-bit seed -> one FuzzPlan.
//
// A plan fixes everything that must be IDENTICAL across the paired runs of
// a seed: the topology (machines, flow endpoints, datapath mixes), the
// action schedule (rule edits, FDB flushes, conntrack GC, NIC unplug —
// applied only at quiescent wave boundaries), the traffic itself
// (count-bounded waves, so runs with different timing still agree on
// application-level outcomes), and the base cost model.  The execution
// shape a run varies — shard count, worker threads, flowcache, stack
// backend, oncache — lives in world.hpp's RunShape, NOT here; the oracles
// in oracle.cpp pair shapes over one plan.
//
// Soundness rules baked into generation (they keep every oracle
// false-positive-free):
//   * DROP rules target only UDP flows (a dropped TCP flow retransmits
//     forever and the wave never quiesces) and only flows a netfilter
//     chain actually sees: BrFusion flows on the forwarding host's
//     FORWARD chain, and Overlay flows as a VXLAN-datagram drop (UDP
//     dport 4789) on the server VM's INPUT chain — the rule edit that
//     must invalidate cached oncache ingress paths.
//   * NIC unplug targets only flows with no traffic scheduled after the
//     unplug boundary, so it never changes application outcomes — only the
//     teardown/invalidation paths it exists to exercise.
//   * Conntrack GC always uses idle_timeout 0 (reap everything idle),
//     which is independent of the timing differences between paired runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cost_model.hpp"

namespace nestv::fuzz {

enum class FlowMode : std::uint8_t {
  kNatStream,   ///< published-port container, cross-machine TCP via DNAT
  kBrFusionRr,  ///< pod NIC on the host bridge, cross-machine UDP RR
  kHostloRr,    ///< cross-VM pod on one machine, UDP RR over Hostlo
  kOverlayRr,   ///< cross-VM VXLAN overlay on one machine, UDP RR
};

[[nodiscard]] const char* to_string(FlowMode m);

struct FlowPlan {
  FlowMode mode = FlowMode::kBrFusionRr;
  int srv_machine = 0;
  int cli_machine = 1;
  std::uint16_t srv_port = 0;
  std::uint16_t cli_port = 0;
  std::uint32_t msg_bytes = 256;
  /// Transactions (RR) or messages (stream) per wave; 0 = silent wave.
  std::vector<std::uint32_t> wave_work;
  /// RR think time = quantum * U(0, slots).  Collision-prone flows use a
  /// coarse quantum (a multiple of the wire latency) so same-nanosecond
  /// arrivals at shared devices actually happen — those collisions are
  /// what the keyed wire delivery exists to order, and what the injected
  /// unkeyed-delivery bug needs to be observable.
  std::uint64_t think_quantum = 1;
  std::uint32_t think_slots = 4000;
  /// Extra start offset ordinal; collision-prone flows share offset 0.
  bool collision_prone = false;
};

enum class ActionKind : std::uint8_t {
  kAddDropRule,      ///< DROP on the forwarding host's FORWARD chain
  kAddNoiseRules,    ///< match-nothing ACCEPT rules (invalidation churn)
  kRemoveNoiseRules, ///< remove previously added noise rules
  kFdbFlush,         ///< flush a machine bridge's FDB
  kConntrackGc,      ///< reap all idle conntrack entries on a machine
  kNicUnplug,        ///< hot-unplug a retired flow's pod NIC
};

[[nodiscard]] const char* to_string(ActionKind k);

struct ActionPlan {
  ActionKind kind = ActionKind::kConntrackGc;
  /// Applied at the quiescent boundary after wave `boundary`.
  int boundary = 0;
  int flow = -1;     ///< target flow (kAddDropRule, kNicUnplug)
  int machine = -1;  ///< target machine (kFdbFlush, kConntrackGc, noise)
  int count = 0;     ///< noise-rule count
};

struct FuzzPlan {
  std::uint64_t seed = 0;
  int machines = 2;
  /// Fabric shape (vmm::HierarchicalFabric).  0 = one rack of all
  /// `machines` under one spine.  > 0 = racks of this size under `spines`
  /// spines, putting the deterministic ECMP tie-break under every oracle.
  /// Drawn from a dedicated sub-stream so every one-rack plan (and thus
  /// every existing corpus seed's plan) is unchanged.
  int machines_per_rack = 0;
  int spines = 0;
  int waves = 1;
  std::vector<FlowPlan> flows;
  std::vector<ActionPlan> actions;
  /// Base cost model, shared verbatim by every paired run.
  sim::CostModel costs;

  // ---- shape draws for this seed (consumed by the oracle pairing) ------
  int alt_shards = 2;        ///< shards oracle: shards=alt vs shards=1
  unsigned alt_workers = 2;

  /// One-line-per-field human dump (plan-determinism tests, repro logs).
  [[nodiscard]] std::string describe() const;
};

/// Pure function of the seed: two calls with one seed yield one plan.
[[nodiscard]] FuzzPlan generate_plan(std::uint64_t seed);

}  // namespace nestv::fuzz

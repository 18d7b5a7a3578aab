// World execution: one FuzzPlan run under one RunShape.
//
// run_world() builds the full simulated datacenter a plan describes —
// conductor, the ToR/spine fabric, one testbed per machine, the flows — drives
// the plan's traffic waves to quiescence, applies the scheduled actions at
// the drained wave boundaries, and distils the execution into two digests:
//
//   strict    every counter the world exposes (per-stack forwarding stats,
//             netfilter traversals, conntrack sizes, bridge floods, FDB
//             sizes, flowcache stats, fabric switch counters, per-flow
//             latencies, engine event totals, the final clock).  Two runs that must be
//             bit-identical (same timing model, different execution shape)
//             compare strict digests.
//   semantic  application outcomes only (per-flow transactions and
//             delivered bytes).  Runs with different timing models
//             (flowcache, oncache or stack backend on/off) compare semantic
//             digests: latency may move, delivered work may not.
//
// The wave machinery is what makes the action schedule sound: a wave is
// count-bounded (each flow performs a fixed number of transactions or
// sends a fixed number of messages), so the world reaches true engine
// idle after every wave, and actions apply at a quiescent instant that is
// the same world state in every paired run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/digest.hpp"
#include "fuzz/plan.hpp"
#include "sim/time.hpp"

namespace nestv::fuzz {

/// The execution shape of one run: everything the differential oracles
/// vary while holding the plan fixed.
struct RunShape {
  int shards = 1;
  unsigned workers = 1;
  bool flowcache = false;
  /// Pod fragments run net::FastPathStack instead of the full stack.  The
  /// backend oracle compares this shape's *semantic* digest against the
  /// baseline: delivered work must match even though the compact pipeline
  /// has no netfilter/GRO and different per-packet costs.
  bool fastpath_pods = false;
  /// Enables the ONCache encap/decap fast path on every overlay flow's
  /// caches.  The oncache oracle compares this shape's *semantic* digest
  /// against the baseline: cached encap/decap moves timing, not outcomes.
  bool oncache = false;
  std::string label;          ///< for failure reports ("A", "B", ...)
};

struct WorldResult {
  Digest strict;
  Digest semantic;
  /// In-world invariant violations: wave failed to quiesce, deployment
  /// timed out, stale flowcache entry, packet-pool leak on teardown.
  std::vector<std::string> invariant_failures;
  /// False when the run aborted early (deployment/quiesce failure);
  /// digests are then partial and must not be compared.
  bool completed = false;
};

/// Runs the plan under `shape`.  `flow_mask` / `action_mask` select which
/// flows and actions participate (bit k = plan.flows[k] / plan.actions[k]);
/// the minimizer shrinks a failure by clearing bits.  Masks must be
/// identical across the runs an oracle compares.
[[nodiscard]] WorldResult run_world(const FuzzPlan& plan,
                                    const RunShape& shape,
                                    std::uint64_t flow_mask = ~0ULL,
                                    std::uint64_t action_mask = ~0ULL);

}  // namespace nestv::fuzz

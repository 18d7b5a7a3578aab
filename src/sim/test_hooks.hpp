// Test-only fault-injection hooks for the differential-oracle harness.
//
// Each flag, when set, re-introduces one bug class the codebase's
// equivalence invariants were built to exclude.  They exist so the fuzz
// oracles (src/fuzz) can prove they are able to fail: a harness that has
// never caught a real divergence is indistinguishable from one that
// compares nothing.  Production code paths read the flags but never set
// them; only tests and `fuzz_runner --inject-bug` flip them, and always
// restore them to false.
//
// The flags are plain (non-atomic) bools: they are toggled only while no
// simulation is running, and a sharded run's worker threads are spawned
// after the toggle and joined before the next one (ShardedConductor's
// persistent pool starts on the first multi-shard run_until after
// construction and joins in the destructor, and each world builds its own
// conductor), so thread creation/join orders the writes.
#pragma once

namespace nestv::sim::test_hooks {

/// Wire transmits drop their (link rank, link seq) ordering key and fall
/// back to plain scheduling / unkeyed mail.  Same-nanosecond arrivals at a
/// shared device then fire in schedule order (single engine) vs
/// (src shard, post order) drain order (conductor) — the ordering bug the
/// keyed delivery of DESIGN.md section 10 fixes.  Caught by the shards
/// oracle.
inline bool unkeyed_wire_delivery = false;

/// NetworkStack ignores netfilter rule-table mutations instead of flushing
/// the matching flow-cache entries: a flow whose path was cached before a
/// DROP rule landed keeps forwarding from the cache.  Caught by the
/// flowcache oracle (flowcache-on diverges semantically from
/// flowcache-off).
inline bool skip_flowcache_rule_invalidation = false;

/// FullStack ignores netfilter rule-table mutations for the *overlay*
/// fast-path cache (net/oncache) while still flushing the flowcache: a
/// DROP rule landing on the outer VXLAN flow no longer flushes the cached
/// encap/decap entries, so cached overlay traffic keeps bypassing the
/// hooks.  Caught by the oncache oracle (oncache-on diverges semantically
/// from oncache-off).
inline bool skip_oncache_rule_invalidation = false;

/// VxlanDevice::add_remote skips the cached-entry flush when an inner MAC
/// moves to a new VTEP: egress entries keep encapsulating toward the old
/// endpoint.  Exercised by the oncache unit tests (stale-VTEP delivery).
inline bool skip_oncache_vtep_invalidation = false;

/// LookaheadMatrix::finalize doubles every closed bound — the matrix
/// understates how soon a neighbour can interfere, so conductor windows
/// overrun true cross-shard arrival times.  Frames then land in a shard's
/// past; the engine clamps them to "now" and they fire late, which the
/// shards oracle detects as a digest divergence against the shards=1
/// baseline.  This is the bug class a miscomputed lookahead entry (or a
/// missed note_cross_link) would introduce.
inline bool lookahead_matrix_overrun = false;

/// FastPathStack duplicates every Nth locally-delivered UDP datagram — a
/// classic fast-path bug class (retry/queue logic delivering a payload
/// twice) that keeps the run quiescing (closed-loop RR waves still
/// complete; transaction counts inflate).  Caught by the backend oracle:
/// the FastPath shape's semantic digest diverges from the FullStack
/// baseline while its own rerun stays bit-identical.
inline bool faststack_dup_udp_delivery = false;

/// Restores every hook to its production value.
inline void reset() {
  unkeyed_wire_delivery = false;
  skip_flowcache_rule_invalidation = false;
  skip_oncache_rule_invalidation = false;
  skip_oncache_vtep_invalidation = false;
  lookahead_matrix_overrun = false;
  faststack_dup_udp_delivery = false;
}

}  // namespace nestv::sim::test_hooks

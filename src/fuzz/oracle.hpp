// The differential oracles: one seed, paired execution shapes, determinism
// as the ground truth.
//
// For a seed's FuzzPlan, run_case() executes the plan under a set of
// shapes and asserts the equivalences the simulation engine guarantees:
//
//   shards     shards=alt_shards (alt_workers threads) is STRICTLY equal
//              to shards=1 — the conservative-PDES determinism claim.
//   flowcache  flowcache=on is SEMANTICALLY equal to flowcache=off, and
//              the combined shape (shards=alt, fc=on) is
//              STRICTLY reproduced by its shards=1 twin.
//   backend    pods on FastPathStack are SEMANTICALLY equal to pods on
//              the full stack (the StackBackend seam must not change
//              delivered work — only timing), and the fast-path shape
//              re-runs STRICTLY equal to itself.
//   oncache    the ONCache overlay fast path enabled is SEMANTICALLY
//              equal to disabled (cached encap/decap moves timing, not
//              application outcomes — including across rule edits, which
//              must invalidate the cached paths), and the cached shape
//              re-runs STRICTLY equal to itself.  Evaluated only for
//              plans whose masked flow set contains an overlay flow.
//
// Every run also self-checks invariants (waves quiesce, shards end idle,
// cached fast paths keep live conntrack backings, the packet pool returns
// to its pre-run level on teardown); violations surface as failures with
// oracle name "invariant".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nestv::fuzz {

// Bit 1 belonged to a retired oracle; the others keep their values because
// corpus repros hard-code them.
inline constexpr std::uint32_t kOracleShards = 1U << 0;
inline constexpr std::uint32_t kOracleFlowcache = 1U << 2;
inline constexpr std::uint32_t kOracleBackend = 1U << 3;
inline constexpr std::uint32_t kOracleOncache = 1U << 4;
inline constexpr std::uint32_t kOracleAll =
    kOracleShards | kOracleFlowcache | kOracleBackend | kOracleOncache;

/// A reproducible fuzz case: the seed plus the participation masks the
/// minimizer shrinks, plus which oracles to evaluate.
struct CaseSpec {
  std::uint64_t seed = 0;
  std::uint64_t flow_mask = ~0ULL;
  std::uint64_t action_mask = ~0ULL;
  std::uint32_t oracle_mask = kOracleAll;
};

struct Failure {
  /// "shards", "flowcache", "backend", "oncache" or "invariant".
  std::string oracle;
  std::string detail;
};

struct CaseResult {
  std::vector<Failure> failures;
  [[nodiscard]] bool clean() const { return failures.empty(); }
  /// True if any failure belongs to `oracle`.
  [[nodiscard]] bool failed(const std::string& oracle) const;
  [[nodiscard]] std::string report() const;
};

/// Runs the paired shapes for `spec` and returns every divergence and
/// invariant violation found.  Deterministic: same spec, same result.
[[nodiscard]] CaseResult run_case(const CaseSpec& spec);

}  // namespace nestv::fuzz

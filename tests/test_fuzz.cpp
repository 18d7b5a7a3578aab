// Tests for the nestv::fuzz subsystem: plan generation, world execution,
// the differential oracles, the injected-bug self-tests and the seeding /
// leak-accounting infrastructure the fuzzer rides on.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fuzz/minimize.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/plan.hpp"
#include "fuzz/world.hpp"
#include "net/bridge.hpp"
#include "net/packet_pool.hpp"
#include "sim/rng.hpp"
#include "sim/test_hooks.hpp"

namespace {

using namespace nestv;

/// Restores every injected-bug hook no matter how the test exits.
struct HookGuard {
  HookGuard() { sim::test_hooks::reset(); }
  ~HookGuard() { sim::test_hooks::reset(); }
};

// ---- sim::Rng stream derivation ------------------------------------------

TEST(RngStreams, MixIsDeterministicAndStreamSensitive) {
  EXPECT_EQ(sim::Rng::mix(42, 7), sim::Rng::mix(42, 7));
  EXPECT_NE(sim::Rng::mix(42, 7), sim::Rng::mix(42, 8));
  EXPECT_NE(sim::Rng::mix(42, 7), sim::Rng::mix(43, 7));
  // The derivation must actually mix: sequential seeds with sequential
  // streams must not collide (the ad-hoc xor mixes it replaced did).
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    for (std::uint64_t stream = 0; stream < 64; ++stream) {
      seen.insert(sim::Rng::mix(seed, stream));
    }
  }
  EXPECT_EQ(seen.size(), 64u * 64u);
}

TEST(RngStreams, OfStreamMatchesMix) {
  sim::Rng a = sim::Rng::of_stream(99, 3);
  sim::Rng b(sim::Rng::mix(99, 3));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// ---- Fdb::flush -----------------------------------------------------------

TEST(FdbFlush, EvictsEverythingAndNotifies) {
  net::Fdb fdb;
  std::set<std::string> evicted;
  fdb.set_eviction_listener(
      [&evicted](net::MacAddress mac) { evicted.insert(mac.to_string()); });
  fdb.learn(net::MacAddress::local_from_id(1), 1, 0);
  fdb.learn(net::MacAddress::local_from_id(2), 2, 0);
  fdb.learn(net::MacAddress::local_from_id(3), 3, 0);
  EXPECT_EQ(fdb.size(), 3u);
  EXPECT_EQ(fdb.flush(), 3u);
  EXPECT_EQ(fdb.size(), 0u);
  EXPECT_EQ(evicted.size(), 3u);
  EXPECT_EQ(fdb.lookup(net::MacAddress::local_from_id(2), 0), -1);
}

// ---- plan generation ------------------------------------------------------

TEST(FuzzPlan, DeterministicPerSeed) {
  for (std::uint64_t seed : {0ULL, 1ULL, 17ULL, 123456789ULL}) {
    const fuzz::FuzzPlan a = fuzz::generate_plan(seed);
    const fuzz::FuzzPlan b = fuzz::generate_plan(seed);
    EXPECT_EQ(a.describe(), b.describe()) << "seed " << seed;
  }
}

TEST(FuzzPlan, SeedsDiffer) {
  EXPECT_NE(fuzz::generate_plan(1).describe(),
            fuzz::generate_plan(2).describe());
}

TEST(FuzzPlan, SoundnessRules) {
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const fuzz::FuzzPlan plan = fuzz::generate_plan(seed);
    ASSERT_GE(plan.machines, 2);
    ASSERT_GE(plan.waves, 1);
    ASSERT_FALSE(plan.flows.empty());
    for (const fuzz::FlowPlan& f : plan.flows) {
      ASSERT_EQ(int(f.wave_work.size()), plan.waves);
      if (f.mode == fuzz::FlowMode::kHostloRr ||
          f.mode == fuzz::FlowMode::kOverlayRr) {
        // Hostlo spans two VMs of one machine; the overlay pair tunnels
        // between two VMs of one machine the same way.
        EXPECT_EQ(f.cli_machine, f.srv_machine);
      } else {
        EXPECT_NE(f.cli_machine, f.srv_machine);
      }
    }
    for (const fuzz::ActionPlan& a : plan.actions) {
      ASSERT_GE(a.boundary, 0);
      ASSERT_LT(a.boundary, plan.waves - 1);  // boundaries between waves
      if (a.kind == fuzz::ActionKind::kAddDropRule) {
        // DROP only where the verdict is deterministic: the forwarding
        // host stack of a BrFusion flow, or the VTEP-datagram INPUT
        // chain of an overlay flow's server VM.
        ASSERT_GE(a.flow, 0);
        const auto mode = plan.flows[std::size_t(a.flow)].mode;
        EXPECT_TRUE(mode == fuzz::FlowMode::kBrFusionRr ||
                    mode == fuzz::FlowMode::kOverlayRr)
            << "drop rule targets flow mode " << int(mode);
      }
      if (a.kind == fuzz::ActionKind::kNicUnplug) {
        // Unplugged flows are retired: no work after the boundary.
        ASSERT_GE(a.flow, 0);
        const fuzz::FlowPlan& f = plan.flows[std::size_t(a.flow)];
        for (int w = a.boundary + 1; w < plan.waves; ++w) {
          EXPECT_EQ(f.wave_work[std::size_t(w)], 0u);
        }
      }
    }
  }
}

// ---- world execution ------------------------------------------------------

TEST(FuzzWorld, BaseRunCompletesAndDoesWork) {
  HookGuard guard;
  const fuzz::FuzzPlan plan = fuzz::generate_plan(0);
  fuzz::RunShape shape;
  shape.label = "A";
  const fuzz::WorldResult r = fuzz::run_world(plan, shape);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.invariant_failures.empty());
  std::uint64_t work = 0;
  for (const auto& [key, value] : r.semantic.entries()) work += value;
  EXPECT_GT(work, 0u) << "seed 0 moved no traffic";
}

TEST(FuzzWorld, ReRunnableInProcessWithoutLeaks) {
  HookGuard guard;
  const fuzz::FuzzPlan plan = fuzz::generate_plan(3);
  fuzz::RunShape shape;
  shape.shards = plan.alt_shards;
  shape.workers = plan.alt_workers;
  const std::int64_t before = net::PacketPool::live_nodes();
  const fuzz::WorldResult r1 = fuzz::run_world(plan, shape);
  EXPECT_EQ(net::PacketPool::live_nodes(), before);
  const fuzz::WorldResult r2 = fuzz::run_world(plan, shape);
  EXPECT_EQ(net::PacketPool::live_nodes(), before);
  ASSERT_TRUE(r1.completed);
  ASSERT_TRUE(r2.completed);
  // Same plan, same shape, same process: bit-identical.
  EXPECT_EQ(r1.strict.first_difference(r2.strict), "");
  EXPECT_EQ(r1.strict.hash(), r2.strict.hash());
}

// ---- oracles: clean engine passes ----------------------------------------

TEST(FuzzOracle, CleanSeedsPass) {
  HookGuard guard;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    fuzz::CaseSpec spec;
    spec.seed = seed;
    const fuzz::CaseResult r = fuzz::run_case(spec);
    EXPECT_TRUE(r.clean()) << "seed " << seed << ":\n" << r.report();
  }
}

// ---- oracles: each one catches its injected bug class ---------------------
//
// These are the fuzzer's teeth. Each deliberately-injected bug (behind a
// test-only hook) must be caught by the oracle built for its class within
// a bounded seed scan — otherwise the oracle is decorative.

TEST(FuzzOracle, ShardsOracleCatchesUnkeyedWireDelivery) {
  HookGuard guard;
  sim::test_hooks::unkeyed_wire_delivery = true;
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 20 && !caught; ++seed) {
    fuzz::CaseSpec spec;
    spec.seed = seed;
    spec.oracle_mask = fuzz::kOracleShards;
    caught = fuzz::run_case(spec).failed("shards");
  }
  EXPECT_TRUE(caught)
      << "no seed in 0..20 exposed unkeyed wire delivery";
}

TEST(FuzzOracle, ShardsOracleCatchesLookaheadMatrixOverrun) {
  // A lookahead matrix that understates neighbour influence (every closed
  // bound doubled) lets conductor windows overrun true cross-shard
  // arrivals: frames land in a shard's past, are clamped to "now", and
  // fire late.  The shards=1 baseline has no conductor windows, so the
  // strict digest diverges.  Seeds whose shape draw forces the scalar
  // fallback don't consult the matrix — the scan just skips past them.
  HookGuard guard;
  sim::test_hooks::lookahead_matrix_overrun = true;
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 40 && !caught; ++seed) {
    fuzz::CaseSpec spec;
    spec.seed = seed;
    spec.oracle_mask = fuzz::kOracleShards;
    caught = fuzz::run_case(spec).failed("shards");
  }
  EXPECT_TRUE(caught)
      << "no seed in 0..40 exposed the lookahead-matrix overrun";
}

TEST(FuzzOracle, FlowcacheOracleCatchesSkippedInvalidation) {
  HookGuard guard;
  sim::test_hooks::skip_flowcache_rule_invalidation = true;
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 40 && !caught; ++seed) {
    fuzz::CaseSpec spec;
    spec.seed = seed;
    spec.oracle_mask = fuzz::kOracleFlowcache;
    caught = fuzz::run_case(spec).failed("flowcache");
  }
  EXPECT_TRUE(caught)
      << "no seed in 0..40 exposed skipped rule invalidation";
}

TEST(FuzzOracle, OncacheOracleCatchesSkippedInvalidation) {
  HookGuard guard;
  sim::test_hooks::skip_oncache_rule_invalidation = true;
  bool caught = false;
  for (std::uint64_t seed = 0; seed < 40 && !caught; ++seed) {
    fuzz::CaseSpec spec;
    spec.seed = seed;
    spec.oracle_mask = fuzz::kOracleOncache;
    caught = fuzz::run_case(spec).failed("oncache");
  }
  EXPECT_TRUE(caught)
      << "no seed in 0..40 exposed skipped oncache invalidation";
}

// ---- minimization ---------------------------------------------------------

TEST(FuzzMinimize, ShrinksInjectedFlowcacheFailure) {
  HookGuard guard;
  sim::test_hooks::skip_flowcache_rule_invalidation = true;
  // Find a failing seed first, as the runner does.
  std::uint64_t failing = ~0ULL;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    fuzz::CaseSpec spec;
    spec.seed = seed;
    spec.oracle_mask = fuzz::kOracleFlowcache;
    if (fuzz::run_case(spec).failed("flowcache")) {
      failing = seed;
      break;
    }
  }
  ASSERT_NE(failing, ~0ULL);
  fuzz::CaseSpec spec;
  spec.seed = failing;
  spec.oracle_mask = fuzz::kOracleFlowcache;
  const auto min = fuzz::minimize(spec);
  ASSERT_TRUE(min.has_value());
  EXPECT_EQ(min->oracle, "flowcache");
  EXPECT_FALSE(min->detail.empty());
  // The minimized case must still fail...
  EXPECT_TRUE(fuzz::run_case(min->spec).failed("flowcache"));
  // ...and must be 1-minimal over actions: clearing any surviving action
  // bit makes the failure disappear.
  const fuzz::FuzzPlan plan = fuzz::generate_plan(failing);
  for (int a = 0; a < int(plan.actions.size()); ++a) {
    if ((min->spec.action_mask >> a & 1) == 0) continue;
    fuzz::CaseSpec trial = min->spec;
    trial.action_mask &= ~(1ULL << a);
    EXPECT_FALSE(fuzz::run_case(trial).failed("flowcache"))
        << "action " << a << " is removable";
  }
}

TEST(FuzzMinimize, CleanCaseYieldsNothing) {
  HookGuard guard;
  fuzz::CaseSpec spec;
  spec.seed = 0;
  EXPECT_FALSE(fuzz::minimize(spec).has_value());
}

}  // namespace

// Sharded-conductor contract tests.
//
// The contract (DESIGN.md section 10): a sharded run is bit-identical to
// the single-engine run of the same world, and independent of the worker
// thread count.  These tests exercise the conductor mechanics directly
// (windows, mailbox ordering, lookahead jumping), a two-machine fabric
// world against its single-engine twin, and the full datacenter macro
// scenario across shard and worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "scenario/datacenter_macro.hpp"
#include "scenario/macro_scale.hpp"
#include "sim/sharded_conductor.hpp"
#include "sim/test_hooks.hpp"

namespace nestv {
namespace {

::testing::AssertionResult BitsEqual(const char* a_expr, const char* b_expr,
                                     double a, double b) {
  std::uint64_t ab = 0, bb = 0;
  static_assert(sizeof(a) == sizeof(ab));
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ab == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a_expr << " and " << b_expr << " differ: " << a << " vs " << b;
}

#define EXPECT_BITS_EQ(a, b) EXPECT_PRED_FORMAT2(BitsEqual, a, b)

// ---- conductor mechanics -----------------------------------------------

TEST(ShardedConductor, SingleShardIsThePlainEngine) {
  sim::ShardedConductor c(1, 2000);
  EXPECT_EQ(c.shards(), 1);
  EXPECT_EQ(c.worker_threads(), 1u);
  std::vector<int> order;
  c.shard(0).schedule_in(10, [&] { order.push_back(1); });
  c.shard(0).schedule_in(5, [&] { order.push_back(0); });
  c.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(c.shard(0).now(), 100u);
  EXPECT_EQ(c.total_events(), 2u);
}

TEST(ShardedConductor, CrossShardPostFiresAtItsInstant) {
  sim::ShardedConductor c(2, 1000, 2);
  std::vector<std::uint64_t> fired;
  c.shard(0).schedule_at(500, [&c, &fired] {
    // Event at t=500 on shard 0 mails shard 1 one lookahead ahead.
    c.post(0, 1, 500 + 1000, [&c, &fired] {
      fired.push_back(c.shard(1).now());
    });
  });
  c.run_until(10000);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1500u);
  EXPECT_EQ(c.shard(0).now(), 10000u);
  EXPECT_EQ(c.shard(1).now(), 10000u);
  EXPECT_EQ(c.cross_posts(), 1u);
}

TEST(ShardedConductor, MailDrainsInWhenThenSourceThenPostOrder) {
  // Three shards mail shard 2 from the same window; deliveries must sort
  // by (when, src_shard, post order) regardless of posting interleave.
  sim::ShardedConductor c(3, 100, 1);  // one worker: fixed drain schedule
  std::vector<int> order;
  c.shard(0).schedule_at(10, [&] {
    c.post(0, 2, 300, [&order] { order.push_back(10); });
    c.post(0, 2, 200, [&order] { order.push_back(0); });
    c.post(0, 2, 200, [&order] { order.push_back(1); });
  });
  c.shard(1).schedule_at(10, [&] {
    c.post(1, 2, 200, [&order] { order.push_back(2); });
  });
  c.run_until(1000);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10}));
}

TEST(ShardedConductor, IdleStretchesSkipInOneWindow) {
  // Two events a second apart with L=1000ns must not cost a million
  // epochs: the window jumps to the global minimum next event.
  sim::ShardedConductor c(2, 1000, 1);
  int fired = 0;
  c.shard(0).schedule_at(sim::seconds(1), [&] { ++fired; });
  c.shard(1).schedule_at(sim::seconds(2), [&] { ++fired; });
  c.run_until(sim::seconds(3));
  EXPECT_EQ(fired, 2);
  EXPECT_LT(c.epochs(), 10u);
}

TEST(ShardedConductor, WorkerCountDoesNotChangeDelivery) {
  auto run = [](unsigned workers) {
    sim::ShardedConductor c(4, 500, workers);
    // One slot per destination shard: each is written only by its owning
    // worker, so the records are race-free and comparable across runs.
    std::vector<std::uint64_t> log(4, 0);
    for (int s = 0; s < 4; ++s) {
      c.shard(s).schedule_at(std::uint64_t(100 + s), [&c, s, &log] {
        const int dst = (s + 1) % 4;
        c.post(s, dst, c.shard(s).now() + 500 + std::uint64_t(s),
               [&c, dst, s, &log] {
                 log[std::size_t(dst)] =
                     c.shard(dst).now() * 10 + std::uint64_t(s);
               });
      });
    }
    c.run_until(5000);
    return log;
  };
  const auto one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(4));
}

// ---- lookahead matrix ---------------------------------------------------

constexpr sim::TimePoint kNever = std::numeric_limits<sim::TimePoint>::max();

TEST(LookaheadMatrix, DegenerateSingleShardUsesScalarCycle) {
  sim::LookaheadMatrix m(1, 1000);
  m.finalize();
  EXPECT_FALSE(m.has_links());
  EXPECT_EQ(m.bound(0, 0), 2000u);
  const sim::TimePoint next[] = {500};
  // The self-pair cycle is the only constraint: 500 + 2000 - 1.
  EXPECT_EQ(m.window_end(0, next, 100000), 2499u);
  EXPECT_EQ(m.window_end(0, next, 1200), 1200u);  // deadline clamps
}

TEST(LookaheadMatrix, AsymmetricPairBoundsAndWindows) {
  sim::LookaheadMatrix m(2, 1);
  m.note_link(0, 1, 100);
  m.note_link(1, 0, 700);
  m.finalize();
  ASSERT_TRUE(m.has_links());
  EXPECT_EQ(m.bound(0, 1), 100u);
  EXPECT_EQ(m.bound(1, 0), 700u);
  // Self-pair = shortest cycle through the shard: 100 + 700 both ways.
  EXPECT_EQ(m.bound(0, 0), 800u);
  EXPECT_EQ(m.bound(1, 1), 800u);

  const sim::TimePoint next[] = {1000, 2000};
  // wend(0) = min(1000 + 800, 2000 + 700) - 1; the tighter constraint is
  // shard 0's own reflected traffic.
  EXPECT_EQ(m.window_end(0, next, 100000), 1799u);
  // wend(1) = min(1000 + 100, 2000 + 800) - 1; shard 0's cheap wire into
  // shard 1 dominates even though shard 1 itself is far ahead.
  EXPECT_EQ(m.window_end(1, next, 100000), 1099u);
  EXPECT_EQ(m.window_end(0, next, 1500), 1500u);  // deadline clamps
}

TEST(LookaheadMatrix, ClosureIsTransitiveAndUnreachableUnconstrained) {
  // A one-way chain 0 -> 1 -> 2: the closure gives 0 -> 2, nothing flows
  // backwards, and no cycle exists anywhere.
  sim::LookaheadMatrix m(3, 1);
  m.note_link(0, 1, 100);
  m.note_link(1, 2, 200);
  m.finalize();
  EXPECT_EQ(m.bound(0, 2), 300u);
  EXPECT_EQ(m.bound(2, 0), sim::LookaheadMatrix::kUnreachable);
  EXPECT_EQ(m.bound(1, 0), sim::LookaheadMatrix::kUnreachable);
  EXPECT_EQ(m.bound(0, 0), sim::LookaheadMatrix::kUnreachable);

  const sim::TimePoint next[] = {50, kNever, kNever};
  // Shard 0 is unconstrained (no cycle, upstream shards idle): full window.
  EXPECT_EQ(m.window_end(0, next, 7777), 7777u);
  EXPECT_EQ(m.window_end(1, next, 7777), 149u);   // 50 + 100 - 1
  EXPECT_EQ(m.window_end(2, next, 7777), 349u);   // 50 + 300 - 1
}

TEST(LookaheadMatrix, IdleShardsImposeNoConstraint) {
  sim::LookaheadMatrix m(2, 1);
  m.note_link(0, 1, 100);
  m.note_link(1, 0, 100);
  m.finalize();
  const sim::TimePoint all_idle[] = {kNever, kNever};
  EXPECT_EQ(m.window_end(0, all_idle, 424242), 424242u);
  // A horizon near the top of the time axis saturates instead of wrapping.
  const sim::TimePoint huge[] = {kNever - 10, kNever};
  EXPECT_EQ(m.window_end(1, huge, 424242), 424242u);
}

TEST(LookaheadMatrix, UniformModeFallsBackToScalar) {
  sim::LookaheadMatrix m(2, 1000);
  m.note_link(0, 1, 50000);
  m.note_link(1, 0, 50000);
  m.set_uniform(true);
  m.finalize();
  EXPECT_FALSE(m.has_links());
  EXPECT_EQ(m.bound(0, 1), 1000u);
  EXPECT_EQ(m.bound(0, 0), 2000u);
  // Flipping uniform off restores the closure after re-finalizing.
  m.set_uniform(false);
  m.finalize();
  EXPECT_EQ(m.bound(0, 1), 50000u);
}

// ---- epoch barrier ------------------------------------------------------

TEST(EpochBarrier, SixteenWorkerContentionStress) {
  // Each worker stamps its slot with the round number, crosses the
  // barrier, and checks every other slot carries the same stamp — the
  // barrier must order all pre-barrier writes before all post-barrier
  // reads.  A second barrier keeps the next round's writes from racing
  // the readers.  16 workers on however few cores the host has also
  // exercises the yield path of the backoff.
  constexpr unsigned kWorkers = 16;
  constexpr std::uint64_t kRounds = 200;
  sim::EpochBarrier barrier(kWorkers);
  std::vector<std::uint64_t> slot(kWorkers, 0);
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (unsigned w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (std::uint64_t round = 1; round <= kRounds; ++round) {
        slot[w] = round;
        barrier.arrive_and_wait();
        for (unsigned o = 0; o < kWorkers; ++o) {
          if (slot[o] != round) mismatches.fetch_add(1);
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---- per-pair windows through the conductor -----------------------------

TEST(ShardedConductor, PerPairLookaheadWidensWindowsOverScalar) {
  // Two busy shards joined by slow 4000ns wires.  With the scalar window
  // (500ns) every epoch advances ~500ns; with the per-pair matrix the
  // window stretches to the wire latency.  Same deliveries either way.
  auto run = [](bool uniform) {
    struct Ticker {
      sim::Engine* e = nullptr;
      sim::TimePoint limit = 0;
      int count = 0;
      void arm() {
        e->schedule_in(100, [this] {
          ++count;
          if (e->now() < limit) arm();
        });
      }
    };
    sim::ShardedConductor c(2, 500, 1);
    c.note_cross_link(0, 1, 4000);
    c.note_cross_link(1, 0, 4000);
    c.set_uniform_window(uniform);
    Ticker t0{&c.shard(0), 20000};
    Ticker t1{&c.shard(1), 20000};
    t0.arm();
    t1.arm();
    std::vector<std::uint64_t> fired;
    c.shard(0).schedule_at(1000, [&c, &fired] {
      c.post(0, 1, 1000 + 4000, [&c, &fired] {
        fired.push_back(c.shard(1).now());
      });
    });
    c.run_until(20000);
    return std::tuple(c.epochs(), t0.count + t1.count, fired);
  };
  const auto [epochs_pairs, ticks_pairs, fired_pairs] = run(false);
  const auto [epochs_scalar, ticks_scalar, fired_scalar] = run(true);
  EXPECT_EQ(ticks_pairs, ticks_scalar);
  ASSERT_EQ(fired_pairs, fired_scalar);
  ASSERT_EQ(fired_pairs.size(), 1u);
  EXPECT_EQ(fired_pairs[0], 5000u);
  // ~20000/4000 epochs vs ~20000/500: at least 4x fewer with the matrix.
  EXPECT_LT(epochs_pairs * 4, epochs_scalar);
}

// ---- two-machine fabric: sharded vs single-engine twin -----------------

struct MacroDigest {
  double transactions, latency, bytes, digest;
  std::uint64_t events;
};

MacroDigest run_macro(int shards, unsigned workers, int machines = 4,
                      int flows = 6) {
  scenario::DatacenterMacroConfig cfg;
  cfg.seed = 11;
  cfg.machines = machines;
  cfg.shards = shards;
  cfg.max_workers = workers;
  cfg.trace_users = 6;
  cfg.flows = flows;
  cfg.measure_window = sim::milliseconds(40);
  const auto r = scenario::run_datacenter_macro(cfg);
  return {r.rr_transactions, r.rr_latency_ns_sum, r.stream_bytes_delivered,
          r.flow_digest, r.events_total};
}

void expect_identical(const MacroDigest& a, const MacroDigest& b) {
  EXPECT_BITS_EQ(a.transactions, b.transactions);
  EXPECT_BITS_EQ(a.latency, b.latency);
  EXPECT_BITS_EQ(a.bytes, b.bytes);
  EXPECT_BITS_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
}

TEST(ShardedMacro, ProducesTraffic) {
  const auto r = run_macro(1, 1);
  EXPECT_GT(r.transactions, 0.0);
  EXPECT_GT(r.bytes, 0.0);
  EXPECT_GT(r.events, 0u);
}

TEST(ShardedMacro, ShardCountIsInvisibleInResults) {
  const auto base = run_macro(1, 1);
  expect_identical(base, run_macro(2, 2));
  expect_identical(base, run_macro(4, 4));
}

TEST(ShardedMacro, WorkerCountIsInvisibleInResults) {
  const auto w1 = run_macro(4, 1);
  expect_identical(w1, run_macro(4, 2));
  expect_identical(w1, run_macro(4, 4));
}

/// A small two-rack macro-scale world (8 machines, 2 spines, 96 flows).
scenario::MacroScaleResult run_macro_smoke(int shards) {
  scenario::MacroScaleConfig cfg;
  cfg.seed = 7;
  cfg.machines = 8;
  cfg.machines_per_rack = 4;
  cfg.spines = 2;
  cfg.trace_users = 12;
  cfg.flows = 96;
  cfg.arrival_window = sim::milliseconds(40);
  cfg.drain = sim::milliseconds(30);
  cfg.tcp_streams = 1;
  cfg.shards = shards;
  cfg.max_workers = static_cast<unsigned>(shards);
  return scenario::run_macro_scale(cfg);
}

TEST(ShardedMacro, MacroSmokeTopologyBitIdenticalAcrossShards) {
  // The macro-scale topology exercises the whole conductor at once:
  // note_cross_link-fed per-pair windows (fabric hop + spine links),
  // distributed spine hosting (FabricConfig::distribute_spines defaults
  // on), and the fused epoch loop.  All of it must be invisible in the
  // simulated outputs.
  const auto base = run_macro_smoke(1);
  const auto sharded = run_macro_smoke(4);
  EXPECT_BITS_EQ(base.flow_digest, sharded.flow_digest);
  EXPECT_BITS_EQ(base.rr_transactions, sharded.rr_transactions);
  EXPECT_BITS_EQ(base.rr_latency_ns_sum, sharded.rr_latency_ns_sum);
  EXPECT_BITS_EQ(base.stream_bytes_delivered, sharded.stream_bytes_delivered);
  EXPECT_BITS_EQ(base.flows_completed, sharded.flows_completed);
  EXPECT_EQ(base.events_total, sharded.events_total);
  // Epoch-loop telemetry is live and consistent.
  EXPECT_GT(sharded.epochs, 0u);
  EXPECT_GT(sharded.cross_posts, 0u);
  EXPECT_EQ(sharded.drained_posts, sharded.cross_posts);
  ASSERT_EQ(sharded.idle_windows.size(), 4u);
  ASSERT_EQ(sharded.barrier_wait_ns.size(), 4u);
}

TEST(ShardedMacro, MacroSmokeNeverClampsAKeyedArrival) {
  // Every cross-shard frame is drained before its destination's clock
  // reaches it, so no keyed delivery lands in an engine's past.
  const auto r = run_macro_smoke(4);
  EXPECT_GT(r.cross_posts, 0u);
  EXPECT_EQ(r.clamped_keyed_events, 0u);
}

TEST(ShardedMacro, LookaheadOverrunShowsUpAsKeyedClamps) {
  // The injected lookahead bug lets windows overrun true arrival times;
  // the late frames are clamped to now, and the count says so.
  sim::test_hooks::lookahead_matrix_overrun = true;
  const auto r = run_macro_smoke(4);
  sim::test_hooks::reset();
  EXPECT_GT(r.clamped_keyed_events, 0u);
  EXPECT_GE(r.clamped_events, r.clamped_keyed_events);
}

TEST(ShardedMacro, ReportsExecutionShape) {
  scenario::DatacenterMacroConfig cfg;
  cfg.seed = 11;
  cfg.machines = 4;
  cfg.shards = 4;
  cfg.max_workers = 2;
  cfg.trace_users = 4;
  cfg.flows = 4;
  cfg.measure_window = sim::milliseconds(20);
  const auto r = scenario::run_datacenter_macro(cfg);
  EXPECT_EQ(r.shards, 4);
  ASSERT_EQ(r.per_shard_events.size(), 4u);
  std::uint64_t sum = 0;
  for (auto e : r.per_shard_events) sum += e;
  EXPECT_EQ(sum, r.events_total);
  EXPECT_GT(r.epochs, 0u);
  EXPECT_GT(r.cross_posts, 0u);
  EXPECT_LE(r.worker_threads, 2u);
}

}  // namespace
}  // namespace nestv

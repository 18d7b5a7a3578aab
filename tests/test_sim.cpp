// Unit tests for the discrete-event simulation core (src/sim).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace nestv::sim {
namespace {

// ---- time -------------------------------------------------------------------

TEST(Time, UnitConversions) {
  EXPECT_EQ(microseconds(1), 1000u);
  EXPECT_EQ(milliseconds(1), 1000u * 1000u);
  EXPECT_EQ(seconds(1), 1000u * 1000u * 1000u);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(2)), 2.0);
}

TEST(Time, FromSecondsClampsNegative) {
  EXPECT_EQ(from_seconds(-1.0), 0u);
  EXPECT_EQ(from_seconds(1.5), milliseconds(1500));
}

TEST(Time, FormatPicksUnit) {
  EXPECT_EQ(format_duration(nanoseconds(12)), "12 ns");
  EXPECT_EQ(format_duration(microseconds(3)), "3.000 us");
  EXPECT_EQ(format_duration(milliseconds(5)), "5.000 ms");
  EXPECT_EQ(format_duration(seconds(2)), "2.000 s");
}

// ---- event queue -------------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameInstantRunsInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(10, [&] { ran = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  // Regression: a timer that cancels itself from its own callback must not
  // corrupt the live count (this deadlocked the GRO flush path once).
  EventQueue q;
  EventId self = 0;
  q.schedule(5, [&] { /* fires */ });
  self = q.schedule(10, [&] {});
  bool later_ran = false;
  q.schedule(20, [&] { later_ran = true; });

  q.pop_and_run();  // t=5
  q.pop_and_run();  // t=10 (self)
  q.cancel(self);   // cancelling the already-fired id
  ASSERT_FALSE(q.empty());
  q.pop_and_run();  // t=20 must still run
  EXPECT_TRUE(later_ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUnknownIdIsNoOp) {
  EventQueue q;
  q.schedule(1, [] {});
  q.cancel(9999);
  q.cancel(0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId first = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(first);
  EXPECT_EQ(q.next_time(), 20u);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const auto a = q.schedule(1, [] {});
  q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_EQ(q.size(), 0u);
}

// ---- engine ------------------------------------------------------------------

TEST(Engine, ClockAdvancesWithEvents) {
  Engine e;
  TimePoint seen = 0;
  e.schedule_in(100, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, RunUntilLeavesLaterEvents) {
  Engine e;
  int ran = 0;
  e.schedule_in(10, [&] { ++ran; });
  e.schedule_in(1000, [&] { ++ran; });
  e.run_until(500);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(e.now(), 500u);
  EXPECT_EQ(e.pending_events(), 1u);
  e.run();
  EXPECT_EQ(ran, 2);
}

TEST(Engine, ScheduleAtPastClampsToNow) {
  Engine e;
  e.schedule_in(100, [] {});
  e.run();
  bool ran = false;
  e.schedule_at(50, [&] { ran = true; });  // in the past
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now(), 100u);
}

TEST(Engine, CountsClampedInstants) {
  Engine e;
  e.schedule_in(100, [] {});
  e.run();
  e.schedule_at(100, [] {});  // now: not a clamp
  e.schedule_at(50, [] {});
  e.schedule_at_keyed(60, 1, [] {});
  e.run();
  EXPECT_EQ(e.clamped_events(), 2u);
  EXPECT_EQ(e.clamped_keyed_events(), 1u);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) e.schedule_in(10, recurse);
  };
  e.schedule_in(10, recurse);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 50u);
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  for (int i = 0; i < 7; ++i) e.schedule_in(i, [] {});
  e.run();
  EXPECT_EQ(e.events_executed(), 7u);
}

// ---- rng ----------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntWithinBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const auto x = r.uniform_int(5, 9);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 9u);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng r(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform_int(42, 42), 42u);
}

TEST(Rng, ChanceEdges) {
  Rng r(7);
  EXPECT_FALSE(r.chance(0.0));
  EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, ExponentialMeanApproximate) {
  Rng r(7);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(Rng, NormalMomentsApproximate) {
  Rng r(7);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMedianApproximate) {
  Rng r(7);
  Samples s;
  for (int i = 0; i < 50000; ++i) s.add(r.lognormal(3.0, 0.5));
  EXPECT_NEAR(s.median(), std::exp(3.0), std::exp(3.0) * 0.05);
}

TEST(Rng, ParetoLowerBound) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(r.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ForkIsIndependent) {
  Rng a(99);
  Rng child = a.fork();
  // Forked stream differs from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == child.next_u64();
  EXPECT_LT(same, 2);
}

// ---- stats --------------------------------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  Rng r(3);
  RunningStats a, b, combined;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.normal(10, 3);
    if (i % 2 == 0) {
      a.add(x);
    } else {
      b.add(x);
    }
    combined.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), combined.stddev(), 1e-9);
}

TEST(RunningStats, CvIsStddevOverMean) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.cv(), s.stddev() / s.mean());
}

TEST(Samples, PercentileExactness) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(25), 25.75, 1e-9);
}

TEST(Samples, UnsortedInputHandled) {
  Samples s;
  s.add(5);
  s.add(1);
  s.add(3);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Samples, ValuesKeepInsertionOrderAcrossQuantileQueries) {
  // Regression: percentile()/min()/max() used to sort the sample vector in
  // place, so values() silently returned sorted data after the first
  // quantile query.  Interleave mutation and queries and check the
  // insertion order survives every step.
  Samples s;
  const std::vector<double> inserted{5.0, 1.0, 9.0, 3.0, 7.0};
  s.add(inserted[0]);
  s.add(inserted[1]);
  s.add(inserted[2]);
  EXPECT_DOUBLE_EQ(s.median(), 5.0);  // quantile query mid-stream
  EXPECT_EQ(s.values(), (std::vector<double>{5.0, 1.0, 9.0}));
  s.add(inserted[3]);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  s.add(inserted[4]);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 5.0);
  EXPECT_EQ(s.values(), inserted);  // still exactly the insertion order
  // And the quantiles remain correct after the final mutation.
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Samples, BoxStatsOrdering) {
  Samples s;
  Rng r(11);
  for (int i = 0; i < 1000; ++i) s.add(r.lognormal(0, 1));
  const BoxStats b = box_stats(s);
  EXPECT_LE(b.min, b.q1);
  EXPECT_LE(b.q1, b.median);
  EXPECT_LE(b.median, b.q3);
  EXPECT_LE(b.q3, b.max);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamps into bin 0
  h.add(25.0);   // clamps into bin 9
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(9), 10.0);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0.0, 1.0, 2);
  for (int i = 0; i < 5; ++i) h.add(0.1);
  const std::string out = h.render();
  EXPECT_NE(out.find('#'), std::string::npos);
}

// ---- cpu accounting -------------------------------------------------------------

TEST(CpuAccount, ChargesByCategory) {
  CpuAccount acc("x");
  acc.charge(CpuCategory::kUsr, 100);
  acc.charge(CpuCategory::kSoft, 50);
  acc.charge(CpuCategory::kSoft, 25);
  EXPECT_EQ(acc.get(CpuCategory::kUsr), 100u);
  EXPECT_EQ(acc.get(CpuCategory::kSoft), 75u);
  EXPECT_EQ(acc.get(CpuCategory::kSys), 0u);
  EXPECT_EQ(acc.total(), 175u);
}

TEST(CpuAccount, CoresOverWall) {
  CpuAccount acc("x");
  acc.charge(CpuCategory::kGuest, 500);
  EXPECT_DOUBLE_EQ(acc.cores(CpuCategory::kGuest, 1000), 0.5);
  EXPECT_DOUBLE_EQ(acc.total_cores(1000), 0.5);
  EXPECT_DOUBLE_EQ(acc.cores(CpuCategory::kGuest, 0), 0.0);
}

TEST(CpuLedger, AccountsAreStableAndNamed) {
  CpuLedger ledger;
  CpuAccount& a = ledger.account("vm/a");
  ledger.account("vm/b");
  CpuAccount& a2 = ledger.account("vm/a");
  EXPECT_EQ(&a, &a2);
  EXPECT_EQ(ledger.accounts().size(), 2u);
  EXPECT_NE(ledger.find("vm/b"), nullptr);
  EXPECT_EQ(ledger.find("nope"), nullptr);
}

TEST(CpuLedger, RenderHasHeaderAndRows) {
  CpuLedger ledger;
  ledger.account("host").charge(CpuCategory::kSys, seconds(1));
  const std::string out = ledger.render(seconds(1));
  EXPECT_NE(out.find("usr"), std::string::npos);
  EXPECT_NE(out.find("host"), std::string::npos);
}

TEST(CategoryNames, AllDistinct) {
  EXPECT_STREQ(to_string(CpuCategory::kUsr), "usr");
  EXPECT_STREQ(to_string(CpuCategory::kSys), "sys");
  EXPECT_STREQ(to_string(CpuCategory::kSoft), "soft");
  EXPECT_STREQ(to_string(CpuCategory::kGuest), "guest");
}

// ---- serial resource --------------------------------------------------------------

TEST(SerialResource, SerializesWork) {
  Engine e;
  SerialResource r(e, "core");
  std::vector<int> order;
  r.submit(100, [&] { order.push_back(1); });
  r.submit(50, [&] { order.push_back(2); });  // queues behind item 1
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), 150u);
  EXPECT_EQ(r.busy_time(), 150u);
  EXPECT_EQ(r.items_executed(), 2u);
}

TEST(SerialResource, IdleGapNotCounted) {
  Engine e;
  SerialResource r(e, "core");
  r.submit(10, [] {});
  e.run();
  e.schedule_in(1000, [] {});
  e.run();
  r.submit(10, [] {});
  e.run();
  EXPECT_EQ(r.busy_time(), 20u);
  EXPECT_DOUBLE_EQ(r.utilization(e.now()), 20.0 / 1020.0);
}

TEST(SerialResource, ChargesBoundAccounts) {
  Engine e;
  CpuAccount guest("vm"), host("host");
  SerialResource r(e, "vcpu");
  r.bind(guest, CpuCategory::kSoft);
  r.bind(host, CpuCategory::kGuest);
  r.submit_as(CpuCategory::kSoft, 100, [] {});
  e.run();
  // The guest-side sink takes the per-item category; the host sink stays
  // kGuest (host time lent to the VM).
  EXPECT_EQ(guest.get(CpuCategory::kSoft), 100u);
  EXPECT_EQ(host.get(CpuCategory::kGuest), 100u);
  EXPECT_EQ(host.get(CpuCategory::kSoft), 0u);
}

TEST(SerialResource, PerItemCategoryOverride) {
  Engine e;
  CpuAccount acc("app");
  SerialResource r(e, "core");
  r.bind(acc, CpuCategory::kUsr);
  r.submit_as(CpuCategory::kSys, 30, [] {});
  r.submit_as(CpuCategory::kUsr, 70, [] {});
  e.run();
  EXPECT_EQ(acc.get(CpuCategory::kSys), 30u);
  EXPECT_EQ(acc.get(CpuCategory::kUsr), 70u);
}

// ---- cost model ------------------------------------------------------------------

TEST(CostModel, DefaultsAreSane) {
  const CostModel& c = CostModel::defaults();
  EXPECT_GT(c.syscall_pkt, 0u);
  EXPECT_GT(c.vhost_pkt, 0u);
  EXPECT_GT(c.gso_virtio, c.gso_nat_nested);
  EXPECT_GT(c.gso_loopback, c.gso_virtio);
  EXPECT_GT(c.tcp_window_bytes, c.gso_virtio);
  EXPECT_GT(c.nf_standing_rules, 0);
  // The emulated-QEMU path must be costlier than vhost (abl_vhost relies
  // on this ordering).
  EXPECT_GT(c.qemu_emul_pkt, c.vhost_pkt);
}

// ---- property sweeps ----------------------------------------------------------------

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformIntNeverOutOfBounds) {
  Rng r(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto lo = r.uniform_int(0, 100);
    const auto hi = lo + r.uniform_int(0, 100);
    const auto x = r.uniform_int(lo, hi);
    ASSERT_GE(x, lo);
    ASSERT_LE(x, hi);
  }
}

TEST_P(RngSeedSweep, ForkDeterministic) {
  Rng a(GetParam()), b(GetParam());
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 16; ++i) ASSERT_EQ(fa.next_u64(), fb.next_u64());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ull, 1ull, 42ull, 2019ull,
                                           0xdeadbeefull,
                                           0xffffffffffffffffull));

class EventStormSweep : public ::testing::TestWithParam<int> {};

TEST_P(EventStormSweep, AllEventsRunExactlyOnce) {
  Engine e;
  Rng r(static_cast<std::uint64_t>(GetParam()));
  const int n = 500;
  int ran = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(
        e.schedule_in(r.uniform_int(0, 10000), [&ran] { ++ran; }));
  }
  // Cancel a random third.
  int cancelled = 0;
  for (int i = 0; i < n; i += 3) {
    e.cancel(ids[static_cast<std::size_t>(i)]);
    ++cancelled;
  }
  e.run();
  EXPECT_EQ(ran, n - cancelled);
  EXPECT_TRUE(e.idle());
}

INSTANTIATE_TEST_SUITE_P(Storms, EventStormSweep, ::testing::Range(1, 9));

}  // namespace
}  // namespace nestv::sim

// EventQueue stress test: randomized schedule/cancel interleavings checked
// against a deliberately naive reference model.
//
// The production queue is a calendar of three tiers — a 4-ary near heap
// for the current time window, a ring of unsorted buckets for the next
// windows, and a far heap beyond them — over chunked slots that run each
// closure in place, with cancellation by generation mismatch.  The
// reference is a flat vector scanned linearly for the (when, order)
// minimum — too slow to ship, but trivially correct.  Any divergence in
// execution order, fired set, or size accounting is a bug in the clever
// structure, not the model.
//
// Windows are about a microsecond wide and the ring reaches about a
// quarter of a millisecond, so times drawn from 0 to 10 ms land in every
// tier; the episodes below also pin the tier edges: ties at one instant,
// ties across window boundaries, drains that stop between windows, and
// closures that grow the slot storage while they run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace nestv::sim {
namespace {

/// Reference model: O(n) scan for the earliest live event, strict
/// (when, order) order, eager cancellation.  Plain events take the next
/// sequence number in the band above every key, as EventQueue does.
class NaiveQueue {
 public:
  // Returns a model-level id (the index of the entry).
  std::size_t schedule(TimePoint when) {
    return add(when, EventQueue::kKeyLimit | next_seq_++);
  }
  std::size_t schedule_keyed(TimePoint when, std::uint64_t key) {
    return add(when, key);
  }

  void cancel(std::size_t id) { entries_[id].live = false; }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Entry& e : entries_) n += e.live;
    return n;
  }

  /// Earliest live entry.  Precondition: size() > 0.
  [[nodiscard]] std::size_t peek() const {
    std::size_t best = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].live) continue;
      if (best == entries_.size() || earlier(entries_[i], entries_[best])) {
        best = i;
      }
    }
    return best;
  }
  [[nodiscard]] TimePoint when(std::size_t id) const {
    return entries_[id].when;
  }

  /// Pops the earliest live entry; returns its id.
  std::size_t pop_min() {
    const std::size_t best = peek();
    entries_[best].live = false;
    return best;
  }

 private:
  struct Entry {
    TimePoint when;
    std::uint64_t order;
    bool live;
  };
  std::size_t add(TimePoint when, std::uint64_t order) {
    entries_.push_back(Entry{when, order, true});
    return entries_.size() - 1;
  }
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.order < b.order;
  }
  std::vector<Entry> entries_;
  std::uint64_t next_seq_ = 0;
};

/// Drives EventQueue and NaiveQueue with the same operations and checks
/// that they agree after every one.
class Twin {
 public:
  void schedule(TimePoint when) {
    const std::size_t mid = ref_.schedule(when);
    track(mid, q_.schedule(when, fire(mid)));
  }
  void schedule_keyed(TimePoint when, std::uint64_t key) {
    const std::size_t mid = ref_.schedule_keyed(when, key);
    track(mid, q_.schedule_keyed(when, key, fire(mid)));
  }

  /// Cancels the pending event at `idx` of the pending list; with
  /// `twice`, cancels again (must be a no-op in both models).
  void cancel(std::size_t idx, bool twice) {
    const auto [mid, id] = pending_[idx];
    ref_.cancel(mid);
    q_.cancel(id);
    if (twice) q_.cancel(id);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(idx));
  }

  void pop() {
    ASSERT_EQ(q_.next_time(), ref_.when(ref_.peek()));
    now_ = q_.pop_and_run();
    const std::size_t mid = ref_.pop_min();
    fired_ref_.push_back(mid);
    std::erase_if(pending_, [&](const auto& p) { return p.first == mid; });
  }

  /// Runs every event at or before `deadline` the way Engine::run_until
  /// does: peek, stop past the deadline, and leave the clock there.
  void drain_until(TimePoint deadline) {
    while (!q_.empty() && q_.next_time() <= deadline) pop();
    now_ = std::max(now_, deadline);
  }

  void check(int op) const {
    ASSERT_EQ(q_.size(), ref_.size()) << "size diverged at op " << op;
    ASSERT_EQ(q_.empty(), ref_.size() == 0);
    ASSERT_EQ(fired_q_, fired_ref_) << "execution order diverged at op "
                                    << op;
  }

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] bool empty() const { return q_.empty(); }
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::size_t fired() const { return fired_q_.size(); }

 private:
  InlineTask fire(std::size_t mid) {
    return [this, mid] { fired_q_.push_back(mid); };
  }
  void track(std::size_t mid, EventId id) {
    EXPECT_NE(id, 0u) << "EventId 0 is reserved for 'no timer'";
    pending_.emplace_back(mid, id);
  }

  EventQueue q_;
  NaiveQueue ref_;
  std::vector<std::size_t> fired_q_, fired_ref_;
  std::vector<std::pair<std::size_t, EventId>> pending_;
  TimePoint now_ = 0;
};

/// One randomized episode: mixed schedules (with deliberately colliding
/// timestamps), cancellations, and partial drains, then a full drain.
void run_episode(std::uint64_t seed) {
  Rng rng(seed);
  Twin t;
  const int kOps = 2000;
  for (int op = 0; op < kOps; ++op) {
    const auto dice = rng.uniform_int(0, 9);
    if (dice < 5 || t.empty()) {
      // Only 16 distinct timestamps, so same-instant tie-breaking is
      // exercised constantly (and most land in the drained past).
      t.schedule(static_cast<TimePoint>(rng.uniform_int(0, 15)));
    } else if (dice < 8 && t.pending() > 0) {
      // Cancel a random pending event; sometimes twice (the second must
      // be a no-op in both models).
      t.cancel(rng.uniform_int(0, t.pending() - 1), dice == 7);
    } else {
      const int n = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < n && !t.empty(); ++i) t.pop();
    }
    t.check(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (!t.empty()) t.pop();
  t.check(kOps);
}

class EventQueueStress : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueStress, MatchesNaiveReference) {
  run_episode(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueStress, ::testing::Range(0, 12));

/// An instant `now + offset` with the offset drawn from every tier: the
/// current window, the ring, and beyond it — plus clustered instants
/// (exact window edges and recently used times) that force ties.
TimePoint tiered_instant(Rng& rng, TimePoint now,
                         std::vector<TimePoint>& recent) {
  TimePoint when = now;
  switch (rng.uniform_int(0, 5)) {
    case 0:  // same window
      when = now + rng.uniform_int(0, 1000);
      break;
    case 1:  // the ring
      when = now + rng.uniform_int(1000, 250000);
      break;
    case 2:  // beyond the ring, up to 10 ms
      when = now + rng.uniform_int(250000, 10000000);
      break;
    case 3:  // a window boundary: the first or last ns of a window
      when = ((now >> 10) + rng.uniform_int(0, 300)) << 10;
      if (rng.uniform_int(0, 1) == 1) when += 1023;
      break;
    default:  // an instant already in use
      if (!recent.empty()) {
        when = std::max(now, recent[rng.uniform_int(0, recent.size() - 1)]);
      }
      break;
  }
  recent.push_back(when);
  if (recent.size() > 32) recent.erase(recent.begin());
  return when;
}

/// Episode over all three tiers: plain and keyed events, cancels wherever
/// they sit, pops, and drains that stop at a deadline between windows and
/// are followed by schedules before the next pending event.
void run_tiered_episode(std::uint64_t seed) {
  Rng rng(seed);
  Twin t;
  std::vector<TimePoint> recent;
  std::uint64_t keys = 0;
  const int kOps = 4000;
  for (int op = 0; op < kOps; ++op) {
    const auto dice = rng.uniform_int(0, 19);
    if (dice < 8 || t.empty()) {
      t.schedule(tiered_instant(rng, t.now(), recent));
    } else if (dice < 11) {
      // Keys unique per instant: an odd multiplier permutes the counter
      // below kKeyLimit, so key order is unrelated to schedule order.
      const std::uint64_t key =
          (++keys * 0x9E3779B97F4A7C15ull) & (EventQueue::kKeyLimit - 1);
      t.schedule_keyed(tiered_instant(rng, t.now(), recent), key);
    } else if (dice < 14 && t.pending() > 0) {
      t.cancel(rng.uniform_int(0, t.pending() - 1), dice == 13);
    } else if (dice < 17) {
      const int n = static_cast<int>(rng.uniform_int(1, 8));
      for (int i = 0; i < n && !t.empty(); ++i) t.pop();
    } else {
      // Stop anywhere from mid-window to a few hundred windows on, then
      // schedule a burst that lands before whatever is pending next.
      t.drain_until(t.now() + rng.uniform_int(0, 300000));
      const int n = static_cast<int>(rng.uniform_int(1, 6));
      for (int i = 0; i < n; ++i) {
        t.schedule(t.now() + rng.uniform_int(0, 5000));
      }
    }
    t.check(op);
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (!t.empty()) t.pop();
  t.check(kOps);
  EXPECT_GT(t.fired(), 0u);
}

class EventQueueTiers : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueTiers, MatchesNaiveReferenceAcrossTiers) {
  run_tiered_episode(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueTiers, ::testing::Range(0, 8));

TEST(EventQueueStress, KeyedBeforePlainAtOneInstantInEveryTier) {
  // At each instant the keyed events fire first, by key, then the plain
  // ones in schedule order — whether the instant sits in the current
  // window, the ring or the far heap, and on either side of a window edge.
  for (const TimePoint when : {TimePoint{5}, TimePoint{1023}, TimePoint{1024},
                               TimePoint{70000}, TimePoint{5000000}}) {
    EventQueue q;
    std::vector<int> fired;
    q.schedule(when, [&] { fired.push_back(10); });
    q.schedule_keyed(when, 7, [&] { fired.push_back(2); });
    q.schedule(when, [&] { fired.push_back(11); });
    q.schedule_keyed(when, 3, [&] { fired.push_back(1); });
    // Filler after the instant pushes the queue past its small mode.
    for (int i = 0; i < 40; ++i) {
      q.schedule(when + 1 + static_cast<TimePoint>(i) * 997, [] {});
    }
    q.schedule_keyed(when, 9, [&] { fired.push_back(3); });
    while (!q.empty()) q.pop_and_run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 10, 11})) << "at " << when;
  }
}

TEST(EventQueueStress, SelfCancellingTimerIsSafe) {
  // A timer that cancels its own id while running: the id was retired
  // before invocation, so the cancel must be a no-op — not a double free
  // of the slot or a corruption of a recycled generation.
  EventQueue q;
  EventId self = 0;
  int ran = 0;
  self = q.schedule(10, [&] {
    ++ran;
    q.cancel(self);
  });
  // A second event at the same instant must still fire afterwards.
  q.schedule(10, [&] { ++ran; });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(ran, 2);
}

TEST(EventQueueStress, SelfCancelInPlaceKeepsTheClosureIntact) {
  // The closure runs in its slot: cancelling itself and scheduling more
  // work must neither free nor reuse that slot under it.
  EventQueue q;
  EventId self = 0;
  std::string seen;
  const std::string payload(100, 'x');
  self = q.schedule(2000000, [&, payload] {
    q.cancel(self);
    for (int i = 0; i < 8; ++i) q.schedule(2000000 + i, [] {});
    seen = payload;  // still this closure's own capture
  });
  EXPECT_EQ(q.pop_and_run(), 2000000u);
  EXPECT_EQ(seen, payload);
  EXPECT_EQ(q.size(), 8u);
}

TEST(EventQueueStress, ClosureGrowingSlotStorageStaysValid) {
  // One closure schedules far more events than a slot chunk holds while
  // it runs; its storage must stay put (ASan checks the reads after).
  EventQueue q;
  std::vector<int> fired;
  std::vector<int> captured(64);
  for (int i = 0; i < 64; ++i) captured[std::size_t(i)] = i * 3;
  int sum = 0;
  q.schedule(1, [&, captured] {
    for (int i = 0; i < 1000; ++i) {
      q.schedule(2 + static_cast<TimePoint>(i) * 311,
                 [i, &fired] { fired.push_back(i); });
    }
    for (const int v : captured) sum += v;
  });
  q.pop_and_run();
  EXPECT_EQ(sum, 3 * 63 * 64 / 2);
  while (!q.empty()) q.pop_and_run();
  ASSERT_EQ(fired.size(), 1000u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(i));
  }
}

TEST(EventQueueStress, DrainStopsBetweenWindowsThenEarlierWorkArrives) {
  // run_until peeks past its deadline at work several windows (and tiers)
  // ahead; what is scheduled afterwards, before that work, still runs
  // first and in order.
  Engine e;
  std::vector<int> fired;
  e.schedule_at(20000000, [&] { fired.push_back(9); });  // far heap
  e.schedule_at(300000, [&] { fired.push_back(6); });    // beyond the ring
  e.schedule_at(5000, [&] { fired.push_back(2); });      // the ring
  e.run_until(3500);  // mid-window, nothing due
  e.schedule_at(4000, [&] { fired.push_back(1); });
  e.schedule_at(6000, [&] { fired.push_back(3); });
  e.run_until(150000);
  EXPECT_EQ(e.now(), 150000u);
  e.schedule_at(200000, [&] { fired.push_back(5); });
  e.schedule_at(150001, [&] { fired.push_back(4); });
  e.schedule_at(10000000, [&] { fired.push_back(7); });
  e.schedule_at(10000000, [&] { fired.push_back(8); });
  e.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(e.clamped_events(), 0u);
}

TEST(EventQueueStress, CancelAfterFireIsNoOpEvenWhenSlotIsRecycled) {
  EventQueue q;
  int first = 0, second = 0;
  const EventId a = q.schedule(1, [&] { ++first; });
  q.pop_and_run();
  EXPECT_EQ(first, 1);
  // The slot is recycled by the next schedule; the stale id must not be
  // able to cancel the new occupant (generation mismatch).
  const EventId b = q.schedule(2, [&] { ++second; });
  EXPECT_NE(a, b);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_EQ(second, 1);
}

TEST(EventQueueStress, RescheduleStormAtOneInstant) {
  // Heavy churn at a single timestamp: schedule 1000, cancel every other
  // one, then verify survivors fire in exact scheduling order.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(5, [i, &fired] { fired.push_back(i); }));
  }
  for (int i = 0; i < 1000; i += 2) {
    q.cancel(ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(q.size(), 500u);
  while (!q.empty()) q.pop_and_run();
  ASSERT_EQ(fired.size(), 500u);
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(i) * 2 + 1);
  }
}

}  // namespace
}  // namespace nestv::sim

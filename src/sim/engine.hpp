// The discrete-event simulation engine: clock plus event loop.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_task.hpp"
#include "sim/time.hpp"

namespace nestv::sim {

/// Owns the simulated clock and the event queue.  Every entity in the
/// simulated datacenter (devices, stacks, workloads) holds a reference to
/// one Engine and schedules its work through it.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `action` to run `delay` nanoseconds from now.  The task
  /// rides down to the queue slot by reference, so a scheduled closure is
  /// moved exactly once; it fires in place in that slot.
  EventId schedule_in(Duration delay, InlineTask&& action) {
    return queue_.schedule(now_ + delay, std::move(action));
  }

  /// Schedules `action` at an absolute simulated instant.  Instants in the
  /// past are clamped to "now" (the event still fires, deterministically
  /// after already-queued events for the current instant) and counted in
  /// clamped_events().
  EventId schedule_at(TimePoint when, InlineTask&& action) {
    if (when < now_) {
      when = now_;
      ++clamped_;
    }
    return queue_.schedule(when, std::move(action));
  }

  /// Schedules at an absolute instant with an explicit same-instant
  /// ordering key (EventQueue::schedule_keyed).  Fabric wire links use
  /// this so a frame's delivery order at a shared device is a function of
  /// the frame — (link rank, link sequence) — and not of whether a single
  /// engine or a conductor mailbox carried it (DESIGN.md section 10).
  /// Past instants are clamped like schedule_at's and counted in both
  /// clamped_events() and clamped_keyed_events().
  EventId schedule_at_keyed(TimePoint when, std::uint64_t key,
                            InlineTask&& action) {
    if (when < now_) {
      when = now_;
      ++clamped_;
      ++clamped_keyed_;
    }
    return queue_.schedule_keyed(when, key, std::move(action));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Runs `action` synchronously when the current event's callback returns,
  /// before the clock moves — the softirq-at-irq-exit point.  A burst layer
  /// uses this to look at everything the event produced (a fully formed
  /// kick burst) and arm one drain for all of it.  Deferred actions may
  /// defer further actions; all run in registration order.  Outside the
  /// event loop the action runs immediately.
  void defer(InlineTask&& action) {
    if (!running_) {
      action();
      return;
    }
    deferred_.push_back(std::move(action));
  }

  /// Runs events until the queue drains.  Returns the number of events run.
  std::uint64_t run();

  /// Runs events with time <= deadline; leaves later events queued.
  /// The clock is advanced to `deadline` even if the queue drains early.
  std::uint64_t run_until(TimePoint deadline);

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  /// Time of the earliest pending event; only valid when !idle().  The
  /// sharded conductor publishes this as the shard's horizon.
  [[nodiscard]] TimePoint next_event_time() { return queue_.next_time(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Completions that pre-burst code would have scheduled as individual
  /// queue events but the burst layer folded into a shared drain event.
  /// Kept separate from events_executed() so the queue counter stays a
  /// pure measure of heap traffic; events_executed() + events_coalesced()
  /// is the logical-event count comparable across batch_size settings.
  void note_coalesced(std::uint64_t saved) { coalesced_ += saved; }
  [[nodiscard]] std::uint64_t events_coalesced() const { return coalesced_; }

  /// Past instants schedule_at and schedule_at_keyed moved up to now.  A
  /// keyed clamp is a cross-machine frame that arrived in its engine's
  /// past — under the sharded conductor, a lookahead violation.
  [[nodiscard]] std::uint64_t clamped_events() const { return clamped_; }
  [[nodiscard]] std::uint64_t clamped_keyed_events() const {
    return clamped_keyed_;
  }

 private:
  // Index loop: deferred actions may push more (vector may reallocate).
  void run_deferred() {
    for (std::size_t i = 0; i < deferred_.size(); ++i) {
      InlineTask t = std::move(deferred_[i]);
      t();
    }
    deferred_.clear();
  }

  EventQueue queue_;
  TimePoint now_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t clamped_ = 0;
  std::uint64_t clamped_keyed_ = 0;
  std::vector<InlineTask> deferred_;
  bool running_ = false;
};

}  // namespace nestv::sim

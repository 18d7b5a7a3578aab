#include "sim/engine.hpp"

namespace nestv::sim {

std::uint64_t Engine::run() {
  const bool was_running = running_;
  running_ = true;
  std::uint64_t n = 0;
  while (!queue_.empty()) {
    // Advance the clock *before* running the action so now() is correct
    // inside event handlers.
    now_ = queue_.next_time();
    queue_.pop_and_run();
    ++n;
    if (!deferred_.empty()) run_deferred();
  }
  executed_ += n;
  running_ = was_running;
  return n;
}

std::uint64_t Engine::run_until(TimePoint deadline) {
  const bool was_running = running_;
  running_ = true;
  std::uint64_t n = 0;
  // next_time() is read once per iteration; it only peeks, so stopping at
  // the deadline leaves the queue's current window at the present.
  while (!queue_.empty()) {
    const TimePoint t = queue_.next_time();
    if (t > deadline) break;
    now_ = t;
    queue_.pop_and_run();
    ++n;
    if (!deferred_.empty()) run_deferred();
  }
  if (now_ < deadline) now_ = deadline;
  executed_ += n;
  running_ = was_running;
  return n;
}

}  // namespace nestv::sim

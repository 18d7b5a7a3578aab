#include "sim/event_queue.hpp"

namespace nestv::sim {

// Cancellation is the only cold entry point; everything the run loop
// touches lives inline in the header.
void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  // Ids that already fired, are running, or were never scheduled no longer
  // match their slot's generation and are ignored, so self-cancelling
  // timers are harmless.  Even generations belong to idle or running slots
  // and never appear in a handed-out id.
  if ((gen & 1) == 0 || slot >= gens_.size() || gens_[slot] != gen) return;
  ++gens_[slot];
  task_at(slot).reset();
  free_.push_back(slot);
  --live_;
}

}  // namespace nestv::sim

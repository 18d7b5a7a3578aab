// Priority queue of timed events with deterministic tie-breaking.
//
// Hot-path layout (this is the innermost loop of every benchmark):
//   - A two-level calendar queue (Brown, CACM 1988) of 24-byte POD entries
//     {when, order, slot, gen}.  Simulated time is cut into windows of
//     2^kWindowBits ns, and an entry lives in one of three tiers:
//       near  a 4-ary min-heap of every entry whose window is at or before
//             the current window — the only ordered tier;
//       ring  kRingSize unsorted buckets, one per following window, each a
//             list of nodes from one shared pool (so the ring holds memory
//             for its peak occupancy, not for every bucket's peak);
//       far   a 4-ary min-heap of everything beyond the ring (RTO and GC
//             timers, most of them cancelled before they come due).
//     A pop sifts through the few live entries of the current window
//     instead of every pending timer.  When a pop finds the near heap dry,
//     the queue advances to the next occupied bucket (a 256-bit occupancy
//     mask finds it), heapifies that bucket's live entries as the new near
//     heap, and pulls the far entries that came within the ring's reach.
//     Only a pop advances: next_time() peeks, so the current window never
//     runs ahead of the present.
//   - A small queue pays for none of that: while the ring and the far heap
//     are empty and fewer than kSmallQueue entries are pending, every entry
//     stays in the near heap whatever its window.
//   - Closures live in fixed-size chunks of slots whose addresses never
//     move, recycled through a free list; an EventId packs
//     (generation << 32 | slot).  A slot's generation is odd while it holds
//     a pending event and is bumped when the event fires or is cancelled —
//     O(1), no hash set — so a stale entry is dropped when it changes tier
//     or surfaces, and a stale id cancels nothing.
//   - pop_and_run runs the closure in place: the id is retired before the
//     call and the slot joins the free list after it, so the closure is
//     moved once in its life (into the slot) and never relocated to fire.
//   - schedule/cancel/pop_and_run perform no allocation at steady state:
//     closures up to InlineTask::kInlineBytes are stored in the slot
//     itself, and every vector reuses its capacity.
//   - schedule / pop_and_run / the tier helpers are defined inline below so
//     the engine's run loop compiles into one flat function; a simulation
//     executes several million events per wall second, and an out-of-line
//     call per heap operation is measurable at that rate.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_task.hpp"
#include "sim/time.hpp"

namespace nestv::sim {

/// Opaque handle that allows cancelling a scheduled event.  Never zero for
/// a scheduled event, so 0 doubles as "no timer" in client code.
using EventId = std::uint64_t;

/// Queue of (time, order) events.  Two events scheduled for the same
/// instant fire in scheduling order, which keeps every simulation run
/// bit-for-bit reproducible (DESIGN.md section 6).  schedule_keyed()
/// instead takes an explicit same-instant key: those events fire before
/// every plainly-scheduled event at their instant, ordered by key — the
/// sharded conductor uses it to make cross-machine frame ordering a
/// function of the frame, not of which execution mode delivered it.
class EventQueue {
 public:
  /// Keys passed to schedule_keyed() must stay below this bound (plain
  /// events occupy the band at and above it).
  static constexpr std::uint64_t kKeyLimit = std::uint64_t{1} << 63;

  /// Takes the task by rvalue reference: the closure is moved exactly once,
  /// from the caller's temporary into the slot (callers hand over lambdas
  /// or `std::move` a named task; nothing is relocated per call layer).
  EventId schedule(TimePoint when, InlineTask&& action) {
    return schedule_ordered(when, kKeyLimit | next_seq_++,
                            std::move(action));
  }

  /// Schedules with an explicit same-instant order.  At any instant, all
  /// keyed events fire (by ascending key) before any plain event; keys
  /// must be unique per instant for the order to be total.
  EventId schedule_keyed(TimePoint when, std::uint64_t key,
                         InlineTask&& action) {
    assert(key < kKeyLimit && "ordering key collides with the plain band");
    return schedule_ordered(when, key, std::move(action));
  }

  /// Cancels a scheduled event: its slot is released immediately and the
  /// stale entry is dropped when it changes tier or surfaces.  Cancelling
  /// an already-fired, running or unknown id is a safe no-op (timers
  /// routinely race their own cancellation).
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event.  Precondition: !empty().  Only looks:
  /// the current window never moves past the last event run, so a caller
  /// that peeks beyond its deadline (Engine::run_until) and then schedules
  /// earlier work still finds that work filed by the calendar.
  [[nodiscard]] TimePoint next_time() {
    assert(live_ > 0 && "next_time() on an empty queue");
    for (;;) {
      if (!near_.empty()) {
        if (live(near_.front())) return near_.front().when;
        heap_pop(near_);
      } else if (ring_count_ > 0) {
        if (const Entry* e = earliest_in_next_bucket()) return e->when;
      } else {
        if (live(far_.front())) return far_.front().when;
        heap_pop(far_);
      }
    }
  }

  /// Removes and runs the earliest live event.  Returns its time.
  /// Precondition: !empty().
  TimePoint pop_and_run() {
    drop_dead_prefix();
    const Entry top = heap_pop(near_);
    // A small queue's near heap runs ahead of the current window; keep the
    // window at the present so a later spill starts from there.
    if (window_of(top.when) > cur_win_) cur_win_ = window_of(top.when);
    // Retire the id first (the action may cancel itself), run the closure
    // where it lies — chunk addresses are stable even if the action
    // schedules enough to grow the slot storage — and recycle the slot
    // only afterwards, so nothing the action schedules can land in it.
    ++gens_[top.slot];
    --live_;
    InlineTask& task = task_at(top.slot);
    task();
    task.reset();
    free_.push_back(top.slot);
    return top.when;
  }

 private:
  struct Entry {
    TimePoint when = 0;
    std::uint64_t order = 0;  ///< same-instant tie-break (key or seq band)
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  /// Window width 2^kWindowBits ns and ring length, both set by measuring
  /// the nat_stream and macro workloads of benchmark/: ~1 us windows keep
  /// the near heap at a handful of entries, and 256 of them (~262 us)
  /// reach past every datapath hop, so only timers land in the far heap.
  static constexpr unsigned kWindowBits = 10;
  static constexpr std::uint64_t kRingSize = 256;
  static constexpr std::uint64_t kRingMask = kRingSize - 1;
  static constexpr std::size_t kMaskWords = kRingSize / 64;
  /// Entries a queue holds in its near heap alone before the tiers start.
  static constexpr std::size_t kSmallQueue = 16;
  static constexpr std::size_t kChunkSlots = 64;
  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kNil = UINT32_MAX;  ///< end of a node list

  struct Chunk {
    InlineTask tasks[kChunkSlots];
  };

  struct Node {
    Entry e;
    std::uint32_t next = kNil;
  };

  static constexpr std::array<std::uint32_t, kRingSize> make_heads() {
    std::array<std::uint32_t, kRingSize> heads{};
    heads.fill(kNil);
    return heads;
  }

  static std::uint64_t window_of(TimePoint when) {
    return when >> kWindowBits;
  }

  // Returns true when a sorts strictly before b (min-heap order).
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.order < b.order;
  }

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  InlineTask& task_at(std::uint32_t slot) {
    return chunks_[slot / kChunkSlots]->tasks[slot % kChunkSlots];
  }

  [[nodiscard]] bool live(const Entry& e) const {
    return gens_[e.slot] == e.gen;
  }

  EventId schedule_ordered(TimePoint when, std::uint64_t order,
                           InlineTask&& action) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(gens_.size());
      if (slot % kChunkSlots == 0) chunks_.push_back(std::make_unique<Chunk>());
      gens_.push_back(0);
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    task_at(slot) = std::move(action);
    const std::uint32_t gen = ++gens_[slot];  // odd: pending
    insert(Entry{when, order, slot, gen});
    ++live_;
    return make_id(gen, slot);
  }

  void insert(const Entry& e) {
    const std::uint64_t win = window_of(e.when);
    if (win <= cur_win_) {
      heap_push(near_, e);
      return;
    }
    if (ring_count_ == 0 && far_.empty()) {
      if (near_.size() < kSmallQueue) {
        heap_push(near_, e);
        return;
      }
      spill_near();
    }
    place_later(e, win);
  }

  /// Files an entry whose window lies beyond the current one.
  void place_later(const Entry& e, std::uint64_t win) {
    if (win - cur_win_ > kRingSize) {
      heap_push(far_, e);
      return;
    }
    const std::uint64_t b = win & kRingMask;
    std::uint32_t n = node_free_;
    if (n == kNil) {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    } else {
      node_free_ = nodes_[n].next;
    }
    nodes_[n] = Node{e, head_[b]};
    head_[b] = n;
    occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
    ++ring_count_;
  }

  /// Empties bucket `b` into the node pool, copying its live entries onto
  /// the near heap's array when `to_near` (the caller heapifies).
  void drain_bucket(std::uint64_t b, bool to_near) {
    std::uint32_t n = head_[b];
    head_[b] = kNil;
    occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    while (n != kNil) {
      Node& node = nodes_[n];
      if (to_near && live(node.e)) near_.push_back(node.e);
      const std::uint32_t next = node.next;
      node.next = node_free_;
      node_free_ = n;
      n = next;
      --ring_count_;
    }
  }

  /// Leaves the small-queue mode: the near heap may hold entries of any
  /// window, and every entry beyond the current window moves out to its
  /// tier.
  void spill_near() {
    std::size_t kept = 0;
    for (const Entry& e : near_) {
      if (!live(e)) continue;
      const std::uint64_t win = window_of(e.when);
      if (win <= cur_win_) {
        near_[kept++] = e;
      } else {
        place_later(e, win);
      }
    }
    near_.resize(kept);
    heapify(near_);
  }

  /// Moves the current window to the next occupied one.  Precondition: the
  /// near heap is empty and the ring or the far heap is not.
  void advance() {
    if (ring_count_ > 0) {
      cur_win_ += 1 + next_occupied((cur_win_ + 1) & kRingMask);
      // The bucket's live entries become the near heap before the far
      // pull below can reuse the bucket for the window kRingSize ahead.
      drain_bucket(cur_win_ & kRingMask, true);
      heapify(near_);
    } else {
      cur_win_ = window_of(far_.front().when);
    }
    while (!far_.empty() &&
           window_of(far_.front().when) - cur_win_ <= kRingSize) {
      const Entry e = heap_pop(far_);
      if (!live(e)) continue;
      const std::uint64_t win = window_of(e.when);
      if (win <= cur_win_) {
        heap_push(near_, e);
      } else {
        place_later(e, win);
      }
    }
  }

  /// Earliest live entry of the next occupied bucket, or null after
  /// emptying that bucket if it held only cancelled entries.
  const Entry* earliest_in_next_bucket() {
    const std::uint64_t b =
        (cur_win_ + 1 + next_occupied((cur_win_ + 1) & kRingMask)) &
        kRingMask;
    const Entry* best = nullptr;
    for (std::uint32_t n = head_[b]; n != kNil; n = nodes_[n].next) {
      const Entry& e = nodes_[n].e;
      if (live(e) && (best == nullptr || earlier(e, *best))) best = &e;
    }
    if (best == nullptr) drain_bucket(b, false);
    return best;
  }

  /// Distance from bucket `start` to the next occupied bucket, scanning
  /// the ring cyclically.  Precondition: ring_count_ > 0.
  [[nodiscard]] std::uint64_t next_occupied(std::uint64_t start) const {
    for (std::size_t k = 0; k <= kMaskWords; ++k) {
      const std::size_t w = (start / 64 + k) % kMaskWords;
      std::uint64_t bits = occupied_[w];
      if (k == 0) {
        bits &= ~std::uint64_t{0} << (start % 64);
      } else if (k == kMaskWords) {
        bits &= (std::uint64_t{1} << (start % 64)) - 1;
      }
      if (bits != 0) {
        return (w * 64 + std::uint64_t(std::countr_zero(bits)) - start) &
               kRingMask;
      }
    }
    assert(false && "next_occupied() on an empty ring");
    return 0;
  }

  /// Discards cancelled entries until a live one tops the near heap,
  /// advancing through the tiers as the near heap runs dry.
  void drop_dead_prefix() {
    assert(live_ > 0 && "next event of an empty queue");
    for (;;) {
      if (near_.empty()) {
        advance();
      } else if (live(near_.front())) {
        return;
      } else {
        heap_pop(near_);
      }
    }
  }

  // Hole-based sift-up: shift losing parents down and write `e` once,
  // rather than swapping 24-byte entries at every level.
  static void heap_push(std::vector<Entry>& h, const Entry& e) {
    std::size_t i = h.size();
    h.push_back(e);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(e, h[parent])) break;
      h[i] = h[parent];
      i = parent;
    }
    h[i] = e;
  }

  static void sift_down(std::vector<Entry>& h, std::size_t i) {
    const std::size_t n = h.size();
    const Entry e = h[i];
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child =
          first_child + kArity < n ? first_child + kArity : n;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (earlier(h[c], h[best])) best = c;
      }
      if (!earlier(h[best], e)) break;
      h[i] = h[best];
      i = best;
    }
    h[i] = e;
  }

  static Entry heap_pop(std::vector<Entry>& h) {
    const Entry top = h.front();
    h.front() = h.back();
    h.pop_back();
    if (!h.empty()) sift_down(h, 0);
    return top;
  }

  static void heapify(std::vector<Entry>& h) {
    if (h.size() < 2) return;
    for (std::size_t i = (h.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(h, i);
    }
  }

  std::vector<Entry> near_;  ///< 4-ary min-heap, windows <= cur_win_
  std::vector<Node> nodes_;  ///< ring entries, linked per bucket
  std::uint32_t node_free_ = kNil;  ///< recycled nodes, linked by next
  std::array<std::uint32_t, kRingSize> head_ = make_heads();  ///< by window
  std::array<std::uint64_t, kMaskWords> occupied_{};  ///< non-empty buckets
  std::vector<Entry> far_;   ///< 4-ary min-heap beyond the ring
  std::uint64_t cur_win_ = 0;
  std::size_t ring_count_ = 0;  ///< entries in the ring, stale ones included
  std::vector<std::unique_ptr<Chunk>> chunks_;  ///< stable closure storage
  std::vector<std::uint32_t> gens_;   ///< per slot; odd while pending
  std::vector<std::uint32_t> free_;   ///< recycled slot indices
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace nestv::sim

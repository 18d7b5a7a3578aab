// Conservative parallel simulation: one Engine per shard, epoch-synced.
//
// The simulated datacenter partitions naturally by physical machine: every
// device, stack and CPU of a machine schedules only on its own engine, and
// the sole interaction between machines is an Ethernet frame crossing the
// fabric.  Each wire has a fixed latency, and that latency is lookahead in
// the classic conservative-PDES sense: an event executing at time t on one
// shard can affect another shard no earlier than t + L along that wire.
//
// The conductor exploits it with a topology-aware BSP loop.  Wires
// registered via note_cross_link() form a latency graph over shards; its
// all-pairs shortest paths L[t][s] bound how soon anything shard t does can
// reach shard s (transitively, through any chain of wires).  Each epoch:
//
//   1. window   every worker snapshots the published next-event times and
//               gives each owned shard s its own horizon
//                   wend[s] = min(deadline,
//                                 min over t of next_t + L[t][s] - 1),
//               where the t == s term uses the shortest *cycle* through s
//               (a shard's own events can bounce back off a neighbour),
//               then runs s up to wend[s];
//   2. publish  each shard publishes its new next-event time and all
//               workers meet at a barrier;
//   3. drain    only if some shard posted cross-shard mail this epoch
//               (per-worker posted flags, checked by everyone): each shard
//               moves the frames mailed to it into its event queue —
//               touching only the (src, dst) boxes marked dirty — then
//               republishes and meets at a second barrier.  Epochs with no
//               cross-shard traffic fuse the two barriers into one.
//
// The `- 1` makes every cross-shard message arrive strictly after the
// destination's window, so a drain never injects an event into a shard's
// past.  Per-pair horizons mean a shard whose nearest neighbours are many
// hops away runs far ahead of the global minimum: rack-aligned shards are
// bounded by the spine round-trip, not by the smallest link in the fabric.
// Worlds that never register a wire (direct post() users) fall back to a
// uniform scalar lookahead for every pair — the classic global window.
//
// Why per-pair windows keep the shards=1 equivalence: delivery order never
// depends on window sizes.  A frame's firing instant and its ordering key
// are fixed at post time; windows only decide *which epoch* drains it, and
// the lookahead bound guarantees that is always before the destination's
// clock reaches the firing instant.  See DESIGN.md section 10 for the
// monotonicity argument (why wend[s] never regresses across epochs).
//
// Determinism: results are bit-identical to a single-engine run of the
// same world and independent of the worker-thread count.
//   * Each mailbox (src, dst) is appended by exactly one shard while it
//     runs and drained by exactly one shard between windows; the barriers
//     between phases make that race-free without locks.
//   * Wire deliveries carry an explicit ordering key — (link rank, link
//     sequence), assigned identically whether the frame is scheduled
//     locally or mailed — so same-nanosecond arrivals at a shared device
//     fire in the same order in every mode.  At the scale of the macro
//     scenario exact-nanosecond collisions are a certainty (birthday
//     bound over ~1e5 frames in 1e8 ns), so the key, not jitter, is what
//     carries the equivalence.  Unkeyed mail falls back to
//     (when, src_shard, post order), which is still thread-independent.
//   * shards == 1 bypasses the machinery entirely and is the existing
//     engine.
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/inline_task.hpp"
#include "sim/time.hpp"

namespace nestv::sim {

/// One polite spin iteration: tells the core we are in a wait loop without
/// giving up the timeslice (PAUSE on x86, YIELD on arm64).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Spin barrier for the epoch loop.  Generation-counted: the last arriver
/// resets the count and bumps the generation; everyone else waits until the
/// generation moves.  Waiters back off exponentially — pause bursts that
/// double up to a cap, then a yield per probe — so sixteen workers hammering
/// one cache line do not starve the last arriver, and oversubscribed runs
/// (CI machines, laptops) still make progress.  The acq_rel increment chain
/// plus the release/acquire generation hand-off gives every pre-barrier
/// write a happens-before edge to every post-barrier read, which is what
/// lets the mailboxes and dirty flags be plain (non-atomic) storage.
class EpochBarrier {
 public:
  explicit EpochBarrier(unsigned parties) : parties_(parties) {}

  void arrive_and_wait() {
    if (parties_ == 1) return;
    const std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      count_.store(0, std::memory_order_relaxed);
      gen_.store(gen + 1, std::memory_order_release);
      return;
    }
    unsigned burst = 1;
    unsigned spent = 0;
    while (gen_.load(std::memory_order_acquire) == gen) {
      if (spent >= kSpinPauses) {
        std::this_thread::yield();
        continue;
      }
      for (unsigned i = 0; i < burst; ++i) cpu_relax();
      spent += burst;
      if (burst < kMaxBurst) burst <<= 1;
    }
  }

 private:
  /// Backoff shape: probe the generation after pause bursts that double
  /// up to kMaxBurst, and give up on spinning entirely after kSpinPauses
  /// pauses (~1 microsecond — a healthy barrier resolves well within it;
  /// past it we are oversubscribed and the spinner is stealing cycles
  /// from the workers it is waiting for).
  static constexpr unsigned kMaxBurst = 64;
  static constexpr unsigned kSpinPauses = 256;

  unsigned parties_;
  std::atomic<unsigned> count_{0};
  std::atomic<std::uint64_t> gen_{0};
};

/// Per-shard-pair lookahead bounds for the conductor's window computation.
///
/// note_link() records the directed wires the world actually builds;
/// finalize() closes them under shortest paths (Floyd–Warshall; S^3 is
/// trivial at S <= 64), so bound(t, s) is the minimum latency of *any*
/// chain of wires from t to s — the soonest an event on t can influence s.
/// Pairs with no path are unconstrained (kUnreachable).  A matrix with no
/// links at all reports the scalar fallback for every off-diagonal pair
/// instead: the classic global-window behaviour.
///
/// The mode split is strict on purpose: mixing per-wire entries with a
/// scalar fallback for unreachable pairs would break the triangle
/// inequality the window-monotonicity proof rests on (DESIGN.md section
/// 10).  Direct post() on a pair with no wire path is therefore a contract
/// violation once any wire exists (asserted in ShardedConductor::post).
class LookaheadMatrix {
 public:
  static constexpr Duration kUnreachable =
      std::numeric_limits<Duration>::max();

  LookaheadMatrix(int shards, Duration scalar)
      : shards_(shards), scalar_(scalar),
        direct_(std::size_t(shards) * std::size_t(shards), kUnreachable),
        bound_(direct_), cycle_(std::size_t(shards), kUnreachable) {}

  /// Records a directed wire src -> dst with the given latency
  /// (min-accumulated; parallel wires keep the fastest).  Self-links are
  /// ignored — intra-shard traffic never crosses the conductor.
  void note_link(int src, int dst, Duration latency);

  /// Closes the link graph under shortest paths.  Idempotent; cheap to
  /// call again after more note_link()s.
  void finalize();

  [[nodiscard]] bool finalized() const { return finalized_; }
  [[nodiscard]] bool has_links() const { return has_links_; }

  /// Soonest an event executing on shard `src` at time t can affect shard
  /// `dst` (as t + bound).  kUnreachable when no wire chain connects them.
  /// The self-pair bound(s, s) is the shortest *cycle* through s — an
  /// event on s can come back to s no sooner than the fastest round trip
  /// through a neighbour.  Without it a shard's window could outrun its
  /// own reflected traffic (and windows could regress across epochs; the
  /// monotonicity proof in DESIGN.md section 10 leans on this term).
  /// Requires finalize().
  [[nodiscard]] Duration bound(int src, int dst) const {
    assert(finalized_);
    if (!has_links()) return src == dst ? 2 * scalar_ : scalar_;
    if (src == dst) return cycle_[std::size_t(src)];
    return bound_[std::size_t(src) * std::size_t(shards_) +
                  std::size_t(dst)];
  }

  /// Window end for shard `s` given the published next-event times of all
  /// shards (`next`, kNever = idle): the latest instant s can run to while
  /// every cross-shard frame is still guaranteed to arrive strictly later.
  /// Idle shards impose no constraint — any future influence they relay
  /// is covered transitively by the shortest-path closure.
  [[nodiscard]] TimePoint window_end(int s, const TimePoint* next,
                                     TimePoint deadline) const;

 private:
  static constexpr TimePoint kNever = std::numeric_limits<TimePoint>::max();

  int shards_;
  Duration scalar_;
  bool has_links_ = false;
  bool finalized_ = false;
  /// Direct (single-wire) edges as registered; finalize() rebuilds the
  /// closure from these, so it is safe to re-run after more note_link()s.
  std::vector<Duration> direct_;
  /// Shortest-path closure of direct_ (valid when finalized_).
  std::vector<Duration> bound_;
  /// Shortest cycle through each shard (the self-pair bound).
  std::vector<Duration> cycle_;
};

/// Execution counters for one conductor lifetime, for bench reports.  All
/// fields except barrier_wait_ns are deterministic for a given world and
/// shard count (worker-count independent): windows are computed from the
/// published next-event times, which the determinism contract fixes.
struct ConductorStats {
  /// Synchronization windows executed across all run_until calls.
  std::uint64_t epochs = 0;
  /// Epochs with no cross-shard posts anywhere: publish and drain fused
  /// into a single barrier.
  std::uint64_t fused_epochs = 0;
  /// Frames mailed across shard boundaries.
  std::uint64_t cross_posts = 0;
  /// Mail moved from boxes into destination queues (== cross_posts once
  /// the run is quiesced).
  std::uint64_t drained_posts = 0;
  /// Per-shard count of windows in which the shard executed no events.
  std::vector<std::uint64_t> idle_windows;
  /// Per-worker wall nanoseconds spent inside barrier waits.
  std::vector<std::uint64_t> barrier_wait_ns;
};

class ShardedConductor {
 public:
  /// `lookahead` is the minimum latency of any cross-shard link (the
  /// scalar fallback when no wires are registered); `max_workers` caps the
  /// worker threads (0 = hardware concurrency).  Workers each own a
  /// contiguous shard range, so fewer workers than shards degrades to
  /// batched sequential execution with unchanged results.
  ShardedConductor(int shards, Duration lookahead, unsigned max_workers = 0);

  ShardedConductor(const ShardedConductor&) = delete;
  ShardedConductor& operator=(const ShardedConductor&) = delete;
  ~ShardedConductor();

  [[nodiscard]] int shards() const {
    return static_cast<int>(engines_.size());
  }
  [[nodiscard]] Engine& shard(int s) { return *engines_[std::size_t(s)]; }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Shard index owning `engine`, or -1 if it is not one of ours.
  [[nodiscard]] int shard_of(const Engine& engine) const;

  /// Registers a directed cross-shard wire (Device::connect_wire calls
  /// this for both directions).  Setup-thread only.  The per-pair window
  /// matrix is rebuilt lazily at the next run_until.
  void note_cross_link(int src, int dst, Duration latency);

  /// Mails `task` from shard `src` to fire at `when` on shard `dst`.
  /// Callable only from src's worker while src is inside a window (or from
  /// the setup thread between runs).  The lookahead contract requires
  /// `when` to lie strictly beyond *dst's* current window.
  void post(int src, int dst, TimePoint when, InlineTask&& task);

  /// Like post(), but the task carries an explicit same-instant ordering
  /// key (EventQueue::schedule_keyed).  Wire links pass the same key they
  /// would use for local delivery, which makes the firing order at `when`
  /// identical to the single-engine run even when several shards mail the
  /// same destination for the same nanosecond.
  void post_keyed(int src, int dst, TimePoint when, std::uint64_t key,
                  InlineTask&& task);

  /// Allocates a stable rank for one direction of a wire link.  Ranks are
  /// per-conductor and handed out in setup order, so two runs that build
  /// the same world get the same ranks — part of the delivery key that
  /// keeps shard counts invisible.
  [[nodiscard]] std::uint64_t alloc_wire_rank() { return wire_ranks_++; }

  /// Runs every shard up to and including `deadline`, like
  /// Engine::run_until: all shard clocks end at exactly `deadline`.
  void run_until(TimePoint deadline);

  /// Clock of shard 0 (all shards agree between run_until calls).
  [[nodiscard]] TimePoint now() const { return engines_[0]->now(); }

  [[nodiscard]] std::uint64_t total_events() const;
  [[nodiscard]] std::vector<std::uint64_t> per_shard_events() const;
  /// Synchronization windows executed across all run_until calls.
  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  /// Epochs that skipped the drain barrier (no cross-shard posts).
  [[nodiscard]] std::uint64_t fused_epochs() const { return fused_epochs_; }
  /// Frames mailed across shard boundaries.
  [[nodiscard]] std::uint64_t cross_posts() const;
  /// Worker threads a multi-shard run uses (1 when shards == 1).
  [[nodiscard]] unsigned worker_threads() const { return workers_; }
  /// Snapshot of the execution counters.  Call between run_until calls.
  [[nodiscard]] ConductorStats stats() const;

 private:
  struct Mail {
    TimePoint when = 0;
    std::uint64_t key = kUnkeyed;  ///< kUnkeyed = plain scheduling order
    InlineTask task;
  };

  static constexpr TimePoint kNever =
      std::numeric_limits<TimePoint>::max();
  static constexpr std::uint64_t kUnkeyed =
      std::numeric_limits<std::uint64_t>::max();

  [[nodiscard]] std::size_t box_index(int src, int dst) const {
    return std::size_t(src) * engines_.size() + std::size_t(dst);
  }
  [[nodiscard]] int shard_begin(unsigned worker) const {
    return static_cast<int>(std::size_t(worker) * engines_.size() /
                            workers_);
  }

  void worker_loop(unsigned worker, TimePoint deadline);
  /// Drains box (src -> dst) into dst's queue; returns the mail count.
  std::uint64_t drain_box(int src, int dst);
  /// Parked-worker main: wait for a run_until hand-off, run, repeat.
  void pool_main(unsigned worker);

  std::vector<std::unique_ptr<Engine>> engines_;
  Duration lookahead_;
  unsigned workers_;
  EpochBarrier barrier_;
  LookaheadMatrix matrix_;
  /// box_[src * S + dst]: appended by src's worker inside a window,
  /// drained by dst's worker between windows.
  std::vector<std::vector<Mail>> box_;
  /// box_dirty_[src * S + dst]: set by src's worker at the first post into
  /// the box this epoch, cleared by dst's worker in the drain phase.  Only
  /// examined in non-fused epochs, between the two barriers, so plain
  /// bytes are race-free (happens-before through the barrier).
  std::vector<std::uint8_t> box_dirty_;
  /// posted_flag_[parity][worker]: "this worker posted cross-shard mail
  /// during epochs of this parity".  Double-buffered by epoch parity so
  /// the post-barrier fused/drain decision (reading parity p) never races
  /// the next epoch's posts (writing parity 1-p).
  std::vector<std::uint8_t> posted_flag_[2];
  /// Current epoch parity per worker, read by post() on the same thread.
  std::vector<std::uint8_t> worker_parity_;
  /// Worker owning each shard (shard_begin inverted, precomputed).
  std::vector<unsigned> owner_of_;
  /// End of the window each shard is currently running (post() contract;
  /// relaxed atomics — cross-worker readers may see a stale, smaller
  /// value, which only weakens the debug assert, never the protocol).
  std::vector<std::atomic<TimePoint>> window_end_;
  /// Next-event time published by each shard, double-buffered by epoch
  /// parity: epoch k reads next_[k & 1] (frozen for the whole epoch — the
  /// unanimous gmin/termination decision and the window computation both
  /// need every worker to see identical horizons) and publishes into
  /// next_[(k + 1) & 1] as it runs.  The barrier between epochs is the
  /// happens-before edge from publishers to the next epoch's readers.
  std::vector<std::atomic<TimePoint>> next_[2];
  /// Per-source-shard mail counters (single-writer, summed on demand).
  std::vector<std::uint64_t> posted_;
  /// Per-dst-shard drained-mail counters (single-writer per shard owner).
  std::vector<std::uint64_t> drained_;
  /// Per-shard windows with zero events executed (single-writer).
  std::vector<std::uint64_t> idle_windows_;
  /// Per-worker wall time inside barrier waits (single-writer).
  std::vector<std::uint64_t> barrier_wait_ns_;
  std::uint64_t epochs_ = 0;
  std::uint64_t fused_epochs_ = 0;
  std::uint64_t wire_ranks_ = 0;
  /// Persistent worker pool (workers 1..workers_-1; the calling thread is
  /// worker 0).  Spawned lazily on the first multi-shard run_until and
  /// parked on pool_cv_ between calls — scenario driver loops issue
  /// thousands of short run_until calls, and re-spawning threads for each
  /// used to dominate the multi-shard wall time.  A final in-loop barrier
  /// (after the deadline clamp) is the completion handshake: when worker 0
  /// leaves it, every shard has finished and every write is visible.
  std::vector<std::thread> pool_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::uint64_t run_seq_ = 0;  ///< bumped per run_until (guarded by mutex)
  TimePoint pool_deadline_ = 0;
  bool pool_stop_ = false;
};

}  // namespace nestv::sim

#include "sim/sharded_conductor.hpp"

#include <algorithm>
#include <chrono>

#include "sim/test_hooks.hpp"

namespace nestv::sim {

namespace {

unsigned clamp_workers(int shards, unsigned max_workers) {
  if (shards <= 1) return 1;
  // An explicit request wins over the core-count heuristic: tests and the
  // TSan CI job ask for real threads even on small machines (results are
  // thread-count-independent, so oversubscription only costs wall time).
  unsigned w = max_workers;
  if (w == 0) {
    w = std::thread::hardware_concurrency();
    if (w == 0) w = 1;
  }
  return std::max(1u, std::min(w, static_cast<unsigned>(shards)));
}

/// next + bound without overflow (kNever-adjacent values saturate).
TimePoint saturating_add(TimePoint t, Duration d) {
  constexpr TimePoint kMax = std::numeric_limits<TimePoint>::max();
  return t > kMax - d ? kMax : t + d;
}

std::uint64_t wall_ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// LookaheadMatrix

void LookaheadMatrix::note_link(int src, int dst, Duration latency) {
  assert(src >= 0 && src < shards_ && dst >= 0 && dst < shards_);
  assert(latency >= 1);
  if (src == dst) return;
  auto& slot = direct_[std::size_t(src) * std::size_t(shards_) +
                       std::size_t(dst)];
  slot = std::min(slot, latency);
  has_links_ = true;
  finalized_ = false;
}

void LookaheadMatrix::finalize() {
  if (finalized_) return;
  const auto n = std::size_t(shards_);
  bound_ = direct_;
  // Floyd–Warshall over the direct edges: bound_[t][s] becomes the
  // cheapest wire chain t -> s.  S^3 at S <= 64 shards is microseconds.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const Duration ik = bound_[i * n + k];
      if (ik == kUnreachable) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const Duration kj = bound_[k * n + j];
        if (kj == kUnreachable) continue;
        auto& ij = bound_[i * n + j];
        const Duration via = ik + kj;  // finite: latencies are small
        if (via < ij) ij = via;
      }
    }
  }
  // Shortest cycle through s: leave towards any t, come back by the
  // cheapest path.  (Any cycle through s decomposes this way because the
  // closure already minimises the return leg.)
  for (std::size_t s = 0; s < n; ++s) {
    Duration best = kUnreachable;
    for (std::size_t t = 0; t < n; ++t) {
      if (t == s) continue;
      const Duration out = bound_[s * n + t];
      const Duration back = bound_[t * n + s];
      if (out == kUnreachable || back == kUnreachable) continue;
      best = std::min(best, out + back);
    }
    cycle_[s] = best;
  }
  if (test_hooks::lookahead_matrix_overrun) {
    // Injected bug (fuzz_runner --inject-bug lookahead): the matrix claims
    // neighbours interfere later than they really can, so windows overrun
    // true arrival times and cross-shard frames land in the past (the
    // engine clamps them to "now", which the shards oracle detects as a
    // digest divergence against shards=1).
    for (auto& d : bound_) {
      if (d != kUnreachable) d *= 2;
    }
    for (auto& d : cycle_) {
      if (d != kUnreachable) d *= 2;
    }
  }
  finalized_ = true;
}

TimePoint LookaheadMatrix::window_end(int s, const TimePoint* next,
                                      TimePoint deadline) const {
  assert(finalized_);
  TimePoint cap = kNever;
  for (int t = 0; t < shards_; ++t) {
    const TimePoint nt = next[t];
    if (nt == kNever) continue;  // idle shards constrain nobody
    const Duration d = bound(t, s);
    if (d == kUnreachable) continue;
    cap = std::min(cap, saturating_add(nt, d));
  }
  if (cap == kNever) return deadline;
  return std::min(deadline, cap - 1);
}

// ---------------------------------------------------------------------------
// ShardedConductor

ShardedConductor::ShardedConductor(int shards, Duration lookahead,
                                   unsigned max_workers)
    : lookahead_(lookahead),
      workers_(clamp_workers(shards, max_workers)),
      barrier_(workers_),
      matrix_(shards, lookahead) {
  assert(shards >= 1);
  assert(lookahead >= 1);
  engines_.reserve(std::size_t(shards));
  for (int s = 0; s < shards; ++s) {
    engines_.push_back(std::make_unique<Engine>());
  }
  box_.resize(std::size_t(shards) * std::size_t(shards));
  box_dirty_.assign(box_.size(), 0);
  posted_flag_[0].assign(workers_, 0);
  posted_flag_[1].assign(workers_, 0);
  worker_parity_.assign(workers_, 0);
  owner_of_.assign(std::size_t(shards), 0);
  for (unsigned w = 0; w < workers_; ++w) {
    for (int s = shard_begin(w); s < shard_begin(w + 1); ++s) {
      owner_of_[std::size_t(s)] = w;
    }
  }
  window_end_ = std::vector<std::atomic<TimePoint>>(std::size_t(shards));
  for (auto& e : window_end_) e.store(0, std::memory_order_relaxed);
  for (auto& buf : next_) {
    buf = std::vector<std::atomic<TimePoint>>(std::size_t(shards));
    for (auto& n : buf) n.store(kNever, std::memory_order_relaxed);
  }
  posted_.assign(std::size_t(shards), 0);
  drained_.assign(std::size_t(shards), 0);
  idle_windows_.assign(std::size_t(shards), 0);
  barrier_wait_ns_.assign(workers_, 0);
}

int ShardedConductor::shard_of(const Engine& engine) const {
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    if (engines_[s].get() == &engine) return static_cast<int>(s);
  }
  return -1;
}

void ShardedConductor::note_cross_link(int src, int dst, Duration latency) {
  matrix_.note_link(src, dst, latency);
}

void ShardedConductor::post(int src, int dst, TimePoint when,
                            InlineTask&& task) {
  post_keyed(src, dst, when, kUnkeyed, std::move(task));
}

void ShardedConductor::post_keyed(int src, int dst, TimePoint when,
                                  std::uint64_t key, InlineTask&& task) {
  assert(src >= 0 && src < shards() && dst >= 0 && dst < shards());
  assert(src != dst && "same-shard traffic schedules directly");
  // Lookahead contract: the message lands strictly after the window the
  // *destination* is running, so its drain never rewinds its clock.  (A
  // relaxed load may see a stale, smaller window end, which only makes the
  // check more permissive — the protocol guarantee is the matrix bound.)
  assert(test_hooks::lookahead_matrix_overrun ||
         when >
             window_end_[std::size_t(dst)].load(std::memory_order_relaxed));
  // Once wires exist, every posting pair must be wire-connected: the
  // window matrix gives unreachable pairs no constraint at all.
  assert(!(matrix_.finalized() && matrix_.has_links()) ||
         matrix_.bound(src, dst) != LookaheadMatrix::kUnreachable);
  auto& box = box_[box_index(src, dst)];
  box.push_back(Mail{when, key, std::move(task)});
  box_dirty_[box_index(src, dst)] = 1;
  const unsigned w = owner_of_[std::size_t(src)];
  posted_flag_[worker_parity_[w]][w] = 1;
  ++posted_[std::size_t(src)];
}

std::uint64_t ShardedConductor::drain_box(int src, int dst) {
  const std::size_t idx = box_index(src, dst);
  auto& box = box_[idx];
  Engine& eng = *engines_[std::size_t(dst)];
  const std::uint64_t n = box.size();
  for (Mail& m : box) {
    if (m.key == kUnkeyed) {
      eng.schedule_at(m.when, std::move(m.task));
    } else {
      eng.schedule_at_keyed(m.when, m.key, std::move(m.task));
    }
  }
  box.clear();
  box_dirty_[idx] = 0;
  return n;
}

ShardedConductor::~ShardedConductor() {
  if (!pool_.empty()) {
    {
      std::lock_guard<std::mutex> lk(pool_mu_);
      pool_stop_ = true;
    }
    pool_cv_.notify_all();
    for (auto& t : pool_) t.join();
  }
}

void ShardedConductor::pool_main(unsigned worker) {
  std::uint64_t seen = 0;
  for (;;) {
    TimePoint deadline;
    {
      std::unique_lock<std::mutex> lk(pool_mu_);
      pool_cv_.wait(lk,
                    [&] { return pool_stop_ || run_seq_ != seen; });
      if (pool_stop_) return;
      seen = run_seq_;
      deadline = pool_deadline_;
    }
    worker_loop(worker, deadline);
  }
}

void ShardedConductor::run_until(TimePoint deadline) {
  if (engines_.size() == 1) {
    // The single-shard conductor IS the plain engine (the equivalence
    // baseline the bench gate holds every other shard count to).
    engines_[0]->run_until(deadline);
    return;
  }
  matrix_.finalize();  // idempotent; rebuilds after new note_cross_links
  if (workers_ > 1 && pool_.empty()) {
    pool_.reserve(workers_ - 1);
    for (unsigned w = 1; w < workers_; ++w) {
      pool_.emplace_back([this, w] { pool_main(w); });
    }
  }
  {
    std::lock_guard<std::mutex> lk(pool_mu_);
    pool_deadline_ = deadline;
    ++run_seq_;
  }
  pool_cv_.notify_all();
  worker_loop(0, deadline);
}

void ShardedConductor::worker_loop(unsigned worker, TimePoint deadline) {
  const int lo = shard_begin(worker);
  const int hi = shard_begin(worker + 1);
  const int n = shards();
  std::uint64_t wait_ns = 0;
  std::vector<TimePoint> horizon(static_cast<std::size_t>(n));

  // Entry: pick up mail posted by the setup thread since the last run
  // (dirty flags are cleared too — setup posts must not leak a stale
  // "posted" signal into the first epoch), publish horizons into the
  // buffer epoch 0 will read, reset this worker's epoch-parity state.
  for (int s = lo; s < hi; ++s) {
    Engine& eng = *engines_[std::size_t(s)];
    for (int src = 0; src < n; ++src) {
      if (src != s) drained_[std::size_t(s)] += drain_box(src, s);
    }
    next_[0][std::size_t(s)].store(eng.idle() ? kNever
                                              : eng.next_event_time(),
                                   std::memory_order_relaxed);
  }
  worker_parity_[worker] = 0;
  posted_flag_[0][worker] = 0;
  posted_flag_[1][worker] = 0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    barrier_.arrive_and_wait();
    wait_ns += wall_ns_since(t0);
  }

  std::uint8_t parity = 0;
  for (;;) {
    // Window phase.  Epoch k's horizons live in next_[k & 1], frozen for
    // the whole epoch (publishes go to the other buffer), so every worker
    // derives identical windows and an identical termination verdict from
    // identical data — no coordinator thread, no broadcast, and no race
    // against faster workers that are already publishing for epoch k+1.
    const auto& cur = next_[parity];
    auto& pub = next_[parity ^ 1];
    TimePoint gmin = kNever;
    for (int t = 0; t < n; ++t) {
      horizon[std::size_t(t)] =
          cur[std::size_t(t)].load(std::memory_order_relaxed);
      gmin = std::min(gmin, horizon[std::size_t(t)]);
    }
    if (gmin > deadline) {
      // Nothing left at or before the deadline anywhere; mailboxes are
      // empty (drained below or at entry, and no shard has run since).
      // Clamp the owned clocks to the deadline exactly as
      // Engine::run_until does.  The final barrier is the completion
      // handshake with the persistent pool: when worker 0 leaves it,
      // every shard is clamped and every worker write is visible to the
      // caller of run_until.
      for (int s = lo; s < hi; ++s) {
        engines_[std::size_t(s)]->run_until(deadline);
      }
      // Stats are published before the handshake so worker 0 (and the
      // caller) reads them race-free; the handshake's own wait is the one
      // uncounted barrier.
      barrier_wait_ns_[worker] += wait_ns;
      barrier_.arrive_and_wait();
      return;
    }

    worker_parity_[worker] = parity;
    posted_flag_[parity][worker] = 0;
    for (int s = lo; s < hi; ++s) {
      Engine& eng = *engines_[std::size_t(s)];
      const TimePoint wend =
          matrix_.window_end(s, horizon.data(), deadline);
      window_end_[std::size_t(s)].store(wend, std::memory_order_relaxed);
      const std::uint64_t before = eng.events_executed();
      eng.run_until(wend);
      if (eng.events_executed() == before) {
        ++idle_windows_[std::size_t(s)];
      }
      // Publish for epoch k+1.  Correct as-is for a fused epoch; the
      // drain phase overwrites the shards that actually received mail.
      pub[std::size_t(s)].store(eng.idle() ? kNever
                                           : eng.next_event_time(),
                                std::memory_order_relaxed);
    }
    if (worker == 0) ++epochs_;
    {
      const auto t0 = std::chrono::steady_clock::now();
      barrier_.arrive_and_wait();
      wait_ns += wall_ns_since(t0);
    }

    // Fused-epoch decision: every worker scans the same posted flags for
    // this parity and reaches the same verdict (the flags were all
    // written before the barrier), so nobody can disagree about whether
    // the drain barrier below happens — a disagreement would deadlock.
    bool any_posted = false;
    for (unsigned w = 0; w < workers_; ++w) {
      any_posted = any_posted || posted_flag_[parity][w] != 0;
    }
    if (!any_posted) {
      if (worker == 0) ++fused_epochs_;
    } else {
      // Drain phase: move mailed frames into the owned shards' queues (in
      // (src, post order), which the queue's tie-break turns into the
      // (when, src_shard, seq) firing order), touching only dirty boxes.
      for (int s = lo; s < hi; ++s) {
        std::uint64_t moved = 0;
        for (int src = 0; src < n; ++src) {
          if (src != s && box_dirty_[box_index(src, s)] != 0) {
            moved += drain_box(src, s);
          }
        }
        if (moved != 0) {
          drained_[std::size_t(s)] += moved;
          Engine& eng = *engines_[std::size_t(s)];
          pub[std::size_t(s)].store(eng.idle() ? kNever
                                               : eng.next_event_time(),
                                    std::memory_order_relaxed);
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      barrier_.arrive_and_wait();
      wait_ns += wall_ns_since(t0);
    }
    parity ^= 1;
  }
}

std::uint64_t ShardedConductor::total_events() const {
  std::uint64_t sum = 0;
  for (const auto& e : engines_) sum += e->events_executed();
  return sum;
}

std::vector<std::uint64_t> ShardedConductor::per_shard_events() const {
  std::vector<std::uint64_t> out;
  out.reserve(engines_.size());
  for (const auto& e : engines_) out.push_back(e->events_executed());
  return out;
}

std::uint64_t ShardedConductor::cross_posts() const {
  std::uint64_t sum = 0;
  for (std::uint64_t p : posted_) sum += p;
  return sum;
}

ConductorStats ShardedConductor::stats() const {
  ConductorStats st;
  st.epochs = epochs_;
  st.fused_epochs = fused_epochs_;
  st.cross_posts = cross_posts();
  for (std::uint64_t d : drained_) st.drained_posts += d;
  st.idle_windows = idle_windows_;
  st.barrier_wait_ns = barrier_wait_ns_;
  return st;
}

}  // namespace nestv::sim

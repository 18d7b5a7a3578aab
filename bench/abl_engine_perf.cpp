// Ablation — the simulation-engine hot path itself.
//
// Counts the engine's work on the steady-state NAT Netperf scenario: queue
// events, InlineTask heap spills, frame clones and packet-pool reuse.  It
// also counts the real heap allocations per steady-state packet, on the
// NAT world and on a cross-VM Overlay world with the ONCache fast path off
// (every datagram encapsulated and decapsulated by the VXLAN slow path),
// and exits 1 once either reaches the DESIGN.md §8 budget (0.1).  The
// allocation count comes from a counting global `operator new` compiled
// into this binary only, armed around the measured window, so the number
// reflects the real hot path (InlineTask inline storage, the event queue,
// the packet pool) rather than setup or teardown.  It depends on the C++
// runtime, so it is printed and checked against the budget but kept out
// of the JSON.
// Simulated metrics (rr transactions, stream Mbps) must match every other
// bench at the same seed — the instrumentation must never perturb the
// simulation.  Wall-clock speed is benchmark/nestv_bench's job.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_util.hpp"
#include "net/packet_pool.hpp"
#include "sim/inline_task.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_heap_allocs{0};

inline void note_alloc() noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

// Counting global allocator, this translation unit / binary only.  All
// variants funnel through plain malloc/free so sized and unsized deletes
// stay interchangeable; only allocations are counted.
void* operator new(std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  note_alloc();
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(align);
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     n ? n : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

/// Real heap allocations per steady-state packet allowed (DESIGN.md §8).
constexpr double kHeapAllocsPerPacketBudget = 0.1;

struct PhaseResult {
  double events = 0;          // queue events executed in the window
  std::uint64_t packets = 0;  // steady-state wire frames
  std::uint64_t heap_allocs = 0;
  std::uint64_t tasks_heap = 0;
  std::uint64_t frames_cloned = 0;
  double pool_reuse_ratio = 0;
  std::uint64_t pool_reuses = 0;
  std::uint64_t pool_fresh = 0;
  std::uint64_t rr_transactions = 0;
  double stream_mbps = 0;

  double heap_allocs_per_packet() const {
    return packets ? static_cast<double>(heap_allocs) /
                         static_cast<double>(packets)
                   : 0.0;
  }
};

/// The measured worlds: the NAT single server, and a cross-VM Overlay
/// pair with the ONCache fast path off, so every datagram takes the VXLAN
/// encap/decap slow path.
enum class World { kNat, kOverlaySlowPath };

/// One measured Netperf window on a fresh scenario `s` (a SingleServer or
/// a CrossVm) serving on `port`.
template <typename Scenario>
PhaseResult measure(Scenario& s, std::uint16_t port) {
  using namespace nestv;
  auto& engine = s.bed->engine();
  workload::Netperf np(engine, s.client, s.server, port);

  // Warmup: establish flows, settle conntrack, and fill the packet pool and
  // event-queue slot free lists so the measured window is steady state.  The
  // RR phase runs before the window too: ping-pong traffic is serial by
  // construction (one packet in flight), so the steady-state measurement is
  // the saturating stream.
  np.run_udp_rr(256, sim::milliseconds(20));
  const auto rr = np.run_udp_rr(256, sim::milliseconds(150));

  auto& pool = net::PacketPool::local();
  pool.reset_stats();
  net::PacketPool::reset_frames_cloned();
  sim::InlineTask::reset_heap_fallbacks();
  const auto ev0 = engine.events_executed();
  g_heap_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const auto st = np.run_tcp_stream(1280, sim::milliseconds(400));
  g_counting.store(false, std::memory_order_relaxed);

  PhaseResult r;
  r.events = static_cast<double>(engine.events_executed() - ev0);
  // A steady-state packet = one wire frame: one MSS-sized segment per
  // delivered stream chunk (ACKs and retransmits ride on the same event
  // chains and are not double-counted).
  r.packets = (st.bytes_delivered + 1279) / 1280;
  r.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
  r.tasks_heap = sim::InlineTask::heap_fallbacks();
  r.frames_cloned = net::PacketPool::frames_cloned();
  r.pool_reuse_ratio = pool.reuse_ratio();
  r.pool_reuses = pool.reuses();
  r.pool_fresh = pool.fresh_allocs();
  r.rr_transactions = rr.transactions;
  r.stream_mbps = st.throughput_mbps;
  return r;
}

/// One measured window of `world`.
PhaseResult run_phase(std::uint64_t seed, World world) {
  using namespace nestv;
  scenario::TestbedConfig config;
  config.seed = seed;
  if (world == World::kOverlaySlowPath) {
    auto s = scenario::make_cross_vm(scenario::CrossVmMode::kOverlay, 6001,
                                     config);
    return measure(s, 6001);
  }
  auto s = scenario::make_single_server(scenario::ServerMode::kNat, 5001,
                                        config);
  return measure(s, 5001);
}

/// Prints a FAIL line and returns false when `r` is over the budget.
bool within_budget(const char* world, const PhaseResult& r) {
  if (r.heap_allocs_per_packet() < kHeapAllocsPerPacketBudget) return true;
  std::fprintf(stderr,
               "FAIL: %.4f heap allocations per steady-state packet on "
               "%s (budget < %.1f)\n",
               r.heap_allocs_per_packet(), world, kHeapAllocsPerPacketBudget);
  return false;
}

void print_phase(const char* label, const PhaseResult& r) {
  std::printf("%s\n", label);
  std::printf("  events executed        %14.0f\n", r.events);
  std::printf("  steady-state packets   %14llu\n",
              static_cast<unsigned long long>(r.packets));
  std::printf("  heap allocations       %14llu  (%.4f per packet)\n",
              static_cast<unsigned long long>(r.heap_allocs),
              r.heap_allocs_per_packet());
  std::printf("  InlineTask heap spills %14llu\n",
              static_cast<unsigned long long>(r.tasks_heap));
  std::printf("  frames cloned          %14llu\n",
              static_cast<unsigned long long>(r.frames_cloned));
  std::printf("  pool reuse ratio       %14.4f  (%llu reused / %llu fresh)\n",
              r.pool_reuse_ratio,
              static_cast<unsigned long long>(r.pool_reuses),
              static_cast<unsigned long long>(r.pool_fresh));
  std::printf("  sim check: rr_tx %llu, stream %.1f Mbps\n",
              static_cast<unsigned long long>(r.rr_transactions),
              r.stream_mbps);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nestv;
  const auto seed = bench::parse_args(argc, argv).seed;

  std::printf("ablation: engine hot path (steady-state NAT Netperf)\n\n");
  const auto plain = run_phase(seed, World::kNat);
  print_phase("NAT", plain);
  const auto overlay = run_phase(seed, World::kOverlaySlowPath);
  std::printf("\n");
  print_phase("Overlay, ONCache off (VXLAN slow path)", overlay);

  bench::JsonReport report("abl_engine_perf", seed);
  report.add("events_sim", plain.events);
  report.add("steady_state_packets", static_cast<double>(plain.packets));
  report.add("tasks_heap", static_cast<double>(plain.tasks_heap));
  report.add("frames_cloned", static_cast<double>(plain.frames_cloned));
  report.add("pool_reuse_ratio", plain.pool_reuse_ratio);
  report.add("rr_transactions", static_cast<double>(plain.rr_transactions));
  report.add("stream_mbps", plain.stream_mbps);
  report.set_execution_info(1, 1, {static_cast<std::uint64_t>(plain.events)});
  report.write();

  // Budget-only: the allocation count depends on the C++ runtime, so the
  // overlay world stays out of the JSON like the NAT world's count.
  const bool nat_ok = within_budget("NAT", plain);
  const bool overlay_ok = within_budget("Overlay (ONCache off)", overlay);
  return nat_ok && overlay_ok ? 0 : 1;
}

// Shared drivers for the figure-regeneration benches.
//
// Every bench accepts an optional positional seed argument (default 42) and
// an optional `--jobs N` flag, and prints deterministic tables;
// EXPERIMENTS.md records these outputs against the paper's reported
// numbers.  With --jobs > 1 the independent measurement points of a sweep
// run on a thread pool — each simulation stays single-threaded and
// deterministic, and results are emitted in input order, so the printed
// tables and the BENCH_*.json files are identical to a sequential run.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_args.hpp"
#include "json_report.hpp"
#include "net/packet_pool.hpp"
#include "scenario/cross_vm.hpp"
#include "scenario/single_server.hpp"
#include "sim/cpu.hpp"
#include "workload/apps.hpp"
#include "workload/netperf.hpp"

namespace nestv::bench {

/// Oversubscription guard: sweeping more points in parallel than the host
/// has hardware threads adds only scheduler churn, so sweeps clamp
/// `--jobs` to hardware_concurrency and the JSON execution section reports
/// the clamped value — what actually ran, not what was asked for.  Results
/// are unaffected either way (each point is deterministic).
inline int effective_jobs(int jobs) {
  if (jobs < 1) jobs = 1;
  const unsigned hw = std::thread::hardware_concurrency();
  // hw == 0: unknown topology, trust the caller.
  return hw == 0 || jobs < static_cast<int>(hw) ? jobs : static_cast<int>(hw);
}

/// Maps `fn` over `inputs` on up to `jobs` worker threads and returns the
/// results in input order.  Each call of `fn` must be self-contained: every
/// measurement point builds its own Testbed/Engine and measures inside a
/// StatScope.  Thread-local counters alone are not enough — a worker's
/// PacketPool free list would carry from one point to the next — so the
/// StatScope empties the pool, and a parallel sweep produces bit-for-bit
/// the sequential output.
template <typename In, typename Fn>
auto parallel_sweep(const std::vector<In>& inputs, int jobs, Fn fn)
    -> std::vector<decltype(fn(inputs[0]))> {
  using Out = decltype(fn(inputs[0]));
  std::vector<Out> results(inputs.size());
  const int asked = jobs;
  jobs = effective_jobs(jobs);
  if (jobs < asked) {
    std::printf("note: --jobs %d clamped to %d (%u hardware threads)\n",
                asked, jobs, std::thread::hardware_concurrency());
  }
  if (jobs <= 1 || inputs.size() <= 1) {
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      results[i] = fn(inputs[i]);
    }
    return results;
  }
  std::atomic<std::size_t> next{0};
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs), inputs.size());
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= inputs.size()) return;
        results[i] = fn(inputs[i]);
      }
    });
  }
  for (auto& t : pool) t.join();
  return results;
}

/// The paper sweeps message sizes up to ~1408B (fig 4 / fig 10 x-axis).
inline const std::vector<std::uint32_t>& message_sizes() {
  static const std::vector<std::uint32_t> sizes{64,  256,  512,
                                                1024, 1280, 1408};
  return sizes;
}

/// Per-run datapath statistics emitted into every bench's JSON: engine
/// events, packet-pool traffic and deep frame copies.  The counters are
/// engine-local or thread-local, and every point starts from an empty pool
/// (StatScope), so points measured on a parallel sweep produce the same
/// numbers as a sequential run.
struct DatapathStats {
  std::uint64_t events = 0;           ///< queue events executed
  std::uint64_t pool_fresh = 0;       ///< pool misses (real allocations)
  std::uint64_t pool_reuses = 0;      ///< pool hits
  std::uint64_t frames_cloned = 0;    ///< deep EthernetFrame copies
  std::uint64_t packets = 0;          ///< app-level packets moved

  DatapathStats& operator+=(const DatapathStats& o) {
    events += o.events;
    pool_fresh += o.pool_fresh;
    pool_reuses += o.pool_reuses;
    frames_cloned += o.frames_cloned;
    packets += o.packets;
    return *this;
  }
};

/// Empties the thread-local pool and snapshots its counters at
/// construction; finish() returns the deltas plus the engine's event
/// counter.  Construct before building the Testbed so setup traffic is
/// included consistently.  The trim makes a point's pool traffic
/// independent of whichever points ran before it on the same thread.
class StatScope {
 public:
  StatScope() {
    auto& pool = net::PacketPool::local();
    pool.trim();
    fresh0_ = pool.fresh_allocs();
    reuse0_ = pool.reuses();
    cloned0_ = net::PacketPool::frames_cloned();
  }

  [[nodiscard]] DatapathStats finish(sim::Engine& engine,
                                     std::uint64_t packets) const {
    auto& pool = net::PacketPool::local();
    DatapathStats s;
    s.events = engine.events_executed();
    s.pool_fresh = pool.fresh_allocs() - fresh0_;
    s.pool_reuses = pool.reuses() - reuse0_;
    s.frames_cloned = net::PacketPool::frames_cloned() - cloned0_;
    s.packets = packets;
    return s;
  }

 private:
  std::uint64_t fresh0_ = 0;
  std::uint64_t reuse0_ = 0;
  std::uint64_t cloned0_ = 0;
};

/// App-level packets of one Netperf point: request+response per RR
/// transaction plus one msg-sized chunk per delivered stream byte run.
inline std::uint64_t netperf_packets(const workload::RrResult& rr,
                                     const workload::StreamResult& st,
                                     std::uint32_t msg_bytes) {
  return rr.transactions * 2 +
         (st.bytes_delivered + msg_bytes - 1) / msg_bytes;
}

/// Adds the consolidated datapath stats of a bench run to its JSON (all
/// deterministic, so tools/check_bench.py gates them; the CI bench job
/// folds them into BENCH_summary.json for the cross-PR perf trajectory).
inline void add_datapath_stats(JsonReport& report, const DatapathStats& s) {
  const double packets =
      s.packets ? static_cast<double>(s.packets) : 1.0;
  report.add("packets_total", static_cast<double>(s.packets));
  report.add("events_total", static_cast<double>(s.events));
  report.add("events_per_packet", static_cast<double>(s.events) / packets);
  report.add("pool_fresh_allocs", static_cast<double>(s.pool_fresh));
  report.add("pool_reuses", static_cast<double>(s.pool_reuses));
  report.add("pool_allocs_per_packet",
             static_cast<double>(s.pool_fresh) / packets);
  report.add("frames_cloned", static_cast<double>(s.frames_cloned));
}

/// Records the execution shape of a single-engine bench: one shard, the
/// sweep's *effective* worker threads (after the oversubscription clamp —
/// the execution section must describe what ran), and the summed engine
/// events of the measured points as that shard's event count.  Sharded
/// benches call JsonReport::set_execution_info directly with the
/// conductor's numbers.
inline void record_execution(JsonReport& report, const BenchArgs& args,
                             const DatapathStats& total) {
  report.set_execution_info(1,
                            static_cast<unsigned>(effective_jobs(args.jobs)),
                            {total.events});
}

struct MicroPoint {
  std::uint32_t msg_bytes = 0;
  double throughput_mbps = 0.0;
  double latency_us = 0.0;
  double latency_stddev_us = 0.0;
  std::uint64_t transactions = 0;
  DatapathStats stats;
};

/// One Netperf point (UDP_RR + TCP_STREAM): on a single-server scenario
/// serving on port 5001 for a ServerMode, on a cross-VM one (fig 10)
/// serving on 6001 for a CrossVmMode.
template <typename Mode>
MicroPoint micro_point(Mode mode, std::uint32_t msg_bytes,
                       std::uint64_t seed,
                       sim::Duration rr_window = sim::milliseconds(150),
                       sim::Duration stream_window = sim::milliseconds(200),
                       scenario::TestbedConfig config = {}) {
  constexpr bool kSingle = std::is_same_v<Mode, scenario::ServerMode>;
  constexpr std::uint16_t kPort = kSingle ? 5001 : 6001;
  config.seed = seed;
  const StatScope scope;
  auto s = [&] {
    if constexpr (kSingle) {
      return scenario::make_single_server(mode, kPort, config);
    } else {
      return scenario::make_cross_vm(mode, kPort, config);
    }
  }();
  workload::Netperf np(s.bed->engine(), s.client, s.server, kPort);
  const auto rr = np.run_udp_rr(msg_bytes, rr_window);
  const auto st = np.run_tcp_stream(msg_bytes, stream_window);
  return {msg_bytes,
          st.throughput_mbps,
          rr.mean_latency_us,
          rr.stddev_latency_us,
          rr.transactions,
          scope.finish(s.bed->engine(), netperf_packets(rr, st, msg_bytes))};
}

enum class MacroApp { kMemcached, kNginx, kKafka };

inline const char* to_string(MacroApp a) {
  switch (a) {
    case MacroApp::kMemcached: return "memcached";
    case MacroApp::kNginx: return "nginx";
    case MacroApp::kKafka: return "kafka";
  }
  return "?";
}

struct MacroResult {
  workload::LoadResult load;
  /// usr/sys/soft/guest cores for selected accounts over the run window.
  struct CpuRow {
    std::string account;
    double usr = 0, sys = 0, soft = 0, guest = 0;
  };
  std::vector<CpuRow> cpu;
};

/// Runs one macro app over prepared endpoints, capturing CPU breakdowns.
template <typename BedOwner>
MacroResult run_macro(BedOwner& s, MacroApp app, std::uint16_t port,
                      std::uint64_t seed, sim::Duration window) {
  auto& engine = s.bed->engine();
  auto& ledger = s.bed->machine().ledger();

  workload::MacroDeployment d;
  switch (app) {
    case MacroApp::kMemcached:
      d = workload::deploy_memcached(s.client, s.server, port,
                                     sim::Rng(seed), {});
      break;
    case MacroApp::kNginx:
      d = workload::deploy_nginx(s.client, s.server, port, sim::Rng(seed),
                                 {});
      break;
    case MacroApp::kKafka:
      d = workload::deploy_kafka(s.client, s.server, port, sim::Rng(seed),
                                 {});
      break;
  }

  // Let connections establish, then measure over a clean CPU window.
  s.bed->run_for(sim::milliseconds(20));
  ledger.reset_all();
  const auto t0 = engine.now();

  MacroResult out;
  if (d.closed_client) {
    out.load = d.closed_client->run(engine, window);
  } else {
    out.load = d.open_client->run(engine, window);
  }
  const auto wall = engine.now() - t0;

  for (const auto* acc : ledger.accounts()) {
    MacroResult::CpuRow row;
    row.account = acc->name();
    row.usr = acc->cores(sim::CpuCategory::kUsr, wall);
    row.sys = acc->cores(sim::CpuCategory::kSys, wall);
    row.soft = acc->cores(sim::CpuCategory::kSoft, wall);
    row.guest = acc->cores(sim::CpuCategory::kGuest, wall);
    out.cpu.push_back(row);
  }
  return out;
}

inline void print_cpu_rows(const MacroResult& r) {
  std::printf("    %-28s %7s %7s %7s %7s\n", "account", "usr", "sys", "soft",
              "guest");
  for (const auto& row : r.cpu) {
    if (row.usr + row.sys + row.soft + row.guest < 1e-4) continue;
    std::printf("    %-28s %7.3f %7.3f %7.3f %7.3f\n", row.account.c_str(),
                row.usr, row.sys, row.soft, row.guest);
  }
}

}  // namespace nestv::bench

// nestv_bench: runs one benchmark workload of the simulator and prints its
// raw measurements as one JSON object on the last line of stdout.
//
//   nestv_bench --workload NAME [--seed N] [--seconds S | --iterations N]
//               [--window-div D] [--trace-out FILE]
//
// Each iteration builds a fresh world, warms it up, runs the workload's
// measured call and tears the world down, timing the phases with
// steady_clock from outside the library.  Iterations repeat until
// --seconds have passed and at least three ran.  Single-engine workloads
// also set up extra worlds first, so set-up time has enough samples for a
// median.  --trace-out adds a traced run, separate from the timed one and
// a quarter of its length, that records spans and counters as a Chrome
// trace-event file; each traced iteration follows an untraced one.
// benchmark/run.py turns the output into medians and checks it; this
// program only measures.
//
// Counters that live in thread-local storage (packet pool, frame clones,
// InlineTask spills) are read on the calling thread, so they are reported
// only for workloads that run on one thread and read 0 on macro_churn_s4.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/packet_pool.hpp"
#include "scenario/cross_vm.hpp"
#include "scenario/macro_scale.hpp"
#include "scenario/single_server.hpp"
#include "sim/cpu.hpp"
#include "sim/inline_task.hpp"
#include "workload/netperf.hpp"

namespace {

using namespace nestv;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kStreamMsgBytes = 1280;
/// Iterations per timed or traced run however short --seconds is, and of
/// the shards=1 reference in a traced macro_churn_s4 run.
constexpr int kMinIterations = 3;
/// Worlds set up per run of a single-engine workload before timing starts;
/// their set-up times join the iterations' samples.  Set-up takes a few
/// milliseconds, so the median needs more samples than the iterations give.
constexpr int kExtraSetups = 20;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "nestv_bench: %s\n"
               "usage: nestv_bench --workload NAME [--seed N] "
               "[--seconds S | --iterations N] [--window-div D] "
               "[--trace-out FILE]\n",
               msg.c_str());
  std::exit(2);
}

/// Whole decimal number in [min, max]; anything else is a usage error.
std::uint64_t parse_uint(std::string_view flag, std::string_view text,
                         std::uint64_t min, std::uint64_t max) {
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (text.empty() || ec != std::errc{} || end != text.data() + text.size() ||
      v < min || v > max) {
    usage_error(std::string(flag) + " wants a whole number in [" +
                std::to_string(min) + ", " + std::to_string(max) +
                "], got '" + std::string(text) + "'");
  }
  return v;
}

// ---- workloads --------------------------------------------------------------

enum class Kind { kNatStream, kHostloRr, kOverlayRr, kMacroS1, kMacroS4 };

struct WorkloadDef {
  const char* name;
  Kind kind;
};

constexpr WorkloadDef kWorkloads[] = {
    {"nat_stream", Kind::kNatStream},
    {"hostlo_rr", Kind::kHostloRr},
    {"overlay_rr", Kind::kOverlayRr},
    {"macro_churn_s1", Kind::kMacroS1},
    {"macro_churn_s4", Kind::kMacroS4},
};

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

/// The world, arrival rate and timers of abl_macro_scale --full (200
/// machines in 10 racks of 20 under 4 spines, 500 flows/ms, 8 streams)
/// over a fifth of its arrival window: 20k flows in 40 ms.  The full
/// window runs 7 s and more per iteration, too few samples for a steady
/// median on a shared host.  `div` shortens the window and the flow count
/// together (the --smoke scale).
scenario::MacroScaleConfig macro_config(std::uint64_t seed, int shards,
                                        unsigned workers, int div) {
  scenario::MacroScaleConfig cfg;
  cfg.seed = seed;
  cfg.machines = 200;
  cfg.machines_per_rack = 20;
  cfg.spines = 4;
  cfg.trace_users = 256;
  cfg.flows = 20000 / div;
  cfg.arrival_window = sim::milliseconds(40) / div;
  cfg.drain = sim::milliseconds(80);
  cfg.conntrack_idle = sim::milliseconds(60);
  cfg.gc_interval = sim::milliseconds(25);
  cfg.tcp_streams = 8;
  cfg.shards = shards;
  cfg.max_workers = workers;
  return cfg;
}

// ---- tracing ----------------------------------------------------------------

/// Chrome trace-event recorder: complete ("X") spans and counter ("C")
/// samples kept in memory and written once at the end.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  void span(const char* name, double begin_us, double end_us) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"nestv\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}",
                  name, begin_us, end_us - begin_us);
    events_.emplace_back(buf);
  }

  void counter(const char* name, double value) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                  "\"args\":{\"value\":%.17g}}",
                  name, now_us(), value);
    events_.emplace_back(buf);
  }

  /// Samples the thread-local datapath counters and, while a world is
  /// alive, its engine's event count.
  void sample_counters(const sim::Engine* engine) {
    const auto& pool = net::PacketPool::local();
    counter("net.pool.fresh_allocs", double(pool.fresh_allocs()));
    counter("net.pool.reuses", double(pool.reuses()));
    counter("net.frames_cloned", double(net::PacketPool::frames_cloned()));
    counter("sim.inline_task_heap_spills",
            double(sim::InlineTask::heap_fallbacks()));
    if (engine != nullptr) {
      counter("sim.events", double(engine->events_executed()));
    }
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      out << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) {
      std::fprintf(stderr, "nestv_bench: cannot write %s\n", path.c_str());
      std::exit(1);
    }
  }

 private:
  Clock::time_point t0_;
  std::vector<std::string> events_;
};

/// Brackets one public call: a span plus counter samples at both edges.
/// A null tracer makes it a no-op, so timed iterations pay nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name, const sim::Engine* engine = nullptr)
      : tracer_(tracer), name_(name), engine_(engine) {
    if (tracer_ == nullptr) return;
    tracer_->sample_counters(engine_);
    begin_us_ = tracer_->now_us();
  }
  ~Span() {
    if (tracer_ == nullptr) return;
    tracer_->span(name_, begin_us_, tracer_->now_us());
    tracer_->sample_counters(engine_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  const sim::Engine* engine_;
  double begin_us_ = 0;
};

// ---- one iteration ------------------------------------------------------------

/// Raw measurements of one iteration.  `counts` holds every deterministic
/// output: the same (workload, seed, window) must reproduce it exactly.
struct Sample {
  double build_s = 0;  ///< the scenario's build call
  double setup_s = 0;  ///< build plus warm-up: all before the measured call
  double wall_s = 0;
  double teardown_s = 0;
  double sim_ns = 0;     ///< simulated time the measured call covered
  double sim_pkts = 0;   ///< 2 x RR transactions + stream bytes / 1280
  double attempted = 0;  ///< operations the run tried (packets or flows)
  double failed = 0;     ///< of which dropped / not completed
  double barrier_wait_ns = 0;
  unsigned workers = 1;
  std::map<std::string, double> counts;
};

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

/// Clears the calling thread's datapath counters.
void reset_thread_counters() {
  net::PacketPool::local().reset_stats();
  net::PacketPool::reset_frames_cloned();
  sim::InlineTask::reset_heap_fallbacks();
}

/// Every per-layer count, zero until a workload fills it in: the same key
/// set for every workload keeps the golden file and the comparison simple.
std::map<std::string, double> zero_counts() {
  std::map<std::string, double> c;
  for (const char* k :
       {"sim.events", "sim.events_per_pkt", "sim.inline_task_heap_spills",
        "sim.conductor.epochs", "sim.conductor.fused_epoch_frac",
        "sim.conductor.cross_posts", "sim.conductor.events_per_epoch",
        "sim.conductor.balance_ceiling", "sim.conductor.idle_window_frac",
        "net.pool.fresh_allocs", "net.pool.reuse_ratio",
        "net.frames_cloned_per_pkt", "net.netfilter.hook_traversals_per_pkt",
        "net.stack.pkts_dropped", "net.conntrack.peak_entries",
        "net.conntrack.bytes_at_peak", "net.conntrack.gc_reaped",
        "net.flowcache.entries_at_peak", "net.flowcache.bytes_at_peak",
        "net.state_bytes_per_flow", "net.oncache.hits_per_pkt",
        "net.oncache.state_bytes", "simcpu.usr_ns_per_pkt",
        "simcpu.sys_ns_per_pkt", "simcpu.soft_ns_per_pkt",
        "simcpu.guest_ns_per_pkt", "simcpu.host_ns_per_pkt",
        "simcpu.vm_ns_per_pkt", "orch.pods_scheduled", "orch.vms_bought",
        "workload.rr_transactions", "workload.rr_latency_us_mean",
        "workload.rr_latency_us_p99", "workload.stream_mbps",
        "workload.flows_completed", "workload.flow_digest"}) {
    c[k] = 0.0;
  }
  return c;
}

/// Stacks whose counters a netperf iteration reads: both endpoints and
/// the VMs hosting them, the host kernel, each once.
std::vector<net::StackBackend*> stacks_of(scenario::Testbed& bed,
                                          const scenario::Endpoint& client,
                                          const scenario::Endpoint& server) {
  std::vector<net::StackBackend*> out;
  auto add = [&out](net::StackBackend* s) {
    if (s != nullptr && std::find(out.begin(), out.end(), s) == out.end()) {
      out.push_back(s);
    }
  };
  add(client.stack);
  add(server.stack);
  if (client.vm != nullptr) add(&client.vm->stack());
  if (server.vm != nullptr) add(&server.vm->stack());
  add(&bed.machine().stack());
  return out;
}

struct StackTotals {
  double delivered = 0, forwarded = 0, dropped = 0;
};

StackTotals stack_totals(const std::vector<net::StackBackend*>& stacks) {
  StackTotals t;
  for (const auto* s : stacks) {
    t.delivered += double(s->packets_delivered());
    t.forwarded += double(s->packets_forwarded());
    t.dropped += double(s->packets_dropped());
  }
  return t;
}

/// A single-engine world: the NAT single server or a cross-VM pod.
struct World {
  std::optional<scenario::SingleServer> single;
  std::optional<scenario::CrossVm> cross;
  std::uint16_t port = 0;

  scenario::Testbed& bed() { return single ? *single->bed : *cross->bed; }
  const scenario::Endpoint& client() const {
    return single ? single->client : cross->client;
  }
  const scenario::Endpoint& server() const {
    return single ? single->server : cross->server;
  }
};

World build_world(Kind kind, std::uint64_t seed) {
  scenario::TestbedConfig cfg;
  cfg.seed = seed;
  World w;
  switch (kind) {
    case Kind::kNatStream:
      w.port = 5001;
      w.single.emplace(
          scenario::make_single_server(scenario::ServerMode::kNat, w.port, cfg));
      break;
    case Kind::kHostloRr:
      w.port = 6001;
      w.cross.emplace(
          scenario::make_cross_vm(scenario::CrossVmMode::kHostlo, w.port, cfg));
      break;
    default:
      w.port = 6001;
      w.cross.emplace(
          scenario::make_cross_vm(scenario::CrossVmMode::kOverlay, w.port, cfg));
      w.cross->overlay->set_oncache_enabled(true);
      break;
  }
  return w;
}

/// Lazy set-up the measured call should not pay: ARP, conntrack entries,
/// cached paths, pooled packets.
void warm_up(World& w) {
  workload::Netperf np(w.bed().engine(), w.client(), w.server(), w.port);
  (void)np.run_udp_rr(256, sim::milliseconds(20));
}

/// UDP_RR or TCP_STREAM on a single-engine world.  Each window takes about
/// 0.4 s of wall time here: many short iterations give a median that rides
/// out the seconds-long slow bursts of a shared host.
Sample netperf_iteration(Kind kind, std::uint64_t seed, int div,
                         Tracer* tracer) {
  // An empty pool makes this iteration's pool counts independent of the
  // iterations before it.
  net::PacketPool::local().trim();
  Sample out;
  out.counts = zero_counts();

  const auto setup0 = Clock::now();
  World world;
  {
    Span span(tracer, "scenario.build");
    world = build_world(kind, seed);
    out.build_s = seconds_since(setup0);
  }
  scenario::Testbed& bed = world.bed();
  const scenario::Endpoint& client = world.client();
  const scenario::Endpoint& server = world.server();
  sim::Engine& engine = bed.engine();
  {
    Span span(tracer, "workload.warmup", &engine);
    warm_up(world);
  }
  out.setup_s = seconds_since(setup0);

  sim::CpuLedger& ledger = bed.machine().ledger();
  const auto stacks = stacks_of(bed, client, server);
  net::StackBackend& server_vm_stack =
      server.vm != nullptr ? server.vm->stack() : *server.stack;
  auto traversals = [&server_vm_stack] {
    return server_vm_stack.has_netfilter()
               ? double(server_vm_stack.netfilter().hook_traversals())
               : 0.0;
  };
  scenario::OverlayNetwork* overlay =
      world.cross ? world.cross->overlay.get() : nullptr;
  auto oncache_hits = [overlay] {
    if (overlay == nullptr) return 0.0;
    const auto t = overlay->oncache_totals();
    return double(t.egress_hits + t.ingress_hits);
  };

  {
    workload::Netperf np(engine, client, server, world.port);
    ledger.reset_all();
    reset_thread_counters();
    const auto ev0 = engine.events_executed();
    const auto tr0 = traversals();
    const auto hits0 = oncache_hits();
    const StackTotals st0 = stack_totals(stacks);
    const auto sim0 = engine.now();

    workload::RrResult rr;
    workload::StreamResult stream;
    {
      Span span(tracer, "workload.run", &engine);
      const auto t0 = Clock::now();
      switch (kind) {
        case Kind::kNatStream:
          stream = np.run_tcp_stream(kStreamMsgBytes, sim::seconds(1) / div);
          break;
        case Kind::kHostloRr:
          rr = np.run_udp_rr(64, sim::seconds(5) / div);
          break;
        default:
          rr = np.run_udp_rr(64, sim::seconds(3) / div);
          break;
      }
      out.wall_s = seconds_since(t0);
    }

    out.sim_ns = double(engine.now() - sim0);
    out.sim_pkts = 2.0 * double(rr.transactions) +
                   double(stream.bytes_delivered) / kStreamMsgBytes;
    const StackTotals st1 = stack_totals(stacks);
    const double dropped = st1.dropped - st0.dropped;
    const double cloned = double(net::PacketPool::frames_cloned());
    out.attempted = (st1.delivered - st0.delivered) +
                    (st1.forwarded - st0.forwarded) + dropped;
    // The Hostlo reflect hands a copy of every frame to each queue, and the
    // endpoint it is not for drops it at its MAC filter: one drop per
    // cloned frame is the mechanism working, not a lost packet.
    out.failed = std::max(0.0, dropped - cloned);

    auto& c = out.counts;
    const double pkts = out.sim_pkts;
    const double events = double(engine.events_executed() - ev0);
    c["sim.events"] = events;
    c["sim.events_per_pkt"] = ratio(events, pkts);
    c["sim.inline_task_heap_spills"] =
        double(sim::InlineTask::heap_fallbacks());
    c["sim.conductor.balance_ceiling"] = 1.0;
    const auto& pool = net::PacketPool::local();
    c["net.pool.fresh_allocs"] = double(pool.fresh_allocs());
    c["net.pool.reuse_ratio"] = pool.reuse_ratio();
    c["net.frames_cloned_per_pkt"] = ratio(cloned, pkts);
    c["net.netfilter.hook_traversals_per_pkt"] =
        ratio(traversals() - tr0, pkts);
    c["net.stack.pkts_dropped"] = dropped;

    double ct_entries = 0, ct_bytes = 0, fc_entries = 0, fc_bytes = 0;
    for (const auto* s : stacks) {
      if (s->has_netfilter()) {
        ct_entries += double(s->netfilter().conntrack_size());
        ct_bytes += double(s->netfilter().conntrack_state_bytes());
      }
      if (s->has_flowcache()) {
        fc_entries += double(s->flow_cache().size());
        fc_bytes += double(s->flow_cache().state_bytes());
      }
    }
    c["net.conntrack.peak_entries"] = ct_entries;
    c["net.conntrack.bytes_at_peak"] = ct_bytes;
    c["net.flowcache.entries_at_peak"] = fc_entries;
    c["net.flowcache.bytes_at_peak"] = fc_bytes;
    c["net.state_bytes_per_flow"] = ratio(ct_bytes + fc_bytes, ct_entries);
    c["net.oncache.hits_per_pkt"] = ratio(oncache_hits() - hits0, pkts);
    if (overlay != nullptr) {
      c["net.oncache.state_bytes"] =
          double(overlay->oncache_totals().state_bytes);
    }

    double cat[4] = {0, 0, 0, 0};
    double host_ns = 0, vm_ns = 0;
    for (const auto* acc : ledger.accounts()) {
      for (int i = 0; i < 4; ++i) {
        cat[i] += double(acc->get(static_cast<sim::CpuCategory>(i)));
      }
      (acc->name().rfind("vm/", 0) == 0 ? vm_ns : host_ns) +=
          double(acc->total());
    }
    c["simcpu.usr_ns_per_pkt"] = ratio(cat[0], pkts);
    c["simcpu.sys_ns_per_pkt"] = ratio(cat[1], pkts);
    c["simcpu.soft_ns_per_pkt"] = ratio(cat[2], pkts);
    c["simcpu.guest_ns_per_pkt"] = ratio(cat[3], pkts);
    c["simcpu.host_ns_per_pkt"] = ratio(host_ns, pkts);
    c["simcpu.vm_ns_per_pkt"] = ratio(vm_ns, pkts);

    c["workload.rr_transactions"] = double(rr.transactions);
    c["workload.rr_latency_us_mean"] = rr.mean_latency_us;
    c["workload.rr_latency_us_p99"] = rr.p99_latency_us;
    c["workload.stream_mbps"] = stream.throughput_mbps;
  }

  {
    Span span(tracer, "scenario.teardown");
    const auto t0 = Clock::now();
    world = World{};
    out.teardown_s = seconds_since(t0);
  }
  return out;
}

/// Set-up of one world that then runs no traffic: samples beyond the
/// iterations' own.
double setup_only(Kind kind, std::uint64_t seed) {
  const auto t0 = Clock::now();
  World world = build_world(kind, seed);
  warm_up(world);
  return seconds_since(t0);
}

/// Fills the simulated-output counts of a macro run (everything that must
/// be identical at any shard count).
void macro_counts(const scenario::MacroScaleResult& r,
                  const scenario::MacroScaleConfig& cfg, Sample& out) {
  auto& c = out.counts;
  const double pkts = out.sim_pkts;
  c["sim.events"] = double(r.events_total);
  c["sim.events_per_pkt"] = ratio(double(r.events_total), pkts);
  c["net.conntrack.peak_entries"] = double(r.conntrack_peak_entries);
  c["net.conntrack.bytes_at_peak"] = double(r.conntrack_bytes_at_peak);
  c["net.conntrack.gc_reaped"] = double(r.conntrack_gc_reaped);
  c["net.flowcache.entries_at_peak"] = double(r.flowcache_entries_at_peak);
  c["net.flowcache.bytes_at_peak"] = double(r.flowcache_bytes_at_peak);
  c["net.state_bytes_per_flow"] = r.state_bytes_per_flow;
  c["net.oncache.hits_per_pkt"] = ratio(double(r.oncache_hits), pkts);
  c["net.oncache.state_bytes"] = double(r.oncache_bytes_at_peak);
  c["orch.pods_scheduled"] = r.pods_scheduled;
  c["orch.vms_bought"] = r.vms_bought;
  c["workload.rr_transactions"] = r.rr_transactions;
  c["workload.rr_latency_us_mean"] =
      ratio(r.rr_latency_ns_sum, r.rr_transactions) / 1e3;
  // Streams stop sending when arrivals end.
  c["workload.stream_mbps"] = r.stream_bytes_delivered * 8.0 /
                              sim::to_seconds(cfg.arrival_window) / 1e6;
  c["workload.flows_completed"] = r.flows_completed;
  c["workload.flow_digest"] = r.flow_digest;
}

Sample macro_iteration(int shards, unsigned workers, std::uint64_t seed,
                       int div, Tracer* tracer) {
  net::PacketPool::local().trim();
  reset_thread_counters();
  Sample out;
  out.counts = zero_counts();
  const auto cfg = macro_config(seed, shards, workers, div);

  scenario::MacroScaleResult r;
  {
    Span span(tracer, "scenario.run_macro_scale");
    const auto t0 = Clock::now();
    r = scenario::run_macro_scale(cfg);
    // The call builds the world, runs it for `wall_seconds` and tears it
    // down; everything but the run is set-up.
    out.setup_s = seconds_since(t0) - r.wall_seconds;
    out.build_s = out.setup_s;
  }
  out.wall_s = r.wall_seconds;
  out.sim_ns = double(sim::milliseconds(1) + cfg.arrival_window + cfg.drain);
  out.sim_pkts = 2.0 * r.rr_transactions +
                 r.stream_bytes_delivered / kStreamMsgBytes;
  out.attempted = cfg.flows;
  out.failed = cfg.flows - r.flows_completed;
  out.workers = r.worker_threads;
  for (const auto ns : r.barrier_wait_ns) out.barrier_wait_ns += double(ns);
  macro_counts(r, cfg, out);

  auto& c = out.counts;
  const double events = double(r.events_total);
  if (shards == 1) {
    // The whole run executed on this thread.
    const auto& pool = net::PacketPool::local();
    c["sim.inline_task_heap_spills"] =
        double(sim::InlineTask::heap_fallbacks());
    c["net.pool.fresh_allocs"] = double(pool.fresh_allocs());
    c["net.pool.reuse_ratio"] = pool.reuse_ratio();
    c["net.frames_cloned_per_pkt"] =
        ratio(double(net::PacketPool::frames_cloned()), out.sim_pkts);
  }
  std::uint64_t max_shard = 0, idle = 0;
  for (const auto e : r.per_shard_events) max_shard = std::max(max_shard, e);
  for (const auto w : r.idle_windows) idle += w;
  c["sim.conductor.epochs"] = double(r.epochs);
  c["sim.conductor.fused_epoch_frac"] =
      ratio(double(r.fused_epochs), double(r.epochs));
  c["sim.conductor.cross_posts"] = double(r.cross_posts);
  c["sim.conductor.events_per_epoch"] = ratio(events, double(r.epochs));
  c["sim.conductor.balance_ceiling"] = ratio(events, double(max_shard));
  c["sim.conductor.idle_window_frac"] =
      ratio(double(idle), double(r.epochs) * shards);

  {
    // The world is gone by now; what is left is the result itself.
    Span span(tracer, "scenario.teardown");
    const auto t0 = Clock::now();
    r = {};
    out.teardown_s = seconds_since(t0);
  }
  return out;
}

// ---- output -------------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string sample_json(const Sample& s) {
  std::string out = "{\"build_s\":" + num(s.build_s) +
                    ",\"setup_s\":" + num(s.setup_s) +
                    ",\"wall_s\":" + num(s.wall_s) +
                    ",\"teardown_s\":" + num(s.teardown_s) +
                    ",\"sim_ns\":" + num(s.sim_ns) +
                    ",\"sim_pkts\":" + num(s.sim_pkts) +
                    ",\"attempted\":" + num(s.attempted) +
                    ",\"failed\":" + num(s.failed) +
                    ",\"barrier_wait_ns\":" + num(s.barrier_wait_ns) +
                    ",\"workers\":" + std::to_string(s.workers) +
                    ",\"counts\":{";
  for (const auto& [k, v] : s.counts) {
    if (out.back() != '{') out += ',';
    out += json_string(k);
    out += ':';
    out += num(v);
  }
  return out + "}}";
}

std::string list_json(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const auto& item : items) {
    if (out.size() > 1) out += ',';
    out += item;
  }
  return out + "]";
}

/// Peak resident set of this program in MB.  VmHWM belongs to the address
/// space exec created; getrusage's ru_maxrss also keeps the pages a child
/// forked from a large parent held before exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Options {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 42;
  double seconds = 10;
  int iterations = 0;  ///< > 0: exactly this many, ignoring --seconds
  int window_div = 1;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      for (const auto& w : kWorkloads) {
        if (value == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) {
        usage_error("unknown workload '" + std::string(value) + "'");
      }
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value, 0, UINT64_MAX);
    } else if (flag == "--seconds") {
      o.seconds = double(parse_uint(flag, value, 1, 3600));
    } else if (flag == "--iterations") {
      o.iterations = int(parse_uint(flag, value, 1, 1000));
    } else if (flag == "--window-div") {
      o.window_div = int(parse_uint(flag, value, 1, 1000));
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage_error("unknown flag '" + std::string(flag) + "'");
    }
  }
  if (o.workload == nullptr) usage_error("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Kind kind = opt.workload->kind;
  const unsigned cpus = nproc();
  const unsigned s4_workers = std::min(4u, cpus);

  auto iteration = [&](Tracer* tracer) {
    switch (kind) {
      case Kind::kMacroS1:
        return macro_iteration(1, 1, opt.seed, opt.window_div, tracer);
      case Kind::kMacroS4:
        return macro_iteration(4, s4_workers, opt.seed, opt.window_div,
                               tracer);
      default:
        return netperf_iteration(kind, opt.seed, opt.window_div, tracer);
    }
  };

  std::vector<double> setups;
  if (kind != Kind::kMacroS1 && kind != Kind::kMacroS4) {
    for (int i = 0; i < kExtraSetups; ++i) {
      setups.push_back(setup_only(kind, opt.seed));
    }
  }

  // A loop of iterations started at `t0` is done after --iterations, or
  // once `seconds` have passed and kMinIterations ran.
  auto done = [&opt](std::size_t n, Clock::time_point t0, double seconds) {
    return opt.iterations > 0
               ? n >= std::size_t(opt.iterations)
               : n >= std::size_t(kMinIterations) &&
                     seconds_since(t0) >= seconds;
  };

  std::vector<std::string> samples;
  const auto loop0 = Clock::now();
  do {
    const Sample s = iteration(nullptr);
    setups.push_back(s.setup_s);
    samples.push_back(sample_json(s));
  } while (!done(samples.size(), loop0, opt.seconds));

  // Before the traced run, which builds more worlds than a timed one.
  const double rss_mb = peak_rss_mb();

  std::vector<std::string> traced;
  std::vector<std::string> untraced;  // each ran right before traced[i]
  std::vector<std::string> reference;
  if (!opt.trace_out.empty()) {
    Tracer tracer;
    const auto trace0 = Clock::now();
    // Pairs of adjacent untraced and traced iterations see the same host
    // load, so their ratio measures tracing and not the host's drift.
    do {
      untraced.push_back(sample_json(iteration(nullptr)));
      traced.push_back(sample_json(iteration(&tracer)));
    } while (!done(traced.size(), trace0, opt.seconds / 4));
    if (kind == Kind::kMacroS4) {
      // The shards=1 run of the same world: speed-up reference and the
      // equivalence check for seeds without a golden.
      for (int i = 0; i < kMinIterations; ++i) {
        reference.push_back(sample_json(
            macro_iteration(1, 1, opt.seed, opt.window_div, &tracer)));
      }
    }
    tracer.write(opt.trace_out);
  }

  std::vector<std::string> setup_nums;
  for (const double v : setups) setup_nums.push_back(num(v));
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"window_div\":%d,"
      "\"nproc\":%u,\"hardware_concurrency\":%u,"
      "\"compiler\":%s,\"build_type\":%s,"
      "\"peak_rss_mb\":%s,\"setup_s\":%s,\"iterations\":%s,"
      "\"traced\":%s,\"untraced_pairs\":%s,\"s1_reference\":%s}\n",
      json_string(opt.workload->name).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.window_div, cpus,
      std::thread::hardware_concurrency(),
      json_string(NESTV_BENCH_COMPILER).c_str(),
      json_string(NESTV_BENCH_BUILD_TYPE).c_str(), num(rss_mb).c_str(),
      list_json(setup_nums).c_str(), list_json(samples).c_str(),
      list_json(traced).c_str(), list_json(untraced).c_str(),
      list_json(reference).c_str());
  return 0;
}

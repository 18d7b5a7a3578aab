#include "scenario/macro_scale.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "orch/scheduler.hpp"
#include "scenario/deploy.hpp"
#include "trace/google_trace.hpp"
#include "vmm/fabric.hpp"

namespace nestv::scenario {
namespace {

/// Sub-stream ids for Rng::of_stream / Rng::mix seed derivation.
constexpr std::uint64_t kTraceStream = 0x6d736361ULL;     // "msca"
constexpr std::uint64_t kFlowStreamBase = 0x10000ULL;     // + flow ordinal
constexpr std::uint64_t kStreamStreamBase = 0x3000ULL;    // + stream ordinal

/// Ephemeral client-port pool per machine: reuse distance (50k flows per
/// machine) is orders of magnitude beyond any flow lifetime, so a recycled
/// port never collides with a live binding.
constexpr std::uint32_t kClientPortBase = 10000;
constexpr std::uint32_t kClientPortSpan = 50000;

/// Long-lived server pods per machine, alternating NAT / BrFusion, so both
/// modes exist everywhere.
constexpr int kServerPodsPerMachine = 2;
/// Cross-VM Hostlo pairs per machine.
constexpr int kHostloPairsPerMachine = 1;
/// Mean request/response transactions per churn flow (jittered per flow).
constexpr int kFlowTransactions = 3;
constexpr std::uint32_t kRrBytes = 256;
constexpr std::uint32_t kStreamMsgBytes = 4096;

/// Per-machine accumulators.  Only ever mutated from the owning machine's
/// engine (client-side callbacks run there), merged in machine order after
/// the run — the same "local state, ordered merge" determinism recipe as
/// the conductor's per-shard event counters.
struct MachineStats {
  double flows_completed = 0;
  double transactions = 0;
  double latency_ns_sum = 0;
  double digest = 0;
  std::vector<sim::TimePoint> arrivals;
  std::vector<sim::TimePoint> completions;
  std::uint64_t gc_reaped = 0;
  std::uint64_t peak_entries = 0;
  std::uint64_t bytes_at_peak = 0;
  std::uint64_t ct_bytes_at_peak = 0;
  std::uint64_t fc_bytes_at_peak = 0;
  std::uint64_t fc_entries_at_peak = 0;
  std::uint64_t oc_peak_entries = 0;
  std::uint64_t oc_bytes_at_peak = 0;
};

/// One ephemeral churn flow: a short UDP RR exchange from a fresh client
/// port.  Arrival inserts fresh conntrack/flowcache state on every stack
/// along the path; departure unbinds and leaves the entries to the GC.
struct ChurnFlow {
  net::StackBackend* cli_stack = nullptr;
  sim::SerialResource* cli_app = nullptr;
  sim::Engine* engine = nullptr;
  net::Ipv4Address cli_ip, srv_ip;
  std::uint16_t cli_port = 0, srv_port = 0;
  std::uint32_t bytes = 0;
  int remaining = 1;
  sim::Rng rng{1};
  sim::TimePoint issued_at = 0;
  std::uint64_t tx = 0;
  std::uint64_t lat_ns = 0;
  int ordinal = 0;
  MachineStats* acc = nullptr;
  bool done = false;

  void issue() {
    issued_at = engine->now();
    cli_stack->udp_send(cli_ip, cli_port, srv_ip, srv_port, bytes, cli_app);
  }
};

void start_churn_flow(const std::shared_ptr<ChurnFlow>& d) {
  d->acc->arrivals.push_back(d->engine->now());
  d->cli_stack->udp_bind(
      d->cli_port, d->cli_app, [d](net::StackBackend::UdpDelivery&) {
        if (d->done) return;  // straggler after departure
        d->lat_ns += d->engine->now() - d->issued_at;
        ++d->tx;
        if (--d->remaining <= 0) {
          d->done = true;
          d->acc->flows_completed += 1;
          d->acc->transactions += double(d->tx);
          d->acc->latency_ns_sum += double(d->lat_ns);
          d->acc->digest += double(d->ordinal + 1) *
                            (double(d->tx) * 1e-3 + double(d->lat_ns) * 1e-9);
          d->acc->completions.push_back(d->engine->now());
          // Unbind in a fresh event: tearing the binding down from inside
          // its own handler would destroy the closure mid-execution.
          net::StackBackend* stack = d->cli_stack;
          const std::uint16_t port = d->cli_port;
          d->engine->schedule_in(1, [stack, port] {
            stack->udp_unbind(port);
          });
          return;
        }
        const sim::Duration think = d->rng.uniform_int(500, 4500);
        d->engine->schedule_in(think, [d] { d->issue(); });
      });
  d->issue();
}

/// A long-lived pod of the run (a NAT or BrFusion server pod, a Hostlo
/// pair or an overlay pair) and the machine hosting it.
struct HostedPod {
  int machine = 0;
  std::unique_ptr<PodDeployment> pod;
  Endpoint server, client;  ///< filled once deployed (client: pairs only)
  /// TCP stream byte sink, made when the first stream targets the pod;
  /// the streams targeting it share it, counted on the pod's own engine.
  std::shared_ptr<std::uint64_t> stream_delivered;
};

}  // namespace

MacroScaleResult run_macro_scale(const MacroScaleConfig& config) {
  if (config.machines < 2) {
    throw std::invalid_argument("macro scale needs >= 2 machines");
  }
  if (config.shards < 1 || config.shards > config.machines) {
    throw std::invalid_argument("shards must be in [1, machines]");
  }

  MacroScaleResult out;
  out.shards = config.shards;

  // Lookahead: nothing crosses machines faster than the shortest fabric
  // link (machine->ToR or ToR->spine, whichever is shorter).
  sim::ShardedConductor conductor(
      config.shards, vmm::HierarchicalFabric::min_link_latency(config.costs),
      config.max_workers);
  out.worker_threads = conductor.worker_threads();

  // ---- two-tier fabric; machines, pinned to shards, under it ----------
  // The fabric is declared first so it outlives the machines: their host
  // stacks point into its ext0 ports and its peer-route set.
  vmm::FabricConfig fc;
  fc.machines_per_rack = config.machines_per_rack;
  fc.spines = config.spines;
  vmm::HierarchicalFabric fabric(conductor.shard(0), config.costs, fc,
                                 &conductor);
  const int m_count = config.machines;
  const auto machines = static_cast<std::size_t>(m_count);
  // 10.200.x.y/24 VM subnets: distinct per machine, scaling past the
  // 150-odd machines a single /16 third octet window allows.
  const auto beds = make_machines(
      conductor, m_count, config.seed, config.costs, [](int i) {
        return net::Ipv4Cidr(net::Ipv4Address(10, std::uint8_t(200 - i / 250),
                                              std::uint8_t(i % 250), 0),
                             24);
      });
  for (auto& bed : beds) fabric.attach(bed->machine());

  // ---- population sizing: the Google-like trace ------------------------
  trace::TraceConfig tcfg;
  tcfg.seed = sim::Rng::mix(config.seed, kTraceStream);
  tcfg.users = config.trace_users;
  const auto users = trace::generate_google_like_trace(tcfg);
  orch::AwsM5Catalog catalog;
  orch::KubernetesScheduler scheduler(catalog);
  std::vector<int> vm_machine;  // placed VM ordinal -> physical machine
  for (const auto& user : users) {
    const orch::Placement placement = scheduler.schedule(user);
    out.pods_scheduled += double(user.pods.size());
    out.vms_bought += double(placement.vms.size());
    out.placement_cost_per_hour += placement.cost_per_hour();
    for (std::size_t v = 0; v < placement.vms.size(); ++v) {
      vm_machine.push_back(int(vm_machine.size()) % m_count);
    }
  }

  // ---- long-lived pods: server pods (alternating NAT / BrFusion), then
  // Hostlo pairs, then overlay pairs, each machine-major ----------------
  using Pods = std::vector<HostedPod>;
  using PerMachine = std::vector<std::vector<int>>;  // machine -> indices
  Pods servers, pairs, ovpairs;
  PerMachine nat_of(machines), br_of(machines), pairs_of(machines),
      ov_of(machines);
  auto deploy = [&beds](Pods& pods, PerMachine& of, int i, PodSpec spec) {
    of[std::size_t(i)].push_back(int(pods.size()));
    pods.emplace_back().machine = i;
    pods.back().pod = deploy_pod(*beds[std::size_t(i)], std::move(spec));
  };
  auto pair_spec = [](PodMode mode, const std::string& name, std::size_t n,
                      int port_base) {
    PodSpec spec;
    spec.mode = mode;
    spec.port = std::uint16_t(port_base + int(n));
    spec.cli_vm = name + "-a";
    spec.srv_vm = name + "-b";
    spec.srv_pod = name + "-pod";
    spec.cli = name + "-cli";
    spec.srv = name + "-srv";
    return spec;
  };
  for (int i = 0; i < m_count; ++i) {
    for (int j = 0; j < kServerPodsPerMachine; ++j) {
      const bool nat = j % 2 == 0;
      PodSpec spec;
      spec.mode = nat ? PodMode::kNat : PodMode::kBrFusion;
      spec.port = std::uint16_t(5000 + servers.size());
      spec.srv_vm = spec.srv =
          "srv" + std::to_string(i) + "-" + std::to_string(j);
      spec.srv_pod = spec.srv + "-pod";
      deploy(servers, nat ? nat_of : br_of, i, std::move(spec));
    }
  }
  for (int i = 0; i < m_count; ++i) {
    for (int h = 0; h < kHostloPairsPerMachine; ++h) {
      deploy(pairs, pairs_of, i,
             pair_spec(PodMode::kHostlo,
                       "hl" + std::to_string(i) + "-" + std::to_string(h),
                       pairs.size(), 6000));
    }
  }
  for (int i = 0; i < m_count; ++i) {
    for (int v = 0; v < config.overlay_pairs_per_machine; ++v) {
      // One isolated overlay per pair (distinct VNIs); the shared 10.99/24
      // inner subnet never reaches the underlay, so pairs cannot collide.
      PodSpec spec = pair_spec(
          PodMode::kOverlay, "ov" + std::to_string(i) + "-" + std::to_string(v),
          ovpairs.size(), 7000);
      spec.vni = std::uint32_t(100 + ovpairs.size());
      deploy(ovpairs, ov_of, i, std::move(spec));
    }
  }

  // ---- deployment: the conductor (and only the conductor) moves time --
  const bool deployed = run_until_deployed(
      conductor,
      [&servers, &pairs, &ovpairs] {
        for (const Pods* pods : {&servers, &pairs, &ovpairs}) {
          for (const HostedPod& p : *pods) {
            if (!p.pod->ready()) return false;
          }
        }
        return true;
      },
      sim::seconds(120));
  if (!deployed) throw std::runtime_error("macro scale: deployment timed out");

  // ---- post-deploy wiring ----------------------------------------------
  // The churn path exercises the flowcache everywhere: host forwarding
  // stacks, the NAT guests doing DNAT, the overlay VMs and the pod stacks.
  // Every pod serves a persistent UDP echo (one binding for the whole run;
  // churn clients come and go against it), and the per-machine GC and
  // occupancy sampling track the same stacks.
  std::vector<std::vector<net::StackBackend*>> tracked(machines);
  for (int i = 0; i < m_count; ++i) {
    net::StackBackend& host = beds[std::size_t(i)]->machine().stack();
    host.set_flowcache(true);
    tracked[std::size_t(i)].push_back(&host);
  }
  std::vector<std::vector<const OverlayNetwork*>> overlays(machines);
  for (Pods* pods : {&servers, &pairs, &ovpairs}) {
    for (HostedPod& p : *pods) {
      PodDeployment& d = *p.pod;
      std::vector<net::StackBackend*> stacks;
      if (d.spec.mode != PodMode::kHostlo) {
        if (d.is_pair()) stacks.push_back(&d.cli_vm->stack());
        stacks.push_back(&d.srv_vm->stack());
      }
      if (d.is_pair()) stacks.push_back(d.cli_frag->stack.get());
      stacks.push_back(d.srv_frag->stack.get());
      for (net::StackBackend* st : stacks) {
        st->set_flowcache(true);
        tracked[std::size_t(p.machine)].push_back(st);
      }
      p.server = d.server();
      if (d.is_pair()) p.client = d.client();
      bind_udp_echo(p.server, d.spec.port);
      if (d.overlay != nullptr) {
        d.overlay->set_oncache_enabled(true);
        overlays[std::size_t(p.machine)].push_back(d.overlay.get());
      }
    }
  }

  // One shared client app core per machine: ephemeral flows are cheap
  // clients, not one pinned process each (10^6 SerialResources would be
  // absurd); sharing one core serializes them like one busy client box.
  std::vector<sim::SerialResource*> cli_core(machines);
  for (int i = 0; i < m_count; ++i) {
    cli_core[std::size_t(i)] =
        &beds[std::size_t(i)]->machine().make_app_core("churn-cli");
  }

  std::vector<MachineStats> stats(machines);
  const sim::TimePoint start_base = conductor.now() + sim::milliseconds(1);
  const sim::TimePoint arrivals_end = start_base + config.arrival_window;
  const sim::TimePoint traffic_end = arrivals_end + config.drain;

  std::vector<std::shared_ptr<std::function<void()>>> ticks;
  for (int i = 0; i < m_count; ++i) {
    sim::Engine* engp = &beds[std::size_t(i)]->engine();
    MachineStats* acc = &stats[std::size_t(i)];
    std::vector<net::StackBackend*>* stacks = &tracked[std::size_t(i)];
    const std::vector<const OverlayNetwork*>* nets =
        &overlays[std::size_t(i)];
    auto tick = std::make_shared<std::function<void()>>();
    ticks.push_back(tick);
    const sim::Duration idle = config.conntrack_idle;
    const sim::Duration interval = config.gc_interval;
    *tick = [engp, acc, stacks, nets, idle, interval, traffic_end, tick] {
      std::uint64_t entries = 0;
      std::uint64_t ct_bytes = 0;
      std::uint64_t fc_bytes = 0;
      std::uint64_t fc_entries = 0;
      for (net::StackBackend* s : *stacks) {
        if (s->has_netfilter()) {
          acc->gc_reaped += s->conntrack_gc(idle);
          entries += s->netfilter().conntrack_size();
          ct_bytes += s->netfilter().conntrack_state_bytes();
        }
        if (s->has_flowcache() && s->flowcache_enabled()) {
          fc_bytes += s->flow_cache().state_bytes();
          fc_entries += s->flow_cache().size();
        }
      }
      if (entries > acc->peak_entries) {
        acc->peak_entries = entries;
        acc->bytes_at_peak = ct_bytes + fc_bytes;
        acc->ct_bytes_at_peak = ct_bytes;
        acc->fc_bytes_at_peak = fc_bytes;
        acc->fc_entries_at_peak = fc_entries;
      }
      // The encap/decap caches peak on their own clock (they only warm
      // once overlay flows run), so they are tracked against their own
      // occupancy peak rather than the conntrack one.
      std::uint64_t oc_entries = 0;
      std::uint64_t oc_bytes = 0;
      for (const OverlayNetwork* n : *nets) {
        const auto t = n->oncache_totals();
        oc_entries += t.entries;
        oc_bytes += t.state_bytes;
      }
      if (oc_entries > acc->oc_peak_entries) {
        acc->oc_peak_entries = oc_entries;
        acc->oc_bytes_at_peak = oc_bytes;
      }
      if (engp->now() + interval <= traffic_end) {
        engp->schedule_in(interval, [tick] { (*tick)(); });
      }
    };
    // Staggered per machine: purely local work, but no reason to pile
    // every machine's GC onto the same nanosecond.
    engp->schedule_at(start_base + config.gc_interval +
                          std::uint64_t(i) * 1009,
                      [tick] { (*tick)(); });
  }

  // ---- open-loop churn arrivals ----------------------------------------
  // Arrival instants are a pure function of the flow ordinal (never of
  // completions): flow k lands at start + k*interarrival + jitter(k).
  const std::uint64_t interarrival =
      config.flows > 0
          ? std::max<std::uint64_t>(
                1, std::uint64_t(config.arrival_window) /
                       std::uint64_t(config.flows))
          : 1;
  auto arrival_time = [&config, start_base,
                       interarrival](int k) -> sim::TimePoint {
    sim::Rng rng = sim::Rng::of_stream(config.seed,
                                       kFlowStreamBase + std::uint64_t(k));
    const std::uint64_t jitter =
        rng.uniform_int(0, std::max<std::uint64_t>(1, interarrival / 2));
    return start_base + std::uint64_t(k) * interarrival + jitter;
  };

  auto launch_flow = [&](int k) {
    const int cm = k % m_count;
    sim::Rng rng = sim::Rng::of_stream(config.seed,
                                       kFlowStreamBase + std::uint64_t(k));
    (void)rng.uniform_int(0, std::max<std::uint64_t>(1, interarrival / 2));

    // The overlay mode joins the rotation only when the machines host
    // overlay pairs.
    const bool overlay_on = config.overlay_pairs_per_machine > 0;
    const int mode = k % (overlay_on ? 4 : 3);

    auto d = std::make_shared<ChurnFlow>();
    d->ordinal = k;
    d->acc = &stats[std::size_t(cm)];
    d->bytes = kRrBytes + 16 * std::uint32_t(k % 7);
    d->remaining =
        1 + int(rng.uniform_int(0, std::uint64_t(2 * (kFlowTransactions - 1))));
    d->rng = rng;

    const HostedPod* p = nullptr;
    if (mode >= 2) {
      // A pair on the client machine: its client container dials.
      const auto& list = (mode == 3 ? ov_of : pairs_of)[std::size_t(cm)];
      const std::size_t pick = std::size_t(mode == 3 ? k / 4 : k / 3);
      p = &(mode == 3 ? ovpairs : pairs)[std::size_t(
          list[pick % list.size()])];
      d->cli_stack = p->client.stack;
      d->cli_app = p->client.app;
      d->cli_ip = p->client.local_ip;
    } else {
      int sm = vm_machine.empty()
                   ? (cm + 1 + k % (m_count - 1)) % m_count
                   : vm_machine[std::size_t(k) % vm_machine.size()];
      if (sm == cm) sm = (sm + 1) % m_count;
      const auto& slist =
          (mode == 0 ? nat_of : br_of)[std::size_t(sm)];
      p = &servers[std::size_t(slist[std::size_t(k / 3) % slist.size()])];
      d->cli_stack = &beds[std::size_t(cm)]->machine().stack();
      d->cli_app = cli_core[std::size_t(cm)];
      d->cli_ip = beds[std::size_t(cm)]->machine().bridge_ip();
    }
    d->srv_ip = p->server.service_ip;
    d->srv_port = p->pod->spec.port;
    d->engine = &beds[std::size_t(cm)]->engine();
    d->cli_port = std::uint16_t(
        kClientPortBase + std::uint32_t(k / m_count) % kClientPortSpan);
    start_churn_flow(d);
  };

  // One self-chaining arrival pump per client machine (flow k's arrival
  // schedules flow k+machines'): O(live flows) memory, never O(flows)
  // events queued at once.
  std::vector<std::shared_ptr<std::function<void(int)>>> pumps;
  for (int cm = 0; cm < m_count && cm < config.flows; ++cm) {
    auto pump = std::make_shared<std::function<void(int)>>();
    pumps.push_back(pump);
    sim::Engine* engp = &beds[std::size_t(cm)]->engine();
    *pump = [&, pump, engp](int k) {
      const int next = k + m_count;
      if (next < config.flows) {
        engp->schedule_at(arrival_time(next),
                          [pump, next] { (*pump)(next); });
      }
      launch_flow(k);
    };
    engp->schedule_at(arrival_time(cm), [pump, cm] { (*pump)(cm); });
  }

  // ---- long-lived TCP streams through the NAT path ---------------------
  std::vector<int> stream_target;
  for (int k = 0; k < config.tcp_streams; ++k) {
    const int cm = k % m_count;
    int sm = (cm + 1 + k) % m_count;
    if (sm == cm) sm = (sm + 1) % m_count;
    const auto& slist = nat_of[std::size_t(sm)];
    const int target = slist[std::size_t(k) % slist.size()];
    HostedPod& s = servers[std::size_t(target)];
    if (s.stream_delivered == nullptr) {
      auto delivered = std::make_shared<std::uint64_t>(0);
      s.stream_delivered = delivered;
      s.server.stack->tcp_listen(s.pod->spec.port, s.server.app,
                                 [delivered](net::TcpSocket sock) {
                                   sock.set_on_receive(
                                       [delivered](std::uint32_t n) {
                                         *delivered += n;
                                       });
                                 });
    }
    sim::Rng srng = sim::Rng::of_stream(config.seed,
                                        kStreamStreamBase + std::uint64_t(k));
    vmm::PhysicalMachine& cli = beds[std::size_t(cm)]->machine();
    net::StackBackend* stack = &cli.stack();
    sim::SerialResource* app =
        &cli.make_app_core("stream" + std::to_string(k) + "-cli");
    sim::Engine* engp = &beds[std::size_t(cm)]->engine();
    const net::Ipv4Address cli_ip = cli.bridge_ip();
    const net::Ipv4Address srv_ip = s.server.service_ip;
    const std::uint16_t port = s.pod->spec.port;
    const std::uint32_t msg_bytes = kStreamMsgBytes + 64 * std::uint32_t(k % 5);
    engp->schedule_at(start_base + srng.uniform_int(0, 100000),
                      [stack, app, engp, cli_ip, srv_ip, port, msg_bytes,
                       arrivals_end] {
      start_bulk_send(stack->tcp_connect(cli_ip, srv_ip, port, app), *engp,
                      msg_bytes, arrivals_end);
    });
    stream_target.push_back(target);
  }

  // ---- run --------------------------------------------------------------
  const auto wall0 = std::chrono::steady_clock::now();
  conductor.run_until(traffic_end);
  const auto wall1 = std::chrono::steady_clock::now();
  out.wall_seconds = std::chrono::duration<double>(wall1 - wall0).count();
  // The self-chaining closures hold shared_ptrs to themselves; break each
  // cycle so the world's teardown frees them.
  for (auto& tick : ticks) *tick = nullptr;
  for (auto& pump : pumps) *pump = nullptr;

  // ---- aggregate, in machine / server order ----------------------------
  // Peak concurrency from the sorted arrival and completion instants; the
  // per-machine vectors are still alive here, so reserve exactly.
  std::size_t n_arrivals = 0;
  std::size_t n_completions = 0;
  for (const MachineStats& a : stats) {
    n_arrivals += a.arrivals.size();
    n_completions += a.completions.size();
  }
  std::vector<sim::TimePoint> arrivals;
  std::vector<sim::TimePoint> completions;
  arrivals.reserve(n_arrivals);
  completions.reserve(n_completions);
  for (int i = 0; i < m_count; ++i) {
    const MachineStats& a = stats[std::size_t(i)];
    out.flows_completed += a.flows_completed;
    out.rr_transactions += a.transactions;
    out.rr_latency_ns_sum += a.latency_ns_sum;
    out.flow_digest += a.digest;
    out.conntrack_gc_reaped += a.gc_reaped;
    out.conntrack_peak_entries += a.peak_entries;
    out.state_bytes_at_peak += a.bytes_at_peak;
    out.conntrack_bytes_at_peak += a.ct_bytes_at_peak;
    out.flowcache_bytes_at_peak += a.fc_bytes_at_peak;
    out.flowcache_entries_at_peak += a.fc_entries_at_peak;
    out.oncache_entries_at_peak += a.oc_peak_entries;
    out.oncache_bytes_at_peak += a.oc_bytes_at_peak;
    arrivals.insert(arrivals.end(), a.arrivals.begin(), a.arrivals.end());
    completions.insert(completions.end(), a.completions.begin(),
                       a.completions.end());
  }
  std::sort(arrivals.begin(), arrivals.end());
  std::sort(completions.begin(), completions.end());
  // Two-pointer walk: a flow completing at the instant another arrives
  // still counts as live for that arrival (arrivals win ties).
  std::uint64_t live = 0;
  std::size_t done = 0;
  for (const sim::TimePoint t : arrivals) {
    while (done < completions.size() && completions[done] < t) {
      --live;
      ++done;
    }
    ++live;
    out.peak_concurrent_flows = std::max(out.peak_concurrent_flows, live);
  }
  if (out.conntrack_peak_entries > 0) {
    out.state_bytes_per_flow = double(out.state_bytes_at_peak) /
                               double(out.conntrack_peak_entries);
  }
  int k = 0;
  for (const int target : stream_target) {
    // Per-pod sinks may be shared; count each pod once, weight by the
    // first stream ordinal that claimed it (stable across runs).
    HostedPod& s = servers[std::size_t(target)];
    const double bytes = double(*s.stream_delivered);
    if (bytes > 0) {
      out.stream_bytes_delivered += bytes;
      out.flow_digest += double(config.flows + k + 1) * bytes * 1e-6;
      *s.stream_delivered = 0;  // so a second stream on this pod adds 0
    }
    ++k;
  }
  for (const HostedPod& p : ovpairs) {
    const auto t = p.pod->overlay->oncache_totals();
    out.oncache_hits += t.egress_hits + t.ingress_hits;
  }
  for (const auto& bed : beds) {
    out.host_route_entries += bed->machine().stack().routes().size();
  }
  out.events_total = conductor.total_events();
  out.per_shard_events = conductor.per_shard_events();
  for (int s = 0; s < conductor.shards(); ++s) {
    out.clamped_events += conductor.shard(s).clamped_events();
    out.clamped_keyed_events += conductor.shard(s).clamped_keyed_events();
  }
  const sim::ConductorStats cstats = conductor.stats();
  out.epochs = cstats.epochs;
  out.cross_posts = conductor.cross_posts();
  out.fused_epochs = cstats.fused_epochs;
  out.drained_posts = cstats.drained_posts;
  out.idle_windows = cstats.idle_windows;
  out.barrier_wait_ns = cstats.barrier_wait_ns;
  return out;
}

}  // namespace nestv::scenario

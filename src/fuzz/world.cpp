#include "fuzz/world.hpp"

#include <functional>
#include <memory>
#include <utility>

#include "net/packet_pool.hpp"
#include "scenario/deploy.hpp"
#include "sim/rng.hpp"
#include "sim/sharded_conductor.hpp"
#include "vmm/fabric.hpp"

namespace nestv::fuzz {
namespace {

/// Sub-stream id base (Rng::of_stream) of the per-flow think-time RNGs.
constexpr std::uint64_t kFlowStreamBase = 0x3000ULL;  // + flow ordinal

/// Count-bounded UDP request/response loop (the wave unit of RR flows).
/// `remaining` bounds the wave: the driver issues exactly `remaining`
/// requests and the engine goes idle when the last reply (or drop) lands.
/// The bindings stay for the next wave (the macro scenario's ChurnFlow, by
/// contrast, runs once and departs).
struct RrFlow {
  scenario::Endpoint cli, srv;
  sim::Engine* cli_engine = nullptr;
  std::uint16_t cli_port = 0, srv_port = 0;
  std::uint32_t bytes = 0;
  std::uint64_t think_quantum = 1;
  std::uint32_t think_slots = 0;
  sim::Rng rng{1};
  sim::TimePoint issued_at = 0;
  std::uint32_t remaining = 0;
  std::uint64_t transactions = 0;
  std::uint64_t latency_ns_sum = 0;

  void issue() {
    issued_at = cli_engine->now();
    cli.stack->udp_send(cli.local_ip, cli_port, srv.service_ip, srv_port,
                        bytes, cli.app);
  }
};

void bind_rr(const std::shared_ptr<RrFlow>& d) {
  scenario::bind_udp_echo(d->srv, d->srv_port);
  d->cli.stack->udp_bind(
      d->cli_port, d->cli.app, [d](net::StackBackend::UdpDelivery&) {
        d->latency_ns_sum += d->cli_engine->now() - d->issued_at;
        ++d->transactions;
        if (d->remaining == 0) return;
        --d->remaining;
        const sim::Duration think =
            sim::Duration(d->think_quantum *
                          d->rng.uniform_int(0, d->think_slots));
        d->cli_engine->schedule_in(think, [d] { d->issue(); });
      });
}

/// Count-bounded TCP sender: each wave queues `remaining` messages; the
/// connection stays open across waves (closing is not needed for
/// quiescence — with everything ACKed the stack holds no timers).
struct StreamFlow {
  scenario::Endpoint cli;
  sim::Engine* cli_engine = nullptr;
  net::Ipv4Address srv_service_ip;
  std::uint16_t srv_port = 0;
  std::uint32_t msg_bytes = 0;
  std::shared_ptr<net::TcpSocket> sock;
  std::shared_ptr<std::function<void()>> chain;
  std::shared_ptr<std::uint64_t> delivered =
      std::make_shared<std::uint64_t>(0);
  std::uint32_t remaining = 0;

  void pump_wave() {
    if (sock == nullptr) {
      sock = std::make_shared<net::TcpSocket>(cli.stack->tcp_connect(
          cli.local_ip, srv_service_ip, srv_port, cli.app));
      auto c = chain;
      sock->set_on_connected([c] { (*c)(); });
    } else {
      (*chain)();
    }
  }
};

scenario::PodMode pod_mode(FlowMode m) {
  switch (m) {
    case FlowMode::kNatStream: return scenario::PodMode::kNat;
    case FlowMode::kBrFusionRr: return scenario::PodMode::kBrFusion;
    case FlowMode::kHostloRr: return scenario::PodMode::kHostlo;
    case FlowMode::kOverlayRr: return scenario::PodMode::kOverlay;
  }
  return scenario::PodMode::kNat;
}

/// One instantiated flow: the plan's FlowPlan plus the live objects.
struct LiveFlow {
  const FlowPlan* plan = nullptr;
  int index = 0;
  scenario::Testbed* cli_bed = nullptr;
  std::unique_ptr<scenario::PodDeployment> pod;
  std::shared_ptr<RrFlow> rr;
  std::shared_ptr<StreamFlow> stream;
};

}  // namespace

WorldResult run_world(const FuzzPlan& plan, const RunShape& shape,
                      std::uint64_t flow_mask, std::uint64_t action_mask) {
  WorldResult out;
  const std::int64_t pool_before = net::PacketPool::live_nodes();
  {
    const sim::CostModel& costs = plan.costs;

    sim::ShardedConductor conductor(
        shape.shards, vmm::HierarchicalFabric::min_link_latency(costs),
        shape.workers);

    // ---- fabric + machines ----------------------------------------------
    // One rack under one spine, or the plan's racks under its spines
    // (multi-path: the oracles then also cover the ECMP tie-break).  The
    // fabric is declared first so it outlives the machines whose host
    // stacks point into its ports and its peer-route set.
    const int m_count = plan.machines;
    vmm::FabricConfig fc;
    fc.machines_per_rack =
        plan.machines_per_rack > 0 ? plan.machines_per_rack : m_count;
    fc.spines = plan.machines_per_rack > 0 ? plan.spines : 1;
    vmm::HierarchicalFabric fabric(conductor.shard(0), costs, fc,
                                   &conductor);
    const auto beds = scenario::make_machines(
        conductor, m_count, plan.seed, costs, [](int i) {
          return net::Ipv4Cidr(
              net::Ipv4Address(192, 168, std::uint8_t(100 + i), 0), 24);
        });
    for (auto& bed : beds) fabric.attach(bed->machine());

    // Every stack in construction order (digest + invariant iteration) and
    // the per-machine stack sets (conntrack GC targets).
    std::vector<std::pair<std::string, net::StackBackend*>> all_stacks;
    std::vector<std::vector<net::StackBackend*>> machine_stacks{
        std::size_t(m_count)};
    for (int i = 0; i < m_count; ++i) {
      net::StackBackend* hs = &beds[std::size_t(i)]->machine().stack();
      all_stacks.emplace_back("host" + std::to_string(i), hs);
      machine_stacks[std::size_t(i)].push_back(hs);
    }
    auto track_stack = [&](const std::string& name, int machine,
                           net::StackBackend* s) {
      all_stacks.emplace_back(name, s);
      machine_stacks[std::size_t(machine)].push_back(s);
    };

    // ---- flows -----------------------------------------------------------
    // Every flow deploys its pod up front; only then does the clock move.
    std::vector<LiveFlow> flows;
    flows.reserve(plan.flows.size());
    for (int k = 0; k < int(plan.flows.size()); ++k) {
      if ((flow_mask >> k & 1) == 0) continue;
      const FlowPlan& fp = plan.flows[std::size_t(k)];
      const std::string fname = "f" + std::to_string(k);
      const bool pair = fp.mode == FlowMode::kHostloRr ||
                        fp.mode == FlowMode::kOverlayRr;
      scenario::PodSpec spec;
      spec.mode = pod_mode(fp.mode);
      spec.port = fp.srv_port;
      spec.srv_vm = fname + (pair ? "-b" : "-srv");
      spec.srv_pod = fname + "-pod";
      spec.srv = fname + "-srv";
      if (pair) {
        spec.cli_vm = fname + "-a";
        spec.cli = fname + "-cli";
      }
      if (fp.mode == FlowMode::kOverlayRr) {
        spec.cli_pod = fname + "-poda";
        spec.srv_pod = fname + "-podb";
      }
      spec.stack_mode = shape.fastpath_pods ? net::StackMode::kFastPath
                                            : net::StackMode::kFull;
      LiveFlow f;
      f.plan = &fp;
      f.index = k;
      f.cli_bed = beds[std::size_t(fp.cli_machine)].get();
      f.pod = scenario::deploy_pod(*beds[std::size_t(fp.srv_machine)],
                                   std::move(spec));
      const scenario::PodDeployment& d = *f.pod;
      if (pair) {
        track_stack(fname + "-a-vm", fp.srv_machine, &d.cli_vm->stack());
        track_stack(fname + "-b-vm", fp.srv_machine, &d.srv_vm->stack());
        track_stack(fname + "-cli-pod", fp.srv_machine,
                    d.cli_frag->stack.get());
      } else {
        track_stack(fname + "-srv-vm", fp.srv_machine, &d.srv_vm->stack());
      }
      track_stack(fname + "-srv-pod", fp.srv_machine, d.srv_frag->stack.get());
      flows.push_back(std::move(f));
    }

    // ---- deployment ------------------------------------------------------
    const bool deployed = scenario::run_until_deployed(
        conductor,
        [&flows] {
          for (const LiveFlow& f : flows) {
            if (!f.pod->ready()) return false;
          }
          return true;
        },
        sim::seconds(30));
    if (!deployed) {
      out.invariant_failures.push_back("deployment timed out");
      return out;
    }

    // Every overlay programmed its VTEP tables as its members came up; the
    // oncache shape now flips the encap/decap fast path on.
    for (LiveFlow& f : flows) {
      if (shape.oncache && f.pod->overlay != nullptr) {
        f.pod->overlay->set_oncache_enabled(true);
      }
    }

    if (shape.flowcache) {
      for (auto& [name, s] : all_stacks) s->set_flowcache(true);
    }

    // ---- driver setup ----------------------------------------------------
    for (LiveFlow& f : flows) {
      const FlowPlan& fp = *f.plan;
      const std::string fname = "f" + std::to_string(f.index);
      sim::Rng flow_rng = sim::Rng::of_stream(
          plan.seed, kFlowStreamBase + std::uint64_t(f.index));
      // Pairs dial from their client container; the other flows from a
      // host process on the client machine.
      const scenario::Endpoint server = f.pod->server();
      const scenario::Endpoint client =
          f.pod->is_pair() ? f.pod->client()
                           : f.cli_bed->host_client(fname + "-cli");
      if (fp.mode == FlowMode::kNatStream) {
        auto d = std::make_shared<StreamFlow>();
        d->cli = client;
        d->cli_engine = &f.cli_bed->engine();
        d->srv_service_ip = server.service_ip;
        d->srv_port = fp.srv_port;
        d->msg_bytes = fp.msg_bytes;
        auto chain = std::make_shared<std::function<void()>>();
        d->chain = chain;
        StreamFlow* dp = d.get();
        *chain = [dp, chain] {
          if (dp->remaining == 0) return;
          --dp->remaining;
          dp->sock->send(dp->msg_bytes, [chain] { (*chain)(); });
        };
        auto delivered = d->delivered;
        server.stack->tcp_listen(
            fp.srv_port, server.app, [delivered](net::TcpSocket sock) {
              sock.set_on_receive(
                  [delivered](std::uint32_t n) { *delivered += n; });
            });
        f.stream = std::move(d);
      } else {
        auto d = std::make_shared<RrFlow>();
        d->cli = client;
        d->srv = server;
        d->cli_engine = &f.cli_bed->engine();
        d->cli_port = fp.cli_port;
        d->srv_port = fp.srv_port;
        d->bytes = fp.msg_bytes;
        d->think_quantum = fp.think_quantum;
        d->think_slots = fp.think_slots;
        d->rng = flow_rng;
        bind_rr(d);
        f.rr = std::move(d);
      }
    }

    // ---- waves -----------------------------------------------------------
    // Quiesce = two consecutive rounds with every shard idle: the second
    // round flushes any mail a shard posted during its final window, so
    // "idle" means queues AND mailboxes are empty.
    auto quiesce = [&conductor, &out](int wave) {
      const sim::TimePoint limit = conductor.now() + sim::seconds(5);
      int idle_rounds = 0;
      while (idle_rounds < 2) {
        conductor.run_until(conductor.now() + sim::milliseconds(1));
        bool idle = true;
        for (int s = 0; s < conductor.shards(); ++s) {
          idle = idle && conductor.shard(s).idle();
        }
        idle_rounds = idle ? idle_rounds + 1 : 0;
        if (conductor.now() >= limit) {
          out.invariant_failures.push_back(
              "wave " + std::to_string(wave) + " did not quiesce");
          return false;
        }
      }
      return true;
    };

    for (int w = 0; w < plan.waves; ++w) {
      const sim::TimePoint base = conductor.now() + sim::milliseconds(1);
      for (LiveFlow& f : flows) {
        const std::uint32_t work = f.plan->wave_work[std::size_t(w)];
        if (work == 0) continue;
        // Collision-prone flows share the exact start instant; the rest
        // spread out like the macro scenario's flows.
        sim::TimePoint start = base;
        if (!f.plan->collision_prone) {
          start += std::uint64_t(f.index) * sim::microseconds(200);
        }
        sim::Engine* eng = f.stream != nullptr ? f.stream->cli_engine
                                               : f.rr->cli_engine;
        if (f.stream != nullptr) {
          StreamFlow* d = f.stream.get();
          d->remaining = work;
          eng->schedule_at(start, [d] { d->pump_wave(); });
        } else {
          RrFlow* d = f.rr.get();
          d->remaining = work - 1;  // the kick-off request is one of them
          eng->schedule_at(start, [d] { d->issue(); });
        }
      }
      if (!quiesce(w)) return out;

      // ---- boundary actions ---------------------------------------------
      for (int a = 0; a < int(plan.actions.size()); ++a) {
        if ((action_mask >> a & 1) == 0) continue;
        const ActionPlan& act = plan.actions[std::size_t(a)];
        if (act.boundary != w) continue;
        if (act.flow >= 0 && (flow_mask >> act.flow & 1) == 0) continue;
        switch (act.kind) {
          case ActionKind::kAddDropRule: {
            const FlowPlan& fp = plan.flows[std::size_t(act.flow)];
            if (fp.mode == FlowMode::kOverlayRr) {
              // Drop VXLAN datagrams at the server VM's INPUT chain: the
              // overlay flow halts, and the rule edit must flush any
              // cached oncache ingress paths on that VM.
              net::Rule rule;
              rule.match.proto = net::L4Proto::kUdp;
              rule.match.dport = 4789;
              rule.target = net::TargetKind::kDrop;
              rule.comment = "fuzz-ovdrop-" + std::to_string(act.flow);
              for (LiveFlow& f : flows) {
                if (f.index != act.flow) continue;
                f.pod->srv_vm->stack().netfilter().add_filter_rule(
                    net::Hook::kInput, rule);
              }
              break;
            }
            net::Rule rule;
            rule.match.proto = net::L4Proto::kUdp;
            rule.match.dport = fp.srv_port;
            rule.target = net::TargetKind::kDrop;
            rule.comment = "fuzz-drop-" + std::to_string(act.flow);
            beds[std::size_t(fp.srv_machine)]
                ->machine()
                .stack()
                .netfilter()
                .add_filter_rule(net::Hook::kForward, rule);
            break;
          }
          case ActionKind::kAddNoiseRules: {
            auto& nf =
                beds[std::size_t(act.machine)]->machine().stack().netfilter();
            for (int i = 0; i < act.count; ++i) {
              net::Rule rule;
              rule.match.dst = net::Ipv4Cidr(
                  net::Ipv4Address(203, 0, 113, std::uint8_t(i)), 32);
              rule.target = net::TargetKind::kAccept;
              rule.comment = "fuzz-noise";
              nf.add_filter_rule(net::Hook::kForward, rule);
            }
            break;
          }
          case ActionKind::kRemoveNoiseRules:
            beds[std::size_t(act.machine)]
                ->machine()
                .stack()
                .netfilter()
                .remove_filter_rules(net::Hook::kForward, "fuzz-noise");
            break;
          case ActionKind::kFdbFlush:
            // The fabric has no FDB to flush: FabricSwitch forwards on
            // static MAC bindings (no learning).
            beds[std::size_t(act.machine)]->machine().bridge().fdb().flush();
            break;
          case ActionKind::kConntrackGc:
            for (net::StackBackend* s :
                 machine_stacks[std::size_t(act.machine)]) {
              s->conntrack_gc(0);
            }
            break;
          case ActionKind::kNicUnplug: {
            for (LiveFlow& f : flows) {
              if (f.index != act.flow) continue;
              net::StackBackend& ps = *f.pod->srv_frag->stack;
              ps.detach_interface(ps.ifindex_of("eth0"));
            }
            break;
          }
        }
      }
    }

    // ---- invariants ------------------------------------------------------
    for (int s = 0; s < conductor.shards(); ++s) {
      if (!conductor.shard(s).idle()) {
        out.invariant_failures.push_back(
            "shard " + std::to_string(s) + " not idle after final wave");
      }
    }
    // Every cached fast path must still have a live conntrack backing (a
    // read-only sweep: the predicate always declines to invalidate).
    // Only meaningful on backends that carry both subsystems.
    for (auto& [name, s] : all_stacks) {
      if (!s->has_netfilter() || !s->has_flowcache()) continue;
      const net::Netfilter& nf = s->netfilter();
      std::size_t stale = 0;
      s->flow_cache().invalidate_if(
          [&nf, &stale](const net::flowcache::FlowKey&,
                        const net::flowcache::CachedPath& p) {
            if (p.ct_id != 0 && !nf.conn_alive(p.ct_id)) ++stale;
            return false;
          });
      if (stale > 0) {
        out.invariant_failures.push_back(
            name + ": " + std::to_string(stale) +
            " flowcache entries outlive their conntrack backing");
      }
    }

    // ---- digests ---------------------------------------------------------
    for (LiveFlow& f : flows) {
      const std::string p = "flow" + std::to_string(f.index) + ".";
      const std::uint64_t txns =
          f.rr != nullptr ? f.rr->transactions : 0;
      const std::uint64_t bytes =
          f.stream != nullptr ? *f.stream->delivered : 0;
      out.semantic.add(p + "transactions", txns);
      out.semantic.add(p + "bytes", bytes);
      out.strict.add(p + "transactions", txns);
      out.strict.add(p + "bytes", bytes);
      if (f.rr != nullptr) {
        out.strict.add(p + "latency_ns", f.rr->latency_ns_sum);
      }
      if (f.pod->overlay != nullptr) {
        // Oncache evidence: hit/invalidation totals pin the fast path's
        // behaviour in the strict digest (0 on every cache-off shape).
        const auto t = f.pod->overlay->oncache_totals();
        out.strict.add(p + "oncache_eg_hits", t.egress_hits);
        out.strict.add(p + "oncache_in_hits", t.ingress_hits);
        out.strict.add(p + "oncache_inval", t.invalidations);
        out.strict.add(p + "oncache_entries", t.entries);
      }
    }
    for (auto& [name, s] : all_stacks) {
      const std::string p = name + ".";
      out.strict.add(p + "forwarded", s->packets_forwarded());
      out.strict.add(p + "delivered", s->packets_delivered());
      out.strict.add(p + "dropped", s->packets_dropped());
      out.strict.add(p + "arp_tx", s->arp_requests_sent());
      // Capability-gated counters read as 0 on backends without the
      // subsystem so the strict key set stays identical across shapes.
      const bool nf = s->has_netfilter();
      const bool fc = s->has_flowcache();
      out.strict.add(p + "hook_traversals",
                     nf ? s->netfilter().hook_traversals() : 0);
      out.strict.add(p + "conntrack",
                     nf ? s->netfilter().conntrack_size() : 0);
      out.strict.add(p + "fc_size", fc ? s->flow_cache().size() : 0);
      out.strict.add(p + "fc_hits", fc ? s->flow_cache().hits() : 0);
      out.strict.add(p + "fc_misses", fc ? s->flow_cache().misses() : 0);
      out.strict.add(p + "fc_invalidations",
                     fc ? s->flow_cache().invalidations() : 0);
    }
    for (int i = 0; i < m_count; ++i) {
      const std::string p = "bridge" + std::to_string(i) + ".";
      net::Bridge& b = beds[std::size_t(i)]->machine().bridge();
      out.strict.add(p + "floods", b.floods());
      out.strict.add(p + "fdb", b.fdb().size());
    }
    // Per-switch forwarding evidence: uplink_tx pins every ECMP choice, so
    // a path that moved between paired runs diverges the digest even if
    // application outcomes happen to agree.
    auto add_switch = [&out](const std::string& p, net::FabricSwitch& sw) {
      out.strict.add(p + "arp_proxied", sw.arp_proxied());
      out.strict.add(p + "unknown_dropped", sw.unknown_unicast_dropped());
      const auto& tx = sw.uplink_tx();
      for (std::size_t u = 0; u < tx.size(); ++u) {
        out.strict.add(p + "uplink" + std::to_string(u), tx[u]);
      }
    };
    for (std::size_t r = 0; r < fabric.rack_count(); ++r) {
      add_switch("tor" + std::to_string(r) + ".", fabric.tor(r));
    }
    for (std::size_t s = 0; s < fabric.spine_count(); ++s) {
      add_switch("spine" + std::to_string(s) + ".", fabric.spine(s));
    }
    out.strict.add("events_total", conductor.total_events());
    out.strict.add("end_time", std::uint64_t(conductor.now()));
    out.completed = true;

    // Break the send-chain's self-reference before teardown.
    for (LiveFlow& f : flows) {
      if (f.stream != nullptr && f.stream->chain != nullptr) {
        *f.stream->chain = nullptr;
      }
    }
  }
  // ---- leak-on-teardown oracle ------------------------------------------
  const std::int64_t pool_after = net::PacketPool::live_nodes();
  if (pool_after != pool_before) {
    out.invariant_failures.push_back(
        "packet pool leaked " + std::to_string(pool_after - pool_before) +
        " nodes across teardown");
  }
  return out;
}

}  // namespace nestv::fuzz

#include "fuzz/plan.hpp"

#include <sstream>

#include "sim/rng.hpp"

namespace nestv::fuzz {
namespace {

/// Sub-stream id for plan generation (Rng::of_stream).
constexpr std::uint64_t kPlanStream = 0x66757a7aULL;  // "fuzz"
/// Separate sub-stream for the two-tier-topology draw: consuming it does
/// not advance kPlanStream, so one-rack plans — including every existing
/// corpus seed — are bit-identical to what this stream predates.
constexpr std::uint64_t kTopoStream = 0x746f706fULL;  // "topo"
/// Separate sub-stream for the appended overlay flow: plans that predate
/// the overlay fuzz coverage — every existing corpus seed — draw nothing
/// from it, so their generated plans are bit-identical.
constexpr std::uint64_t kOverlayStream = 0x6f766c79ULL;  // "ovly"

}  // namespace

const char* to_string(FlowMode m) {
  switch (m) {
    case FlowMode::kNatStream: return "nat-stream";
    case FlowMode::kBrFusionRr: return "brfusion-rr";
    case FlowMode::kHostloRr: return "hostlo-rr";
    case FlowMode::kOverlayRr: return "overlay-rr";
  }
  return "?";
}

const char* to_string(ActionKind k) {
  switch (k) {
    case ActionKind::kAddDropRule: return "add-drop-rule";
    case ActionKind::kAddNoiseRules: return "add-noise-rules";
    case ActionKind::kRemoveNoiseRules: return "remove-noise-rules";
    case ActionKind::kFdbFlush: return "fdb-flush";
    case ActionKind::kConntrackGc: return "conntrack-gc";
    case ActionKind::kNicUnplug: return "nic-unplug";
  }
  return "?";
}

FuzzPlan generate_plan(std::uint64_t seed) {
  sim::Rng rng = sim::Rng::of_stream(seed, kPlanStream);
  FuzzPlan plan;
  plan.seed = seed;

  // ---- topology --------------------------------------------------------
  plan.machines = rng.chance(0.2) ? 4 : int(rng.uniform_int(2, 3));
  plan.waves = int(rng.uniform_int(1, 3));
  if (plan.machines == 4) {
    // Largest topologies sometimes run on a two-tier fabric: two racks of
    // two under two spines, so cross-rack flows exercise the ECMP
    // tie-break and proxy ARP under every oracle.
    sim::Rng topo = sim::Rng::of_stream(seed, kTopoStream);
    if (topo.chance(0.5)) {
      plan.machines_per_rack = 2;
      plan.spines = 2;
    }
  }

  plan.costs = sim::CostModel{};
  {
    // Small capacities put eviction pressure on the flowcache runs;
    // standing rules scale the per-packet hook scans.  Both are part of
    // the plan, so every paired run shares them.
    const std::uint32_t caps[] = {4, 16, 64, 4096};
    plan.costs.flowcache_capacity = caps[rng.uniform_int(0, 3)];
    const int rules[] = {0, 6, 12};
    plan.costs.nf_standing_rules = rules[rng.uniform_int(0, 2)];
  }

  // ---- flows -----------------------------------------------------------
  // A collision group is two cloned BrFusion RR flows: distinct client
  // machines (hence distinct shards in the alt-shards run), one server
  // machine, identical bytes, the same start instant.  Their kick-off
  // requests traverse identical client-side paths, so they reach the
  // shared fabric in the same nanosecond — the tie the keyed wire
  // delivery exists to order, and the only traffic pattern that can make
  // the injected unkeyed-delivery bug observable.
  const bool collision_group = plan.machines >= 3 && rng.chance(0.7);
  const int n_flows = collision_group ? int(rng.uniform_int(2, 4))
                                      : int(rng.uniform_int(1, 4));
  for (int k = 0; k < n_flows; ++k) {
    FlowPlan f;
    const std::uint64_t m = rng.uniform_int(0, 2);
    f.mode = m == 0   ? FlowMode::kNatStream
             : m == 1 ? FlowMode::kBrFusionRr
                      : FlowMode::kHostloRr;
    f.srv_machine = int(rng.uniform_int(0, std::uint64_t(plan.machines - 1)));
    if (f.mode == FlowMode::kHostloRr) {
      f.cli_machine = f.srv_machine;  // Hostlo is intra-host
    } else {
      f.cli_machine =
          (f.srv_machine +
           1 + int(rng.uniform_int(0, std::uint64_t(plan.machines - 2)))) %
          plan.machines;
    }
    f.srv_port = std::uint16_t(5000 + k);
    f.cli_port = std::uint16_t(20000 + k);
    f.msg_bytes = f.mode == FlowMode::kNatStream
                      ? std::uint32_t(rng.uniform_int(1024, 4096))
                      : std::uint32_t(rng.uniform_int(64, 512));
    f.wave_work.resize(std::size_t(plan.waves));
    bool any = false;
    for (auto& w : f.wave_work) {
      w = std::uint32_t(rng.uniform_int(0, 8));
      any = any || w > 0;
    }
    if (!any) f.wave_work[0] = std::uint32_t(rng.uniform_int(1, 8));
    f.collision_prone = rng.chance(0.5);
    if (f.collision_prone) {
      // Think times quantized to the fabric wire latency, so concurrent
      // flows land same-nanosecond frames on shared devices.
      f.think_quantum = std::uint64_t(plan.costs.fabric_hop_latency);
      f.think_slots = std::uint32_t(rng.uniform_int(0, 3));
    } else {
      f.think_quantum = 1;
      f.think_slots = std::uint32_t(rng.uniform_int(500, 4500));
    }
    plan.flows.push_back(std::move(f));
  }
  if (collision_group) {
    const int srv = int(rng.uniform_int(0, std::uint64_t(plan.machines - 1)));
    const std::uint32_t bytes = std::uint32_t(rng.uniform_int(64, 512));
    const std::uint32_t slots = std::uint32_t(rng.uniform_int(0, 3));
    for (int k = 0; k < 2; ++k) {
      FlowPlan& f = plan.flows[std::size_t(k)];
      f.mode = FlowMode::kBrFusionRr;
      f.srv_machine = srv;
      f.cli_machine = (srv + 1 + k) % plan.machines;
      f.msg_bytes = bytes;
      f.collision_prone = true;
      f.think_quantum = std::uint64_t(plan.costs.fabric_hop_latency);
      f.think_slots = slots;
      for (auto& w : f.wave_work) {
        if (w == 0) w = std::uint32_t(rng.uniform_int(1, 8));
      }
    }
  }

  // ---- actions (wave boundaries exist only with >= 2 waves) ------------
  if (plan.waves >= 2) {
    const int n_actions =
        rng.chance(0.85) ? int(rng.uniform_int(1, 4)) : 0;
    for (int a = 0; a < n_actions; ++a) {
      ActionPlan act;
      act.boundary = int(rng.uniform_int(0, std::uint64_t(plan.waves - 2)));
      const double pick = rng.next_double();
      if (pick < 0.30) {
        // DROP a UDP flow that still has traffic after the boundary, on
        // the host stack that forwards it (BrFusion only; see header).
        act.kind = ActionKind::kAddDropRule;
        act.flow = -1;
        for (int k = 0; k < n_flows; ++k) {
          const FlowPlan& f = plan.flows[std::size_t(k)];
          if (f.mode != FlowMode::kBrFusionRr) continue;
          bool later = false;
          for (int w = act.boundary + 1; w < plan.waves; ++w) {
            later = later || f.wave_work[std::size_t(w)] > 0;
          }
          if (later) {
            act.flow = k;
            break;
          }
        }
        if (act.flow < 0) {  // no candidate: degrade to GC
          act.kind = ActionKind::kConntrackGc;
          act.machine =
              int(rng.uniform_int(0, std::uint64_t(plan.machines - 1)));
        }
      } else if (pick < 0.45) {
        act.kind = ActionKind::kAddNoiseRules;
        act.machine =
            int(rng.uniform_int(0, std::uint64_t(plan.machines - 1)));
        act.count = int(rng.uniform_int(1, 8));
      } else if (pick < 0.55) {
        act.kind = ActionKind::kRemoveNoiseRules;
        act.machine =
            int(rng.uniform_int(0, std::uint64_t(plan.machines - 1)));
      } else if (pick < 0.70) {
        act.kind = ActionKind::kFdbFlush;
        act.machine =
            int(rng.uniform_int(0, std::uint64_t(plan.machines - 1)));
      } else if (pick < 0.90) {
        act.kind = ActionKind::kConntrackGc;
        act.machine =
            int(rng.uniform_int(0, std::uint64_t(plan.machines - 1)));
      } else {
        // Unplug a pod NIC; the flow is retired first (no work after the
        // boundary) so the action only exercises teardown paths.
        act.kind = ActionKind::kNicUnplug;
        act.flow = -1;
        for (int k = 0; k < n_flows; ++k) {
          if (plan.flows[std::size_t(k)].mode == FlowMode::kBrFusionRr) {
            act.flow = k;
            break;
          }
        }
        if (act.flow >= 0) {
          FlowPlan& f = plan.flows[std::size_t(act.flow)];
          for (int w = act.boundary + 1; w < plan.waves; ++w) {
            f.wave_work[std::size_t(w)] = 0;
          }
        } else {
          act.kind = ActionKind::kConntrackGc;
          act.machine =
              int(rng.uniform_int(0, std::uint64_t(plan.machines - 1)));
        }
      }
      plan.actions.push_back(act);
    }
  }

  // ---- execution-shape draws ------------------------------------------
  plan.alt_shards = int(rng.uniform_int(2, std::uint64_t(plan.machines)));
  plan.alt_workers = unsigned(rng.uniform_int(1, 4));

  // ---- appended overlay flow (dedicated sub-stream) ---------------------
  // Drawn entirely from kOverlayStream, after every kPlanStream draw, so
  // all pre-overlay plans are unchanged.  The flow is intra-machine (two
  // VMs, one VXLAN overlay between their uplinks) and its waves all carry
  // work: wave 0 populates the oncache, later waves observe invalidation.
  {
    sim::Rng ov = sim::Rng::of_stream(seed, kOverlayStream);
    if (ov.chance(0.4)) {
      FlowPlan f;
      f.mode = FlowMode::kOverlayRr;
      f.srv_machine =
          int(ov.uniform_int(0, std::uint64_t(plan.machines - 1)));
      f.cli_machine = f.srv_machine;  // the overlay spans VMs, not machines
      f.srv_port = std::uint16_t(5000 + plan.flows.size());
      f.cli_port = std::uint16_t(20000 + plan.flows.size());
      f.msg_bytes = std::uint32_t(ov.uniform_int(64, 512));
      f.wave_work.resize(std::size_t(plan.waves));
      for (auto& w : f.wave_work) w = std::uint32_t(ov.uniform_int(1, 8));
      f.think_quantum = 1;
      f.think_slots = std::uint32_t(ov.uniform_int(500, 4500));
      const int flow_index = int(plan.flows.size());
      plan.flows.push_back(std::move(f));
      // Small oncache capacities put eviction pressure on the cached runs;
      // only overlay-carrying plans redraw the knob, so every other plan
      // keeps the default cost model.
      const std::uint32_t caps[] = {4, 64, 4096};
      plan.costs.oncache_capacity = caps[ov.uniform_int(0, 2)];
      if (plan.waves >= 2 && ov.chance(0.75)) {
        // VXLAN-datagram DROP on the server VM's INPUT chain: overlay
        // traffic halts at the boundary, and the rule edit must flush the
        // cached oncache ingress paths (the oncache oracle's target).
        ActionPlan act;
        act.kind = ActionKind::kAddDropRule;
        act.boundary =
            int(ov.uniform_int(0, std::uint64_t(plan.waves - 2)));
        act.flow = flow_index;
        plan.actions.push_back(act);
      }
    }
  }
  return plan;
}

std::string FuzzPlan::describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " machines=" << machines;
  if (machines_per_rack > 0) {
    os << " racks-of=" << machines_per_rack << " spines=" << spines;
  }
  os << " waves=" << waves
     << " fc_cap=" << costs.flowcache_capacity
     << " standing=" << costs.nf_standing_rules
     << " alt_shards=" << alt_shards << " alt_workers=" << alt_workers
     << "\n";
  for (std::size_t k = 0; k < flows.size(); ++k) {
    const FlowPlan& f = flows[k];
    os << "  flow" << k << ": " << to_string(f.mode) << " srv=m"
       << f.srv_machine << " cli=m" << f.cli_machine << " bytes="
       << f.msg_bytes << " think=" << f.think_quantum << "x0.."
       << f.think_slots << (f.collision_prone ? " collision-prone" : "")
       << " work=[";
    for (std::size_t w = 0; w < f.wave_work.size(); ++w) {
      os << (w ? "," : "") << f.wave_work[w];
    }
    os << "]\n";
  }
  for (std::size_t a = 0; a < actions.size(); ++a) {
    const ActionPlan& act = actions[a];
    os << "  action" << a << ": " << to_string(act.kind) << " @boundary"
       << act.boundary << " flow=" << act.flow << " machine=" << act.machine
       << " count=" << act.count << "\n";
  }
  return os.str();
}

}  // namespace nestv::fuzz

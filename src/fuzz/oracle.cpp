#include "fuzz/oracle.hpp"

#include <sstream>

#include "fuzz/world.hpp"

namespace nestv::fuzz {
namespace {

/// Collects a run's invariant violations as "invariant" failures.
void absorb_invariants(const WorldResult& r, const std::string& label,
                       CaseResult& out) {
  for (const std::string& msg : r.invariant_failures) {
    out.failures.push_back({"invariant", "[" + label + "] " + msg});
  }
}

/// Strict comparison; both runs must have completed.
void check_strict(const WorldResult& a, const std::string& la,
                  const WorldResult& b, const std::string& lb,
                  const std::string& oracle, CaseResult& out) {
  if (!a.completed || !b.completed) return;  // invariants already reported
  const std::string diff = a.strict.first_difference(b.strict);
  if (!diff.empty()) {
    out.failures.push_back(
        {oracle, la + " vs " + lb + " strict divergence at " + diff});
  }
}

void check_semantic(const WorldResult& a, const std::string& la,
                    const WorldResult& b, const std::string& lb,
                    const std::string& oracle, CaseResult& out) {
  if (!a.completed || !b.completed) return;
  const std::string diff = a.semantic.first_difference(b.semantic);
  if (!diff.empty()) {
    out.failures.push_back(
        {oracle, la + " vs " + lb + " semantic divergence at " + diff});
  }
}

}  // namespace

bool CaseResult::failed(const std::string& oracle) const {
  for (const Failure& f : failures) {
    if (f.oracle == oracle) return true;
  }
  return false;
}

std::string CaseResult::report() const {
  std::ostringstream os;
  for (const Failure& f : failures) {
    os << "  [" << f.oracle << "] " << f.detail << "\n";
  }
  return os.str();
}

CaseResult run_case(const CaseSpec& spec) {
  CaseResult out;
  const FuzzPlan plan = generate_plan(spec.seed);
  auto run = [&](const RunShape& shape) {
    return run_world(plan, shape, spec.flow_mask, spec.action_mask);
  };

  // The reference run every oracle compares against: sequential engine,
  // no flowcache.
  RunShape base;
  base.label = "A";
  const WorldResult a = run(base);
  absorb_invariants(a, "A", out);

  if (spec.oracle_mask & kOracleShards) {
    RunShape b;
    b.shards = plan.alt_shards;
    b.workers = plan.alt_workers;
    b.label = "B";
    const WorldResult r = run(b);
    absorb_invariants(r, "B(shards=" + std::to_string(b.shards) + ")", out);
    check_strict(a, "A(shards=1)",
                 r, "B(shards=" + std::to_string(b.shards) + ")", "shards",
                 out);
  }

  if (spec.oracle_mask & kOracleFlowcache) {
    RunShape e;
    e.flowcache = true;
    e.label = "E";
    const WorldResult re = run(e);
    absorb_invariants(re, "E(flowcache)", out);
    check_semantic(a, "A(fc=off)", re, "E(fc=on)", "flowcache", out);

    // Everything at once, strictly reproduced by its sequential twin.
    RunShape f;
    f.shards = plan.alt_shards;
    f.workers = plan.alt_workers;
    f.flowcache = true;
    f.label = "F";
    const WorldResult rf = run(f);
    absorb_invariants(rf, "F(all-on)", out);
    RunShape f1 = f;
    f1.shards = 1;
    f1.workers = 1;
    f1.label = "F1";
    const WorldResult rf1 = run(f1);
    absorb_invariants(rf1, "F1(all-on,shards=1)", out);
    check_strict(rf, "F(shards=" + std::to_string(f.shards) + ")",
                 rf1, "F1(shards=1)", "flowcache", out);
  }

  if (spec.oracle_mask & kOracleBackend) {
    // Pods on the compact fast-path stack: no netfilter, fused pipeline,
    // different per-packet costs — application outcomes must not move.
    RunShape g;
    g.fastpath_pods = true;
    g.label = "G";
    const WorldResult rg = run(g);
    absorb_invariants(rg, "G(fastpath-pods)", out);
    check_semantic(a, "A(fullstack)", rg, "G(fastpath-pods)", "backend",
                   out);
    // And the fast-path shape is itself deterministic.
    const WorldResult rg2 = run(g);
    absorb_invariants(rg2, "G-rerun", out);
    check_strict(rg, "G", rg2, "G-rerun", "backend", out);
  }

  if (spec.oracle_mask & kOracleOncache) {
    // Only plans whose masked flow set carries an overlay flow have a
    // cache to enable; everywhere else the shape equals the baseline.
    bool has_overlay = false;
    for (std::size_t k = 0; k < plan.flows.size(); ++k) {
      has_overlay = has_overlay ||
                    ((spec.flow_mask >> k & 1) != 0 &&
                     plan.flows[k].mode == FlowMode::kOverlayRr);
    }
    if (has_overlay) {
      RunShape h;
      h.oncache = true;
      h.label = "H";
      const WorldResult rh = run(h);
      absorb_invariants(rh, "H(oncache)", out);
      check_semantic(a, "A(oncache=off)", rh, "H(oncache=on)", "oncache",
                     out);
      // And the cached shape is itself deterministic.
      const WorldResult rh2 = run(h);
      absorb_invariants(rh2, "H-rerun", out);
      check_strict(rh, "H", rh2, "H-rerun", "oncache", out);
    }
  }

  return out;
}

}  // namespace nestv::fuzz

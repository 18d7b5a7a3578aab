#include "fuzz/minimize.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "fuzz/plan.hpp"

namespace nestv::fuzz {
namespace {

std::uint32_t oracle_bit(const std::string& oracle) {
  if (oracle == "shards") return kOracleShards;
  if (oracle == "flowcache") return kOracleFlowcache;
  if (oracle == "backend") return kOracleBackend;
  if (oracle == "oncache") return kOracleOncache;
  return kOracleAll;  // "invariant" can surface in any run
}

const char* hook_symbol(const std::string& hook) {
  if (hook == "shards") return "unkeyed_wire_delivery";
  if (hook == "lookahead") return "lookahead_matrix_overrun";
  if (hook == "flowcache") return "skip_flowcache_rule_invalidation";
  if (hook == "faststack") return "faststack_dup_udp_delivery";
  if (hook == "oncache") return "skip_oncache_rule_invalidation";
  return nullptr;
}

std::string camel(const std::string& s) {
  if (s.empty()) return s;
  std::string out = s;
  out[0] = char(std::toupper(static_cast<unsigned char>(out[0])));
  return out;
}

}  // namespace

std::optional<MinimizeResult> minimize(const CaseSpec& spec) {
  const CaseResult initial = run_case(spec);
  MinimizeResult out;
  out.runs = 1;
  if (initial.clean()) return std::nullopt;
  out.oracle = initial.failures.front().oracle;

  const FuzzPlan plan = generate_plan(spec.seed);
  CaseSpec cur = spec;
  // Only the failing oracle's shapes need to re-run while shrinking.
  cur.oracle_mask = spec.oracle_mask & oracle_bit(out.oracle);
  const auto still_fails = [&](const CaseSpec& s) {
    ++out.runs;
    return run_case(s).failed(out.oracle);
  };

  // Greedy ddmin to fixpoint: actions first (cheap to drop — they never
  // change the topology), then flows.
  bool changed = true;
  while (changed) {
    changed = false;
    for (int a = 0; a < int(plan.actions.size()); ++a) {
      if ((cur.action_mask >> a & 1) == 0) continue;
      CaseSpec trial = cur;
      trial.action_mask &= ~(1ULL << a);
      if (still_fails(trial)) {
        cur = trial;
        changed = true;
      }
    }
    for (int k = 0; k < int(plan.flows.size()); ++k) {
      if ((cur.flow_mask >> k & 1) == 0) continue;
      CaseSpec trial = cur;
      trial.flow_mask &= ~(1ULL << k);
      if (still_fails(trial)) {
        cur = trial;
        changed = true;
      }
    }
  }

  const CaseResult fin = run_case(cur);
  ++out.runs;
  for (const Failure& f : fin.failures) {
    if (f.oracle == out.oracle) {
      out.detail = f.detail;
      break;
    }
  }
  out.spec = cur;
  return out;
}

bool emit_corpus_test(const CaseSpec& spec, const std::string& oracle,
                      const std::string& inject_hook,
                      const std::string& path) {
  const FuzzPlan plan = generate_plan(spec.seed);
  std::ostringstream os;
  os << "// Generated by fuzz_runner --minimize.  Do not edit by hand.\n"
     << "// seed=" << spec.seed << " oracle=" << oracle
     << (inject_hook.empty() ? "" : " injected-bug=" + inject_hook) << "\n"
     << "// Minimized plan:\n";
  {
    std::istringstream lines(plan.describe());
    std::string line;
    while (std::getline(lines, line)) os << "//   " << line << "\n";
  }
  os << "#include <gtest/gtest.h>\n"
     << "\n"
     << "#include \"fuzz/oracle.hpp\"\n"
     << "#include \"sim/test_hooks.hpp\"\n"
     << "\n"
     << "namespace {\n"
     << "\n"
     << "nestv::fuzz::CaseSpec spec_" << spec.seed << "() {\n"
     << "  nestv::fuzz::CaseSpec s;\n"
     << "  s.seed = " << spec.seed << "ULL;\n"
     << "  s.flow_mask = 0x" << std::hex << spec.flow_mask << std::dec
     << "ULL;\n"
     << "  s.action_mask = 0x" << std::hex << spec.action_mask << std::dec
     << "ULL;\n"
     << "  s.oracle_mask = 0x" << std::hex << spec.oracle_mask << std::dec
     << "U;\n"
     << "  return s;\n"
     << "}\n"
     << "\n"
     << "TEST(FuzzCorpus, Seed" << spec.seed << camel(oracle)
     << "Clean) {\n"
     << "  nestv::sim::test_hooks::reset();\n"
     << "  const auto r = nestv::fuzz::run_case(spec_" << spec.seed
     << "());\n"
     << "  EXPECT_TRUE(r.clean()) << r.report();\n"
     << "}\n";
  if (const char* sym = hook_symbol(inject_hook)) {
    os << "\n"
       << "// With the deliberately-injected bug re-enabled, the oracle\n"
       << "// must still detect the divergence this repro was minimized\n"
       << "// from — the fuzzer's detection power is itself regression-\n"
       << "// tested.\n"
       << "TEST(FuzzCorpus, Seed" << spec.seed << camel(oracle)
       << "DetectsInjectedBug) {\n"
       << "  nestv::sim::test_hooks::reset();\n"
       << "  nestv::sim::test_hooks::" << sym << " = true;\n"
       << "  const auto r = nestv::fuzz::run_case(spec_" << spec.seed
       << "());\n"
       << "  nestv::sim::test_hooks::reset();\n"
       << "  EXPECT_TRUE(r.failed(\"" << oracle
       << "\")) << \"minimized repro no longer diverges under the "
          "injected bug\";\n"
       << "}\n";
  }
  os << "\n"
     << "}  // namespace\n";

  std::ofstream file(path);
  if (!file) return false;
  file << os.str();
  return bool(file);
}

}  // namespace nestv::fuzz

// Failure minimization and corpus-test emission.
//
// A diverging seed usually drags a whole scenario with it — several flows,
// several boundary actions.  minimize() shrinks the repro by greedy delta
// debugging over the CaseSpec's masks: one pass tries clearing each action
// bit, one pass each flow bit, re-running only the failing oracle each
// time; passes repeat until no bit can be removed.  The result is the
// minimal set of flows and actions that still diverges.
//
// emit_corpus_test() freezes a minimized case as a self-contained gtest
// source in tests/fuzz_corpus/: the test asserts the case is clean with
// the engine as-is, and — when the repro came from an injected bug —
// that the matching oracle still detects the divergence with the bug
// hook re-enabled.  The corpus replays under ctest on every build.
#pragma once

#include <optional>
#include <string>

#include "fuzz/oracle.hpp"

namespace nestv::fuzz {

struct MinimizeResult {
  CaseSpec spec;       ///< minimized masks; oracle_mask narrowed
  std::string oracle;  ///< the failing oracle the repro preserves
  std::string detail;  ///< first divergence of the minimized case
  int runs = 0;        ///< run_case invocations spent minimizing
};

/// Shrinks `spec` to a minimal still-failing case.  Returns nullopt when
/// the spec does not fail at all (nothing to minimize).
[[nodiscard]] std::optional<MinimizeResult> minimize(const CaseSpec& spec);

/// Writes a self-contained regression test for the minimized case to
/// `path`.  `inject_hook` names the test hook that provoked the failure
/// ("shards", "flowcache", ...) or is empty for an organic failure.
/// Returns false when the file cannot be written.
bool emit_corpus_test(const CaseSpec& spec, const std::string& oracle,
                      const std::string& inject_hook,
                      const std::string& path);

}  // namespace nestv::fuzz

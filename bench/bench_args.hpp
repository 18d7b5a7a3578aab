// Checked command-line numbers for the benches.
//
// Standalone (stdio only) so benches that do not link the workload layer
// (abl_sched_policy, abl_stack_backend) parse their arguments the same way
// as the ones built on bench_util.hpp.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace nestv::bench {

/// Parses `text` as a whole number no larger than `max`; anything else
/// (empty, signed, fractional, trailing junk, overflow) ends the bench
/// with exit status 2 rather than silently running a different config.
inline std::uint64_t whole_number_arg(const char* what, const char* text,
                                      std::uint64_t max = UINT64_MAX) {
  std::uint64_t v = 0;
  bool ok = text != nullptr && *text != '\0';
  for (const char* p = text; ok && *p != '\0'; ++p) {
    const auto digit = static_cast<std::uint64_t>(*p - '0');
    ok = *p >= '0' && *p <= '9' && v <= (max - digit) / 10;
    v = v * 10 + digit;
  }
  if (!ok) {
    std::fprintf(stderr, "%s must be a whole number in [0, %llu], got '%s'\n",
                 what, static_cast<unsigned long long>(max),
                 text != nullptr ? text : "");
    std::exit(2);
  }
  return v;
}

}  // namespace nestv::bench

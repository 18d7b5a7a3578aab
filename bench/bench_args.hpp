// Checked command line for the benches.
//
// Standalone (stdio only) so benches that do not link the workload layer
// (tab02_aws_catalog, abl_conntrack, abl_sched_policy, abl_stack_backend)
// parse their arguments the same way as the ones built on bench_util.hpp.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

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

/// Command line shared by every bench: `[seed] [--jobs N] [--shards N]`.
/// `--jobs` parallelizes across a sweep's measurement points; `--shards`
/// runs one configuration of a bench that drives a ShardedConductor
/// (abl_macro_scale; 0 = the bench's own shard sweep).
struct BenchArgs {
  std::uint64_t seed = 42;
  int jobs = 1;
  int shards = 0;
};

/// Parses the shared flags.  `bench_flags` names the flags the bench
/// parses itself (a trailing '=' takes any `--flag=value`, as in
/// abl_macro_scale's "--machines=").  Any other `-`-prefixed argument ends
/// the bench with exit status 2 rather than silently running a default.
/// `default_seed` is the seed when none is given (abl_sched_policy's gated
/// placement numbers are measured at 2019).
inline BenchArgs parse_args(int argc, char** argv,
                            std::initializer_list<const char*> bench_flags =
                                {},
                            std::uint64_t default_seed = 42) {
  BenchArgs a;
  a.seed = default_seed;
  const auto is_bench_flag = [&bench_flags](const char* arg) {
    for (const char* flag : bench_flags) {
      const std::size_t n = std::strlen(flag);
      const bool takes_value = n > 0 && flag[n - 1] == '=';
      if (takes_value ? std::strncmp(arg, flag, n) == 0
                      : std::strcmp(arg, flag) == 0) {
        return true;
      }
    }
    return false;
  };
  const auto count = [](const char* what, const char* text) {
    return static_cast<int>(whole_number_arg(what, text, 1 << 16));
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--jobs") == 0) {
      a.jobs = count("--jobs", i + 1 < argc ? argv[++i] : nullptr);
    } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
      a.jobs = count("--jobs", arg + 7);
    } else if (std::strcmp(arg, "--shards") == 0) {
      a.shards = count("--shards", i + 1 < argc ? argv[++i] : nullptr);
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      a.shards = count("--shards", arg + 9);
    } else if (arg[0] != '-') {
      a.seed = whole_number_arg("seed", arg);
    } else if (!is_bench_flag(arg)) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg);
      std::exit(2);
    }
  }
  if (a.jobs < 1) a.jobs = 1;
  return a;
}

}  // namespace nestv::bench

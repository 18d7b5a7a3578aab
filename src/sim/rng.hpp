// Deterministic random number generation for simulations.
//
// xoshiro256** seeded through SplitMix64, plus the handful of distributions
// the reproduction needs (uniform, exponential, normal, lognormal, Pareto).
// We do not use <random> engines because their distributions are not
// guaranteed to produce identical streams across standard library
// implementations, which would break cross-platform reproducibility of the
// benchmark outputs.
#pragma once

#include <cstdint>

namespace nestv::sim {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation), seeded via SplitMix64 from a single 64-bit seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform on [0, 2^64).
  std::uint64_t next_u64();

  /// Uniform on [0, 1).
  double next_double();

  /// Uniform integer on [lo, hi] (inclusive).  Precondition: lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Bernoulli trial with success probability p.
  bool chance(double p);

  /// Exponential with the given mean (= 1/lambda).  Mean must be > 0.
  double exponential(double mean);

  /// Standard normal via Box-Muller (cached second variate).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Lognormal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);

  /// Pareto (type I) with scale x_m > 0 and shape alpha > 0.
  double pareto(double x_m, double alpha);

  /// Forks an independent, deterministic child stream.  Used to give every
  /// simulated entity its own stream so adding one entity never perturbs
  /// another's randomness.
  Rng fork();

  /// Mixes a stream id into a base seed (two SplitMix64 finalizer rounds):
  /// the canonical way to derive per-purpose sub-seeds from one scenario
  /// seed.  Replaces the ad-hoc xor/multiply mixes scenarios used to carry
  /// (`seed ^ 0x...`, `seed * 1000003 + k * 7919`) with one well-mixed,
  /// collision-resistant derivation.
  [[nodiscard]] static std::uint64_t mix(std::uint64_t seed,
                                         std::uint64_t stream);

  /// An Rng on the sub-stream `stream` of `seed`: Rng(mix(seed, stream)).
  /// Distinct stream ids give statistically independent generators;
  /// callers name their streams with small constants or entity indices.
  [[nodiscard]] static Rng of_stream(std::uint64_t seed,
                                     std::uint64_t stream) {
    return Rng(mix(seed, stream));
  }

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace nestv::sim

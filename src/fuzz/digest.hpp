// Ordered key/value digest of one world execution.
//
// A Digest is the unit the differential oracles compare: every counter the
// world exposes, keyed by a stable name, in a stable order.  Two runs that
// must be equivalent produce Digests compared entry-by-entry, and the first
// differing key names the exact counter that diverged — which is what the
// minimizer and the corpus-test emitter report, instead of an opaque hash
// mismatch.
//
// Doubles are compared bit-for-bit (std::bit_cast to uint64), matching the
// repo's EXPECT_BITS_EQ convention: a reordered floating-point accumulation
// must not hide behind ULP tolerance.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nestv::fuzz {

class Digest {
 public:
  void add(std::string name, std::uint64_t value) {
    entries_.emplace_back(std::move(name), value);
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>&
  entries() const {
    return entries_;
  }

  /// FNV-1a over names and values; a cheap whole-digest fingerprint.
  [[nodiscard]] std::uint64_t hash() const;

  /// Empty string when equal; otherwise "key: <a> vs <b>" for the first
  /// differing entry (or a length/name mismatch description).
  [[nodiscard]] std::string first_difference(const Digest& other) const;

  friend bool operator==(const Digest& a, const Digest& b) {
    return a.entries_ == b.entries_;
  }

 private:
  std::vector<std::pair<std::string, std::uint64_t>> entries_;
};

}  // namespace nestv::fuzz

#include "fuzz/digest.hpp"

#include <sstream>

namespace nestv::fuzz {

std::uint64_t Digest::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [name, value] : entries_) {
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    mix(value);
  }
  return h;
}

std::string Digest::first_difference(const Digest& other) const {
  const std::size_t n = entries_.size() < other.entries_.size()
                            ? entries_.size()
                            : other.entries_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [an, av] = entries_[i];
    const auto& [bn, bv] = other.entries_[i];
    std::ostringstream os;
    if (an != bn) {
      os << "digest key order differs at #" << i << ": " << an << " vs "
         << bn;
      return os.str();
    }
    if (av != bv) {
      os << an << ": " << av << " vs " << bv;
      return os.str();
    }
  }
  if (entries_.size() != other.entries_.size()) {
    std::ostringstream os;
    os << "digest sizes differ: " << entries_.size() << " vs "
       << other.entries_.size();
    return os.str();
  }
  return {};
}

}  // namespace nestv::fuzz

// IPv4 routing table with longest-prefix-match lookup.
//
// Lookup is a hashed exact-match per distinct prefix length (longest
// first), not a linear scan.  A handful of distinct prefix lengths (/32
// host routes, /24 subnets, /0 default) cover every table in the
// simulation, so lookup is effectively O(1).  The semantics are the linear
// scan's exactly: longest prefix, then lowest metric, then earliest
// insertion.
//
// A fabric's mesh routes are not per-host entries: every member of a
// fabric reaches every other member's VM subnet through that member's
// external address, so the fabric owns one PeerRouteSet (member subnet ->
// owner ext IP) and each member's RoutingTable consults it by reference
// next to its own routes.  Per-host routing state stays O(1) in the
// machine count; lookups return what the full mesh of per-host add()s
// returned.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/address.hpp"

namespace nestv::net {

struct Route {
  Ipv4Cidr prefix;
  int ifindex = -1;
  /// Next-hop gateway; unset for directly-connected prefixes.
  std::optional<Ipv4Address> gateway;
  int metric = 0;
};

struct RouteDecision {
  int ifindex = -1;
  /// The address to ARP for: the gateway if any, else the destination.
  Ipv4Address next_hop;
};

/// Prefix -> ordinal, hashed per (prefix length, network), with the
/// distinct lengths present kept in descending order so a longest-prefix
/// walk probes each length once.
class PrefixIndex {
 public:
  /// Maps `prefix` to `ordinal` if the prefix is new.  Returns the slot
  /// holding the prefix's ordinal and whether this call inserted it.
  std::pair<std::uint32_t*, bool> insert(Ipv4Cidr prefix,
                                         std::uint32_t ordinal);
  /// The ordinal of the length-`len` prefix covering `dst`, if present.
  [[nodiscard]] const std::uint32_t* find(int len, Ipv4Address dst) const;
  /// Distinct prefix lengths present, longest first.
  [[nodiscard]] const std::vector<int>& lens() const { return lens_; }

 private:
  std::unordered_map<std::uint64_t, std::uint32_t> map_;
  std::vector<int> lens_;
};

/// The routes a fabric shares with its members: member i's VM subnet is
/// reached through member i's external address.  Members never leave, so
/// the set only grows; its generation is its size.
class PeerRouteSet {
 public:
  /// Adds a member; returns its ordinal.  Throws std::invalid_argument if
  /// `subnet` is already a member's.
  std::uint32_t add(Ipv4Cidr subnet, Ipv4Address gateway);

  [[nodiscard]] std::size_t size() const { return gateways_.size(); }
  [[nodiscard]] std::uint64_t generation() const { return gateways_.size(); }
  [[nodiscard]] Ipv4Address gateway(std::uint32_t member) const {
    return gateways_[member];
  }
  [[nodiscard]] const PrefixIndex& index() const { return index_; }

 private:
  std::vector<Ipv4Address> gateways_;
  PrefixIndex index_;
};

class RoutingTable {
 public:
  void add(const Route& r);
  void add_connected(Ipv4Cidr prefix, int ifindex) {
    add(Route{prefix, ifindex, std::nullopt, 0});
  }
  void add_default(Ipv4Address gateway, int ifindex) {
    add(Route{Ipv4Cidr(Ipv4Address(0), 0), ifindex, gateway, 0});
  }
  /// Makes this table a member of `peers` as member `self`: every other
  /// member's subnet is routed out of `ifindex` via that member's gateway
  /// at metric 0, as if add() had installed it when the later of this
  /// host and that member joined.  Call once, after `peers.add()` returned
  /// `self`; `peers` must outlive the table.
  void use_peers(const PeerRouteSet& peers, std::uint32_t self, int ifindex);

  /// Longest-prefix match; ties broken by lowest metric, then insertion
  /// order.  Returns nullopt when no route covers `dst`.
  [[nodiscard]] std::optional<RouteDecision> lookup(Ipv4Address dst) const;

  /// This table's own routes (peer routes are the fabric's, counted once).
  [[nodiscard]] std::size_t size() const { return routes_.size(); }

  /// Bumped by every table edit, and by every member joining the peer set
  /// (each join is the one route a per-host full mesh would have added
  /// here).  Cached forwarding decisions stamp the generation they were
  /// computed under and lazily miss once it moves (src/net/flowcache —
  /// route changes invalidate via this stamp).
  [[nodiscard]] std::uint64_t generation() const {
    // Every member but this host contributes one route.
    return generation_ + (peers_ != nullptr ? peers_->generation() - 1 : 0);
  }

 private:
  /// An own route plus the peer-set size when it was added (0 before
  /// use_peers): it precedes peer route m iff joined <= max(self, m).
  struct Entry {
    Route route;
    std::uint32_t joined = 0;
  };

  /// Direct-mapped memo of recent decisions.  A handful of destinations
  /// dominate any steady-state flow, but every forwarded packet performs
  /// two lookups (route, then ARP next hop), so the index probe shows up
  /// in the engine hot path.  Entries are validated against generation(),
  /// making the memo invisible: it returns exactly what the probe would.
  struct CacheEntry {
    Ipv4Address dst;
    std::uint64_t generation = ~std::uint64_t{0};
    std::optional<RouteDecision> decision;
  };
  static constexpr std::size_t kCacheSlots = 8;

  /// Folds routes_[i] into the winner index (within one prefix: lowest
  /// metric, earliest insertion).
  void index_add(std::size_t i);
  /// True when own route `i` beats peer route `member` for one prefix.
  [[nodiscard]] bool own_wins(std::uint32_t i, std::uint32_t member) const;

  std::vector<Entry> routes_;
  std::uint64_t generation_ = 0;
  PrefixIndex index_;  ///< prefix -> winning ordinal in routes_
  const PeerRouteSet* peers_ = nullptr;
  std::uint32_t self_ = 0;
  int peer_ifindex_ = -1;
  mutable CacheEntry cache_[kCacheSlots];
};

}  // namespace nestv::net

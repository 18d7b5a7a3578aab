// Netfilter: hook chains, rule matching, connection tracking and NAT.
//
// This models the Linux packet-filter architecture the paper's fig 1
// datapaths traverse: packets cross hook points (PREROUTING, INPUT,
// FORWARD, OUTPUT, POSTROUTING); each hook runs chains of rules; the nat
// table uses connection tracking so only the first packet of a flow scans
// rules, later packets hit the conntrack fast path.  Work is *metered* here
// (returned as a nanosecond cost) and charged by the owning NetworkStack to
// its softirq resource — "NAT rules are applied on packets via hooks
// executed by software interrupts" (section 5.2.3).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/conn_table.hpp"
#include "net/packet.hpp"
#include "sim/cost_model.hpp"
#include "sim/time.hpp"

namespace nestv::net {

enum class Hook : std::uint8_t {
  kPrerouting = 0,
  kInput,
  kForward,
  kOutput,
  kPostrouting,
  kCount,
};

[[nodiscard]] const char* to_string(Hook h);

enum class Verdict : std::uint8_t { kAccept, kDrop };

/// Rule predicate; unset fields match anything.
struct RuleMatch {
  std::optional<L4Proto> proto;
  std::optional<Ipv4Cidr> src;
  std::optional<Ipv4Cidr> dst;
  std::optional<std::uint16_t> sport;
  std::optional<std::uint16_t> dport;
  std::string in_iface;   ///< empty = any
  std::string out_iface;  ///< empty = any

  [[nodiscard]] bool matches(const Packet& p, std::string_view in,
                             std::string_view out) const;
};

enum class TargetKind : std::uint8_t {
  kAccept,
  kDrop,
  kReturn,          ///< stop this chain, fall through to policy
  kSnat,            ///< rewrite source to nat_ip[:allocated port]
  kDnat,            ///< rewrite destination to nat_ip:nat_port
  kDnatRoundRobin,  ///< kube-proxy service: pick a backend per new flow
  kMasquerade,      ///< SNAT to the egress interface address
};

/// A service backend for kDnatRoundRobin.
struct NatBackend {
  Ipv4Address ip;
  std::uint16_t port = 0;
};

struct Rule {
  RuleMatch match;
  TargetKind target = TargetKind::kAccept;
  Ipv4Address nat_ip;
  std::uint16_t nat_port = 0;
  /// kDnatRoundRobin only: the endpoint set; new flows rotate through it,
  /// established flows stay pinned by conntrack (session affinity).
  std::vector<NatBackend> backends;
  std::string comment;
};

/// One rule chain with a default policy.
struct Chain {
  std::vector<Rule> rules;
  Verdict policy = Verdict::kAccept;
  /// The standing-rule block (Netfilter::install_standing_rules): `standing`
  /// identical DROP rules for 203.0.113.0/24, held as a count and scanned
  /// just before rules[standing_at] (or after the last rule when
  /// standing_at == rules.size()).  Rules edited through the Netfilter
  /// API keep the block in place; a direct `rules` edit must only append.
  std::uint32_t standing = 0;
  std::uint32_t standing_at = 0;
};

// ConnKey / ConnKeyHash / ConnEntry and the compact conntrack store live
// in net/conn_table.hpp; this header re-exposes them for all existing
// includers.

/// The per-stack netfilter instance.
class Netfilter {
 public:
  explicit Netfilter(const sim::CostModel& costs) : costs_(&costs) {}

  /// nat-table chains exist at PREROUTING (DNAT), OUTPUT (DNAT for locally
  /// generated traffic) and POSTROUTING (SNAT/masquerade).
  Chain& nat_chain(Hook h) { return nat_[static_cast<std::size_t>(h)]; }
  /// filter-table chains at INPUT / FORWARD / OUTPUT.
  Chain& filter_chain(Hook h) { return filter_[static_cast<std::size_t>(h)]; }

  /// Observer for rule-table edits made through add/remove below; carries
  /// the changed rule's predicate so the owning stack's flow cache can
  /// flush exactly the flows the rule could affect.  Direct chain access
  /// via nat_chain()/filter_chain() bypasses it (setup-time wiring only).
  using MutationListener = std::function<void(const RuleMatch&)>;
  void set_mutation_listener(MutationListener l) {
    on_mutation_ = std::move(l);
  }

  /// Rule edits that notify the mutation listener (use these for any edit
  /// made while traffic may be cached).
  void add_nat_rule(Hook h, Rule rule);
  void add_filter_rule(Hook h, Rule rule);
  /// Removes all rules whose comment equals `comment` from the given
  /// chain; returns the number removed.
  std::size_t remove_nat_rules(Hook h, const std::string& comment);
  std::size_t remove_filter_rules(Hook h, const std::string& comment);

  /// Installs `n` pass-through rules on the filter FORWARD and OUTPUT/INPUT
  /// chains, standing in for the chains Docker/Kubernetes maintain
  /// (DOCKER-USER, KUBE-SERVICES, ...).  They match nothing but still cost
  /// a scan per packet — the fig 6/7 "soft" overhead.  The block is a
  /// count at the chain's current end, not n Rule objects: a packet for
  /// 203.0.113.0/24 is dropped by the first (one scan), any other packet
  /// pays n scans and goes on, exactly as n explicit rules would charge.
  /// A second call extends the block only while no rule follows it
  /// (std::logic_error otherwise: one block per chain).
  void install_standing_rules(int n);

  struct HookResult {
    Verdict verdict = Verdict::kAccept;
    sim::Duration cost = 0;  ///< CPU to charge to softirq
  };

  /// Runs one hook over `p` (possibly rewriting it).  `now` drives
  /// conntrack timestamps; `in`/`out` are interface names for matching.
  HookResult run_hook(Hook h, Packet& p, std::string_view in,
                      std::string_view out, sim::TimePoint now);

  /// Total hooks every forwarded packet traverses in this stack; used by
  /// tests asserting the nested path runs 2x the hook count.
  [[nodiscard]] std::uint64_t hook_traversals() const { return traversals_; }
  [[nodiscard]] std::size_t conntrack_size() const { return conns_.size(); }
  /// True while connection `id` is tracked (fast-path liveness check).
  [[nodiscard]] bool conn_alive(std::uint64_t id) const {
    return conns_.alive(id);
  }
  /// Resident bytes of the conntrack store (bytes-of-state-per-flow
  /// accounting; see bench/abl_macro_scale).
  [[nodiscard]] std::size_t conntrack_state_bytes() const {
    return conns_.state_bytes();
  }

  /// Keep-alive for the cached fast path: packets that bypass the hooks
  /// still refresh their connection (last_seen, packet count) so GC does
  /// not reap actively cached flows.
  void touch(std::uint64_t id, sim::TimePoint now);

  /// Expires idle conntrack entries; returns the ids of the reaped
  /// connections so dependent caches can drop their entries.
  std::vector<std::uint64_t> gc(sim::TimePoint now,
                                sim::Duration idle_timeout);

 private:
  HookResult run_nat(Hook h, Packet& p, std::string_view in,
                     std::string_view out, sim::TimePoint now);
  HookResult run_filter(Hook h, Packet& p, std::string_view in,
                        std::string_view out);

  /// Applies any recorded translation for this packet's direction.
  /// Returns the connection on a conntrack hit (null Ref on a miss).
  ConnTable::Ref conntrack_lookup(const Packet& p);

  std::uint16_t allocate_port(L4Proto proto, Ipv4Address ip);

  static ConnKey key_of(const Packet& p);

  const sim::CostModel* costs_;
  std::array<Chain, static_cast<std::size_t>(Hook::kCount)> nat_;
  std::array<Chain, static_cast<std::size_t>(Hook::kCount)> filter_;
  ConnTable conns_;
  std::uint16_t next_nat_port_ = 32768;
  std::uint64_t rr_counter_ = 0;  ///< round-robin cursor for service rules
  std::uint64_t traversals_ = 0;
  MutationListener on_mutation_;
};

}  // namespace nestv::net

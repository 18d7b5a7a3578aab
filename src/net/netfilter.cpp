#include "net/netfilter.hpp"

#include <stdexcept>

namespace nestv::net {

const char* to_string(Hook h) {
  switch (h) {
    case Hook::kPrerouting: return "PREROUTING";
    case Hook::kInput: return "INPUT";
    case Hook::kForward: return "FORWARD";
    case Hook::kOutput: return "OUTPUT";
    case Hook::kPostrouting: return "POSTROUTING";
    case Hook::kCount: break;
  }
  return "?";
}

bool RuleMatch::matches(const Packet& p, std::string_view in,
                        std::string_view out) const {
  if (proto && *proto != p.proto) return false;
  if (src && !src->contains(p.src_ip)) return false;
  if (dst && !dst->contains(p.dst_ip)) return false;
  if (sport && *sport != p.src_port) return false;
  if (dport && *dport != p.dst_port) return false;
  if (!in_iface.empty() && in_iface != in) return false;
  if (!out_iface.empty() && out_iface != out) return false;
  return true;
}

namespace {

/// The address range standing rules drop: no experiment traffic uses it,
/// so every packet pays the scan and none is affected — the shape of
/// Docker's and Kubernetes's bookkeeping chains.
const Ipv4Cidr kStandingDrop(Ipv4Address(203, 0, 113, 0), 24);

/// Removes every rule commented `comment` from `chain`, keeping the
/// standing block between the same surviving rules.
std::size_t remove_commented(Chain& chain, const std::string& comment,
                             const Netfilter::MutationListener& on_mutation) {
  std::size_t removed = 0;
  std::uint32_t removed_before_block = 0;
  for (std::size_t i = 0; i < chain.rules.size();) {
    if (chain.rules[i].comment != comment) {
      ++i;
      continue;
    }
    if (on_mutation) on_mutation(chain.rules[i].match);
    if (i + removed < chain.standing_at) ++removed_before_block;
    chain.rules.erase(chain.rules.begin() + static_cast<std::ptrdiff_t>(i));
    ++removed;
  }
  chain.standing_at -= removed_before_block;
  return removed;
}

}  // namespace

void Netfilter::install_standing_rules(int n) {
  if (n <= 0) return;
  for (const Hook h : {Hook::kForward, Hook::kInput, Hook::kOutput}) {
    Chain& chain = filter_chain(h);
    const auto end = static_cast<std::uint32_t>(chain.rules.size());
    if (chain.standing > 0 && chain.standing_at != end) {
      throw std::logic_error(
          "Netfilter::install_standing_rules: rules follow the chain's "
          "standing block; a chain holds one block");
    }
    chain.standing += static_cast<std::uint32_t>(n);
    chain.standing_at = end;
  }
}

ConnKey Netfilter::key_of(const Packet& p) {
  return ConnKey{p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.proto};
}

ConnTable::Ref Netfilter::conntrack_lookup(const Packet& p) {
  if (p.ct_id != 0) {
    const ConnTable::Ref r = conns_.find_id(p.ct_id);
    if (r) return r;
  }
  return conns_.find(key_of(p));
}

std::uint16_t Netfilter::allocate_port(L4Proto proto, Ipv4Address ip) {
  // Probe from the rolling counter until a tuple-free port is found; the
  // occupancy index answers each candidate in O(1) (the map-based version
  // scanned every registered tuple per candidate — quadratic in flows).
  for (int attempts = 0; attempts < 65536; ++attempts) {
    const std::uint16_t candidate = next_nat_port_;
    next_nat_port_ =
        next_nat_port_ >= 60999 ? 32768 : static_cast<std::uint16_t>(
                                              next_nat_port_ + 1);
    if (!conns_.port_in_use(proto, ip, candidate)) return candidate;
  }
  return next_nat_port_;  // table exhausted; reuse is the kernel's fallback too
}

Netfilter::HookResult Netfilter::run_hook(Hook h, Packet& p,
                                          std::string_view in,
                                          std::string_view out,
                                          sim::TimePoint now) {
  ++traversals_;
  const bool is_nat_hook = h == Hook::kPrerouting || h == Hook::kOutput ||
                           h == Hook::kPostrouting;
  HookResult total;
  total.cost += costs_->nf_hook_base;
  if (is_nat_hook) {
    const HookResult nat = run_nat(h, p, in, out, now);
    total.cost += nat.cost;
    if (nat.verdict == Verdict::kDrop) {
      total.verdict = Verdict::kDrop;
      return total;
    }
  }
  if (h == Hook::kInput || h == Hook::kForward || h == Hook::kOutput) {
    const HookResult f = run_filter(h, p, in, out);
    total.cost += f.cost;
    total.verdict = f.verdict;
  }
  return total;
}

Netfilter::HookResult Netfilter::run_nat(Hook h, Packet& p,
                                         std::string_view in,
                                         std::string_view out,
                                         sim::TimePoint now) {
  HookResult r;
  ConnTable::Ref ref = conntrack_lookup(p);
  ConnEntry* conn = ref.entry;

  // ---- fresh flow at a DNAT hook: create the (unconfirmed) entry. -------
  if (conn == nullptr && (h == Hook::kPrerouting || h == Hook::kOutput)) {
    r.cost += costs_->conntrack_miss;
    ConnEntry entry;
    entry.orig = key_of(p);
    entry.last_seen = now;
    entry.packets = 1;

    const Chain& chain = nat_[static_cast<std::size_t>(h)];
    for (const Rule& rule : chain.rules) {
      r.cost += costs_->nf_rule_scan;
      if (!rule.match.matches(p, in, out)) continue;
      if (rule.target == TargetKind::kDnat) {
        entry.dnat = true;
        entry.dnat_ip = rule.nat_ip;
        entry.dnat_port = rule.nat_port != 0 ? rule.nat_port : p.dst_port;
        p.dst_ip = entry.dnat_ip;
        p.dst_port = entry.dnat_port;
        r.cost += costs_->nat_rewrite;
      } else if (rule.target == TargetKind::kDnatRoundRobin &&
                 !rule.backends.empty()) {
        // kube-proxy: each *new flow* takes the next endpoint; conntrack
        // pins the established flow to it (session affinity for free).
        const NatBackend& backend =
            rule.backends[rr_counter_++ % rule.backends.size()];
        entry.dnat = true;
        entry.dnat_ip = backend.ip;
        entry.dnat_port = backend.port != 0 ? backend.port : p.dst_port;
        p.dst_ip = entry.dnat_ip;
        p.dst_port = entry.dnat_port;
        r.cost += costs_->nat_rewrite;
      } else if (rule.target == TargetKind::kDrop) {
        r.verdict = Verdict::kDrop;
      }
      break;
    }
    const ConnTable::Ref created = conns_.create(entry);
    p.ct_id = created.id;
    p.ct_reply = false;
    return r;
  }

  // ---- fresh flow seen first at POSTROUTING (bridged/local traffic that
  // bypassed the DNAT hooks): create the entry here, then fall through to
  // the confirmation path below.
  if (conn == nullptr) {
    r.cost += costs_->conntrack_miss;
    ConnEntry entry;
    entry.orig = key_of(p);
    entry.last_seen = now;
    entry.packets = 0;  // incremented below
    ref = conns_.create(entry);
    p.ct_id = ref.id;
    p.ct_reply = false;
    conn = ref.entry;
  } else {
    r.cost += costs_->conntrack_hit;
    if (p.ct_id == 0) {
      // First hook of this traversal: fix the packet's direction.
      p.ct_reply = conn->confirmed && key_of(p) == conn->reply;
      p.ct_id = ref.id;
    }
  }
  conn->last_seen = now;
  ++conn->packets;

  if (!p.ct_reply) {
    if ((h == Hook::kPrerouting || h == Hook::kOutput) && conn->dnat) {
      p.dst_ip = conn->dnat_ip;
      p.dst_port = conn->dnat_port;
      r.cost += costs_->nat_rewrite;
    }
    if (h == Hook::kPostrouting) {
      if (!conn->confirmed) {
        // First packet of the flow reaches POSTROUTING: decide SNAT and
        // confirm the reply tuple (nf_nat_ipv4_out + __nf_conntrack_confirm).
        const Chain& chain =
            nat_[static_cast<std::size_t>(Hook::kPostrouting)];
        for (const Rule& rule : chain.rules) {
          r.cost += costs_->nf_rule_scan;
          if (!rule.match.matches(p, in, out)) continue;
          if (rule.target == TargetKind::kSnat ||
              rule.target == TargetKind::kMasquerade) {
            conn->snat = true;
            conn->snat_ip = rule.nat_ip;
            conn->snat_port = rule.nat_port != 0
                                  ? rule.nat_port
                                  : allocate_port(p.proto, rule.nat_ip);
            p.src_ip = conn->snat_ip;
            p.src_port = conn->snat_port;
            r.cost += costs_->nat_rewrite;
          }
          break;
        }
        conn->reply =
            ConnKey{p.dst_ip, p.src_ip, p.dst_port, p.src_port, p.proto};
        conn->confirmed = true;
        conns_.register_reply(p.ct_id, conn->reply);
      } else if (conn->snat) {
        p.src_ip = conn->snat_ip;
        p.src_port = conn->snat_port;
        r.cost += costs_->nat_rewrite;
      }
    }
  } else {
    // Reply direction: undo the recorded translations.
    if ((h == Hook::kPrerouting || h == Hook::kOutput) && conn->snat) {
      p.dst_ip = conn->orig.src_ip;
      p.dst_port = conn->orig.src_port;
      r.cost += costs_->nat_rewrite;
    }
    if (h == Hook::kPostrouting && conn->dnat) {
      p.src_ip = conn->orig.dst_ip;
      p.src_port = conn->orig.dst_port;
      r.cost += costs_->nat_rewrite;
    }
  }
  return r;
}

Netfilter::HookResult Netfilter::run_filter(Hook h, Packet& p,
                                            std::string_view in,
                                            std::string_view out) {
  HookResult r;
  const Chain& chain = filter_[static_cast<std::size_t>(h)];
  for (std::size_t i = 0; i <= chain.rules.size(); ++i) {
    if (i == chain.standing_at && chain.standing > 0) {
      // The standing block: its first rule drops 203.0.113.0/24, any
      // other packet scans all of them and goes on.
      if (kStandingDrop.contains(p.dst_ip)) {
        r.cost += costs_->nf_rule_scan;
        r.verdict = Verdict::kDrop;
        return r;
      }
      r.cost += chain.standing * costs_->nf_rule_scan;
    }
    if (i == chain.rules.size()) break;
    const Rule& rule = chain.rules[i];
    r.cost += costs_->nf_rule_scan;
    if (!rule.match.matches(p, in, out)) continue;
    if (rule.target == TargetKind::kDrop) {
      r.verdict = Verdict::kDrop;
    }
    return r;
  }
  r.verdict = chain.policy;
  return r;
}

void Netfilter::touch(std::uint64_t id, sim::TimePoint now) {
  const ConnTable::Ref r = conns_.find_id(id);
  if (!r) return;
  r.entry->last_seen = now;
  ++r.entry->packets;
}

std::vector<std::uint64_t> Netfilter::gc(sim::TimePoint now,
                                         sim::Duration idle_timeout) {
  std::vector<std::uint64_t> reaped;
  for (std::size_t s = 0; s < conns_.slot_count(); ++s) {
    const ConnTable::Ref r = conns_.at_slot(s);
    if (!r) continue;
    if (now - r.entry->last_seen > idle_timeout) {
      reaped.push_back(r.id);
      conns_.erase(r.id);
    }
  }
  return reaped;
}

void Netfilter::add_nat_rule(Hook h, Rule rule) {
  const RuleMatch match = rule.match;
  nat_chain(h).rules.push_back(std::move(rule));
  if (on_mutation_) on_mutation_(match);
}

void Netfilter::add_filter_rule(Hook h, Rule rule) {
  const RuleMatch match = rule.match;
  filter_chain(h).rules.push_back(std::move(rule));
  if (on_mutation_) on_mutation_(match);
}

std::size_t Netfilter::remove_nat_rules(Hook h, const std::string& comment) {
  return remove_commented(nat_chain(h), comment, on_mutation_);
}

std::size_t Netfilter::remove_filter_rules(Hook h,
                                           const std::string& comment) {
  return remove_commented(filter_chain(h), comment, on_mutation_);
}

}  // namespace nestv::net

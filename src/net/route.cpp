#include "net/route.hpp"

#include <algorithm>
#include <stdexcept>

namespace nestv::net {

namespace {

std::uint64_t index_key(int prefix_len, std::uint32_t network) {
  return (std::uint64_t{static_cast<std::uint32_t>(prefix_len)} << 32) |
         network;
}

const std::vector<int> kNoLens;

}  // namespace

std::pair<std::uint32_t*, bool> PrefixIndex::insert(Ipv4Cidr prefix,
                                                    std::uint32_t ordinal) {
  const int len = prefix.prefix_len();
  const auto [it, inserted] =
      map_.emplace(index_key(len, prefix.network().value()), ordinal);
  if (inserted && std::find(lens_.begin(), lens_.end(), len) == lens_.end()) {
    lens_.insert(std::upper_bound(lens_.begin(), lens_.end(), len,
                                  [](int a, int b) { return a > b; }),
                 len);
  }
  return {&it->second, inserted};
}

const std::uint32_t* PrefixIndex::find(int len, Ipv4Address dst) const {
  const std::uint32_t mask = len == 0 ? 0 : ~std::uint32_t{0} << (32 - len);
  const auto it = map_.find(index_key(len, dst.value() & mask));
  return it == map_.end() ? nullptr : &it->second;
}

std::uint32_t PeerRouteSet::add(Ipv4Cidr subnet, Ipv4Address gateway) {
  const auto member = static_cast<std::uint32_t>(gateways_.size());
  if (!index_.insert(subnet, member).second) {
    throw std::invalid_argument("PeerRouteSet::add: subnet " +
                                subnet.to_string() +
                                " already belongs to a member");
  }
  gateways_.push_back(gateway);
  return member;
}

void RoutingTable::add(const Route& r) {
  const auto joined =
      peers_ != nullptr ? static_cast<std::uint32_t>(peers_->size()) : 0u;
  routes_.push_back(Entry{r, joined});
  index_add(routes_.size() - 1);
  ++generation_;
}

void RoutingTable::index_add(std::size_t i) {
  const auto [slot, inserted] =
      index_.insert(routes_[i].route.prefix, static_cast<std::uint32_t>(i));
  // Same prefix already present: the earlier route keeps the slot unless
  // the new one has a strictly lower metric — the linear scan's "lowest
  // metric, then insertion order" tie-break.
  if (!inserted && routes_[i].route.metric < routes_[*slot].route.metric) {
    *slot = static_cast<std::uint32_t>(i);
  }
}

void RoutingTable::use_peers(const PeerRouteSet& peers, std::uint32_t self,
                             int ifindex) {
  peers_ = &peers;
  self_ = self;
  peer_ifindex_ = ifindex;
}

bool RoutingTable::own_wins(std::uint32_t i, std::uint32_t member) const {
  // Peer routes carry metric 0; at equal metric the earlier insertion wins.
  const Entry& e = routes_[i];
  if (e.route.metric != 0) return e.route.metric < 0;
  return e.joined <= std::max(self_, member);
}

std::optional<RouteDecision> RoutingTable::lookup(Ipv4Address dst) const {
  const std::uint64_t gen = generation();
  CacheEntry& slot = cache_[dst.value() % kCacheSlots];
  if (slot.generation == gen && slot.dst == dst) return slot.decision;

  // Walk the own and peer prefix lengths together, longest first.
  const std::vector<int>& own = index_.lens();
  const std::vector<int>& peer =
      peers_ != nullptr ? peers_->index().lens() : kNoLens;
  auto o = own.begin();
  auto q = peer.begin();
  std::optional<RouteDecision> decision;
  while (o != own.end() || q != peer.end()) {
    const int len =
        q == peer.end() || (o != own.end() && *o >= *q) ? *o : *q;
    const std::uint32_t* own_hit = nullptr;
    if (o != own.end() && *o == len) own_hit = index_.find(*o++, dst);
    const std::uint32_t* peer_hit = nullptr;
    if (q != peer.end() && *q == len) {
      peer_hit = peers_->index().find(*q++, dst);
      if (peer_hit != nullptr && *peer_hit == self_) peer_hit = nullptr;
    }
    if (own_hit != nullptr &&
        (peer_hit == nullptr || own_wins(*own_hit, *peer_hit))) {
      const Route& r = routes_[*own_hit].route;
      decision = RouteDecision{r.ifindex, r.gateway ? *r.gateway : dst};
      break;
    }
    if (peer_hit != nullptr) {
      decision = RouteDecision{peer_ifindex_, peers_->gateway(*peer_hit)};
      break;
    }
  }
  slot = CacheEntry{dst, gen, decision};
  return decision;
}

}  // namespace nestv::net

#include "net/bridge.hpp"

#include <utility>

namespace nestv::net {

void Fdb::learn(MacAddress mac, int port, sim::TimePoint now) {
  table_[mac] = Entry{port, now};
}

int Fdb::lookup(MacAddress mac, sim::TimePoint now) const {
  const auto it = table_.find(mac);
  if (it == table_.end()) return -1;
  if (now - it->second.seen > ageing_) return -1;
  return it->second.port;
}

std::size_t Fdb::expire(sim::TimePoint now) {
  std::size_t evicted = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    if (now - it->second.seen > ageing_) {
      const MacAddress mac = it->first;
      it = table_.erase(it);
      ++evicted;
      if (on_evict_) on_evict_(mac);
    } else {
      ++it;
    }
  }
  return evicted;
}

std::size_t Fdb::flush() {
  std::size_t evicted = 0;
  for (auto it = table_.begin(); it != table_.end();) {
    const MacAddress mac = it->first;
    it = table_.erase(it);
    ++evicted;
    if (on_evict_) on_evict_(mac);
  }
  return evicted;
}

Bridge::Bridge(sim::Engine& engine, std::string name,
               const sim::CostModel& costs, bool guest_level)
    : Device(engine, std::move(name), costs), guest_level_(guest_level) {}

void Bridge::ingress(EthernetFrame&& frame, int port) {
  fdb_.learn(frame.src, port, engine().now());
  const sim::Duration work =
      guest_level_ ? costs().bridge_pkt_guest : costs().bridge_pkt;
  // `process` runs the callback later; capture what we need by value.
  process(work, [this, f = std::move(frame), port]() mutable {
    forward(std::move(f), port);
  });
}

void Bridge::forward(EthernetFrame&& frame, int ingress_port) {
  const int out = frame.dst.is_broadcast() || frame.dst.is_multicast()
                      ? -1
                      : fdb_.lookup(frame.dst, engine().now());
  if (out >= 0) {
    if (out != ingress_port) transmit(out, std::move(frame));
    return;  // hairpin suppressed, as in Linux default
  }
  ++floods_;
  // Flooding is a genuine duplication point: one counted copy per extra
  // egress port, the last one moved.
  int last = -1;
  for (int p = 0; p < port_count(); ++p) {
    if (p != ingress_port) last = p;
  }
  for (int p = 0; p < port_count(); ++p) {
    if (p == ingress_port) continue;
    if (p == last) {
      transmit(p, std::move(frame));
    } else {
      transmit(p, EthernetFrame(frame));
    }
  }
}

}  // namespace nestv::net

#include "net/conn_table.hpp"

namespace nestv::net {

std::size_t ConnKeyHash::operator()(const ConnKey& k) const noexcept {
  std::uint64_t h = k.src_ip.value();
  h = h * 0x9e3779b97f4a7c15ULL + k.dst_ip.value();
  h = h * 0x9e3779b97f4a7c15ULL +
      ((std::uint64_t{k.src_port} << 24) | (std::uint64_t{k.dst_port} << 8) |
       static_cast<std::uint64_t>(k.proto));
  return static_cast<std::size_t>(h ^ (h >> 29));
}

std::uint32_t ConnTable::slot_of(std::uint64_t id) const {
  const std::uint32_t s = static_cast<std::uint32_t>(id & 0xffffffffU) - 1;
  if (s >= slots_.used()) return kNoSlot;
  const Slot& sl = slots_[s];
  if (sl.next != kOccupied || sl.gen != static_cast<std::uint32_t>(id >> 32)) {
    return kNoSlot;
  }
  return s;
}

bool ConnTable::slot_has_tuple(std::uint32_t s, const ConnKey& key) const {
  const Slot& sl = slots_[s];
  if (sl.next != kOccupied) return false;
  return sl.entry.orig == key || (sl.entry.confirmed && sl.entry.reply == key);
}

ConnTable::Ref ConnTable::find(const ConnKey& key) {
  const std::uint32_t s = index_.find(
      ConnKeyHash{}(key),
      [this, &key](std::uint32_t b) { return slot_has_tuple(b, key); });
  if (s == kNoSlot) return {};
  Slot& sl = slots_[s];
  return Ref{id_of(s, sl.gen), &sl.entry};
}

const ConnEntry* ConnTable::find(const ConnKey& key) const {
  const Ref r = const_cast<ConnTable*>(this)->find(key);
  return r.entry;
}

ConnTable::Ref ConnTable::find_id(std::uint64_t id) {
  const std::uint32_t s = slot_of(id);
  if (s == kNoSlot) return {};
  return Ref{id, &slots_[s].entry};
}

bool ConnTable::alive(std::uint64_t id) const {
  return slot_of(id) != kNoSlot;
}

ConnTable::Ref ConnTable::create(const ConnEntry& entry) {
  const std::uint32_t s = slots_.alloc();
  Slot& sl = slots_[s];
  sl.entry = entry;
  sl.next = kOccupied;
  ++live_;
  index_insert(entry.orig, s);
  port_add(entry.orig);
  return Ref{id_of(s, sl.gen), &sl.entry};
}

void ConnTable::register_reply(std::uint64_t id, const ConnKey& reply) {
  const std::uint32_t s = slot_of(id);
  if (s == kNoSlot) return;
  // Already bound (reply == orig, or a re-confirmation): keep one binding,
  // re-pointing it at this connection like the map's operator[] did.
  std::uint32_t* bound = index_.find_bucket(
      ConnKeyHash{}(reply),
      [this, &reply](std::uint32_t b) { return slot_has_tuple(b, reply); });
  if (bound != nullptr) {
    *bound = s;
    return;
  }
  index_insert(reply, s);
  port_add(reply);
}

void ConnTable::erase(std::uint64_t id) {
  const std::uint32_t s = slot_of(id);
  if (s == kNoSlot) return;
  Slot& sl = slots_[s];
  // Slot identity (not key equality) guards the index erase: a tuple
  // re-bound to another connection must survive its old owner's death.
  // When a slot's two bindings share a probe window the one hit first may
  // be the other tuple's — harmless, because both are erased back to back.
  index_.erase(ConnKeyHash{}(sl.entry.orig), s);
  port_remove(sl.entry.orig);
  if (sl.entry.confirmed && !(sl.entry.reply == sl.entry.orig)) {
    index_.erase(ConnKeyHash{}(sl.entry.reply), s);
    port_remove(sl.entry.reply);
  }
  ++sl.gen;
  slots_.release(s);
  --live_;
}

ConnTable::Ref ConnTable::at_slot(std::size_t i) {
  if (i >= slots_.used()) return {};
  Slot& sl = slots_[static_cast<std::uint32_t>(i)];
  if (sl.next != kOccupied) return {};
  return Ref{id_of(static_cast<std::uint32_t>(i), sl.gen), &sl.entry};
}

void ConnTable::index_insert(const ConnKey& key, std::uint32_t s) {
  if (index_.full()) {
    // Rebuild for the live tuples at 70% load.  `s` is already marked
    // live, so its orig tuple is placed here as well as below.
    const auto each_tuple = [this](auto&& visit) {
      for (std::uint32_t i = 0; i < slots_.used(); ++i) {
        const Slot& sl = slots_[i];
        if (sl.next != kOccupied) continue;
        visit(sl.entry.orig, i);
        if (sl.entry.confirmed && !(sl.entry.reply == sl.entry.orig)) {
          visit(sl.entry.reply, i);
        }
      }
    };
    std::size_t tuples = 0;
    each_tuple([&tuples](const ConnKey&, std::uint32_t) { ++tuples; });
    index_.rebuild(tuples, [&each_tuple](auto&& place) {
      each_tuple([&place](const ConnKey& k, std::uint32_t i) {
        place(ConnKeyHash{}(k), i);
      });
    });
  }
  index_.insert(ConnKeyHash{}(key), s);
}

ConnTable::PortProbe ConnTable::port_probe(std::uint64_t pk) const {
  const std::size_t n = port_keys_.size();
  std::uint64_t h = pk * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  std::size_t tomb = ~std::size_t{0};
  for (std::size_t i = h % n;; i = i + 1 == n ? 0 : i + 1) {
    const std::uint64_t k = port_keys_[i];
    if (k == pk) return {i, true};
    if (k == ~0ULL && tomb == ~std::size_t{0}) tomb = i;
    if (k == 0) return {tomb != ~std::size_t{0} ? tomb : i, false};
  }
}

bool ConnTable::port_in_use(L4Proto proto, Ipv4Address ip,
                            std::uint16_t port) {
  if (!ports_built_) ports_build();
  if (port_keys_.empty()) return false;
  const PortProbe p = port_probe(port_key(proto, ip, port));
  return p.found && port_counts_[p.bucket] > 0;
}

void ConnTable::port_add(const ConnKey& key) {
  if (!ports_built_) return;
  if (SlotIndex::past_load(ports_live_, ports_dead_, port_keys_.size())) {
    port_grow();
  }
  const std::uint64_t pk = port_key(key.proto, key.dst_ip, key.dst_port);
  const PortProbe p = port_probe(pk);
  if (p.found) {
    ++port_counts_[p.bucket];
    return;
  }
  if (port_keys_[p.bucket] == ~0ULL) --ports_dead_;
  port_keys_[p.bucket] = pk;
  port_counts_[p.bucket] = 1;
  ++ports_live_;
}

void ConnTable::port_remove(const ConnKey& key) {
  if (!ports_built_ || port_keys_.empty()) return;
  const PortProbe p =
      port_probe(port_key(key.proto, key.dst_ip, key.dst_port));
  if (!p.found) return;
  if (port_counts_[p.bucket] > 0 && --port_counts_[p.bucket] == 0) {
    port_keys_[p.bucket] = ~0ULL;
    --ports_live_;
    ++ports_dead_;
  }
}

void ConnTable::port_grow() {
  std::vector<std::uint64_t> old_keys = std::move(port_keys_);
  std::vector<std::uint32_t> old_counts = std::move(port_counts_);
  std::size_t live = 0;
  for (const std::uint64_t k : old_keys) live += (k != 0 && k != ~0ULL);
  const std::size_t n = SlotIndex::sized_for(live);
  port_keys_.assign(n, 0);
  port_counts_.assign(n, 0);
  port_keys_.shrink_to_fit();
  port_counts_.shrink_to_fit();
  ports_live_ = 0;
  ports_dead_ = 0;
  for (std::size_t j = 0; j < old_keys.size(); ++j) {
    const std::uint64_t k = old_keys[j];
    if (k == 0 || k == ~0ULL) continue;
    // Distinct keys into a tombstone-free map: the probe ends at the
    // first empty bucket, exactly where the key lands.
    const std::size_t b = port_probe(k).bucket;
    port_keys_[b] = k;
    port_counts_[b] = old_counts[j];
    ++ports_live_;
  }
}

void ConnTable::ports_build() {
  ports_built_ = true;
  // Mirror every currently-registered tuple.  From here on port_add /
  // port_remove keep the index in sync, so the contents are identical to
  // an eagerly-maintained index at every point in time.
  for (std::uint32_t s = 0; s < slots_.used(); ++s) {
    const Slot& sl = slots_[s];
    if (sl.next != kOccupied) continue;
    port_add(sl.entry.orig);
    if (sl.entry.confirmed && !(sl.entry.reply == sl.entry.orig)) {
      port_add(sl.entry.reply);
    }
  }
}

std::size_t ConnTable::state_bytes() const {
  return slots_.bytes() + index_.bytes() +
         port_keys_.capacity() * sizeof(std::uint64_t) +
         port_counts_.capacity() * sizeof(std::uint32_t);
}

}  // namespace nestv::net

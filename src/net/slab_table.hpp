// One slab table: the compact storage every per-flow table in net/ shares
// (conntrack, the flowcache and both ONCache tables).
//
// At macro scale (hundreds of stacks, ~10^5..10^6 concurrent flows) the
// per-flow tables dominate resident memory, so none of them uses
// node-based containers.  ONCache (PAPERS.md) makes the same observation
// for overlay datapaths.  Three pieces, composed by the tables:
//
//   * SlabArena: fixed-size slots in chunked arrays (stable addresses,
//     LIFO free list) — no per-entry heap nodes;
//   * SlotIndex: one open-addressed array of untagged u32 slot refs —
//     probes verify against the slot's own key(s);
//   * LruCache: a capacity-bounded cache over both, with an intrusive
//     LRU list threaded through the slots, generation-stamped O(1) full
//     flush and predicate-targeted invalidation.
//
// ConnTable (net/conn_table.hpp) uses the arena and the index directly;
// FlowCache and OnCache's egress/ingress tables are LruCache instances.
// Every table's state_bytes() is slots allocated × slot size + index
// buckets allocated × 4, so the slot layouts are pinned by static_asserts
// next to each table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/stats.hpp"

namespace nestv::net {

/// "No slot": an empty index bucket, the end of a free list or LRU list.
inline constexpr std::uint32_t kNoSlot = 0xffffffffU;

/// Chunked slab of `Slot`s.  `Slot` must have a `std::uint32_t next`
/// member: the free-list link while the slot is free.  Telling a free
/// slot from a live one is the owning table's business (each keeps its
/// own marker), as is re-initializing a reused slot.
template <typename Slot>
class SlabArena {
 public:
  [[nodiscard]] Slot& operator[](std::uint32_t s) {
    const auto [c, off] = chunk_of(s);
    return chunks_[c][off];
  }
  [[nodiscard]] const Slot& operator[](std::uint32_t s) const {
    const auto [c, off] = chunk_of(s);
    return chunks_[c][off];
  }

  /// Pops the free list, else hands out the next never-used slot (growing
  /// by one chunk when all allocated slots are in use).
  std::uint32_t alloc() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t s = free_head_;
      free_head_ = (*this)[s].next;
      return s;
    }
    if (used_ == cap_) {
      const std::uint32_t n =
          kFirstChunkSlots
          << (static_cast<std::uint32_t>(chunks_.size()) / kChunksPerDoubling);
      chunks_.push_back(std::make_unique<Slot[]>(n));
      chunk_bases_.push_back(cap_);
      cap_ += n;
    }
    return used_++;
  }

  /// Pushes `s` onto the free list (LIFO: the next alloc() reuses it).
  void release(std::uint32_t s) {
    (*this)[s].next = free_head_;
    free_head_ = s;
  }

  /// High-water mark: slots in [0, used()) have been handed out at least
  /// once (any of them may be free now).
  [[nodiscard]] std::uint32_t used() const { return used_; }
  /// Resident bytes of the allocated chunks.
  [[nodiscard]] std::size_t bytes() const { return cap_ * sizeof(Slot); }

 private:
  /// Chunks grow in a shallow geometric sequence — four chunks per size
  /// doubling (8, 8, 8, 8, 16, 16, ... slots) — so a table holding three
  /// entries pays for 8 slots, and a table sampled at an arbitrary
  /// occupancy carries at most ~25% allocated-but-unused slack (plain
  /// doubling averages ~2x that).  Matters when a macro-scale run holds
  /// hundreds of mostly-idle stacks; busy tables still get amortized O(1)
  /// growth.
  static constexpr std::uint32_t kFirstChunkSlots = 8;
  static constexpr std::uint32_t kChunksPerDoubling = 4;

  /// Slot s lives in the chunk whose base is the largest <= s.  Chunks are
  /// few and hot slots sit in the last ones, so a reverse scan of the base
  /// table beats closed-form arithmetic here.
  [[nodiscard]] std::pair<std::size_t, std::size_t> chunk_of(
      std::uint32_t s) const {
    std::size_t c = chunk_bases_.size() - 1;
    while (chunk_bases_[c] > s) --c;
    return {c, s - chunk_bases_[c]};
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> chunk_bases_;  ///< first slot of each chunk
  std::uint32_t used_ = 0;
  std::uint32_t cap_ = 0;  ///< slots allocated across chunks
  std::uint32_t free_head_ = kNoSlot;
};

/// Open-addressed index of slot refs with linear probing over a
/// *non-power-of-two* array: rebuilt to a 70% load factor, grown when live
/// bindings + tombstones pass 85%.  Power-of-two sizing looked cheaper
/// (mask instead of modulo) but lands the array anywhere between 2x and 4x
/// the element count; at per-stack populations that rounding was a
/// double-digit share of all conntrack bytes.  Buckets are untagged (no
/// stored hash): lookups pass a predicate that checks the slot's own key,
/// and erase goes by slot identity.  The caller hashes.
class SlotIndex {
 public:
  /// `buckets` = 0 starts empty: full() holds, so the caller's first
  /// insert rebuild()s and sizes the array.
  explicit SlotIndex(std::size_t buckets = 0) {
    if (buckets > 0) buckets_.assign(buckets, kNoSlot);
  }

  /// First bucket on `hash`'s probe run whose slot satisfies `is`, or
  /// null — the caller may re-point it (a rebind).
  template <typename Is>
  [[nodiscard]] std::uint32_t* find_bucket(std::size_t hash, Is&& is) {
    if (buckets_.empty()) return nullptr;
    const std::size_t n = buckets_.size();
    for (std::size_t i = hash % n;; i = i + 1 == n ? 0 : i + 1) {
      const std::uint32_t b = buckets_[i];
      if (b == kNoSlot) return nullptr;
      if (b != kTomb && is(b)) return &buckets_[i];
    }
  }
  /// Slot of the first match on `hash`'s probe run, or kNoSlot.
  template <typename Is>
  [[nodiscard]] std::uint32_t find(std::size_t hash, Is&& is) const {
    const std::uint32_t* b =
        const_cast<SlotIndex*>(this)->find_bucket(hash, is);
    return b != nullptr ? *b : kNoSlot;
  }

  /// The sizing rule, shared with conntrack's port-occupancy table:
  /// `live` entries rebuild to 70% load (floor 32 buckets), and an array
  /// of `size` buckets is past_load once one more entry would pass 85%
  /// counting tombstones.
  [[nodiscard]] static std::size_t sized_for(std::size_t live) {
    const std::size_t n = live * 10 / 7 + 1;
    return n < 32 ? 32 : n;
  }
  [[nodiscard]] static bool past_load(std::size_t live, std::size_t dead,
                                      std::size_t size) {
    return (live + dead + 1) * 20 >= size * 17;
  }

  /// True when one more binding would pass the 85% load mark: the caller
  /// rebuild()s before insert()ing.
  [[nodiscard]] bool full() const {
    return past_load(live_, dead_, buckets_.size());
  }
  /// Re-sizes the array for `bindings` live bindings, dropping tombstones.
  /// `each(place)` must call `place(hash, slot)` once per binding to keep.
  template <typename Each>
  void rebuild(std::size_t bindings, Each&& each) {
    const std::size_t n = sized_for(bindings);
    buckets_.assign(n, kNoSlot);
    buckets_.shrink_to_fit();
    live_ = 0;
    dead_ = 0;
    each([this, n](std::size_t hash, std::uint32_t s) {
      for (std::size_t i = hash % n;; i = i + 1 == n ? 0 : i + 1) {
        if (buckets_[i] == kNoSlot) {
          buckets_[i] = s;
          ++live_;
          return;
        }
      }
    });
  }

  /// Binds `s` at the first empty or tombstoned bucket on `hash`'s probe
  /// run.  The array must not be full() (see rebuild).
  void insert(std::size_t hash, std::uint32_t s) {
    const std::size_t n = buckets_.size();
    for (std::size_t i = hash % n;; i = i + 1 == n ? 0 : i + 1) {
      std::uint32_t& b = buckets_[i];
      if (b == kNoSlot || b == kTomb) {
        if (b == kTomb) --dead_;
        b = s;
        ++live_;
        return;
      }
    }
  }
  /// Tombstones the first bucket on `hash`'s probe run bound to `s`.
  void erase(std::size_t hash, std::uint32_t s) {
    if (buckets_.empty()) return;
    const std::size_t n = buckets_.size();
    for (std::size_t i = hash % n;; i = i + 1 == n ? 0 : i + 1) {
      std::uint32_t& b = buckets_[i];
      if (b == kNoSlot) return;
      if (b == s) {
        b = kTomb;
        --live_;
        ++dead_;
        return;
      }
    }
  }

  /// Resident bytes of the bucket array.
  [[nodiscard]] std::size_t bytes() const {
    return buckets_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kTomb = 0xfffffffeU;

  std::vector<std::uint32_t> buckets_;
  std::size_t live_ = 0;  ///< bound buckets
  std::size_t dead_ = 0;  ///< tombstones
};

/// Capacity-bounded LRU cache of `Path`s keyed by `Key` over one arena and
/// one index.  `Path` must carry a `std::uint16_t generation` field (the
/// cache stamps it at insert).  Not thread-safe (each simulated stack owns
/// its caches).
///
/// Coherence: entries stamped with an older cache generation are stale —
/// invalidate_all() bumps the generation (O(1) full flush) and a stale
/// entry is reclaimed as a miss when next looked up.  invalidate_if()
/// flushes exactly the entries a predicate selects.
template <typename Key, typename Path, typename Hash>
class LruCache {
  struct Slot;

 public:
  /// Bytes per cached entry (the unit of state_bytes()).
  static constexpr std::size_t slot_bytes() { return sizeof(Slot); }

  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  /// Looks up `key`, refreshing LRU order.  Entries stamped with an old
  /// cache generation are erased and reported as misses.
  [[nodiscard]] const Path* lookup(const Key& key) {
    const std::uint32_t s = find_slot(key);
    if (s == kNoSlot) {
      rate_.miss();
      return nullptr;
    }
    if (slots_[s].path.generation != current_stamp()) {
      erase_slot(s);  // stamped before the last invalidate_all()
      rate_.miss();
      return nullptr;
    }
    lru_unlink(s);
    lru_push_front(s);
    rate_.hit();
    return &slots_[s].path;
  }

  /// Peek without touching LRU order or hit/miss counters (tests, stats).
  [[nodiscard]] const Path* peek(const Key& key) const {
    const std::uint32_t s = find_slot(key);
    if (s == kNoSlot || slots_[s].path.generation != current_stamp()) {
      return nullptr;
    }
    return &slots_[s].path;
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return peek(key) != nullptr;
  }

  /// Inserts (or replaces) the entry, stamping the current generation and
  /// evicting the least-recently-used entry when full.
  void insert(const Key& key, Path path) {
    path.generation = current_stamp();
    const std::uint32_t existing = find_slot(key);
    if (existing != kNoSlot) {
      slots_[existing].path = std::move(path);
      lru_unlink(existing);
      lru_push_front(existing);
      return;
    }
    if (size_ >= capacity_ && lru_tail_ != kNoSlot) {
      erase_slot(lru_tail_);
      ++evictions_;
    }
    const std::uint32_t s = slots_.alloc();
    Slot& sl = slots_[s];
    sl.key = key;
    sl.path = std::move(path);
    if (index_.full()) {
      // The new slot is still marked free, so the rebuild skips it.
      index_.rebuild(size_, [this](auto&& place) {
        for (std::uint32_t i = 0; i < slots_.used(); ++i) {
          if (slots_[i].occupied()) place(Hash{}(slots_[i].key), i);
        }
      });
    }
    index_.insert(Hash{}(key), s);
    lru_push_front(s);
    ++size_;
  }

  void invalidate(const Key& key) {
    const std::uint32_t s = find_slot(key);
    if (s == kNoSlot) return;
    erase_slot(s);
    ++invalidations_;
  }

  /// Flushes entries for which `pred(key, path)` holds; returns the count.
  /// Visits most-recent-first, the order of the list-based cache this
  /// replaced (a predicate may observe entries; the order is part of the
  /// contract).
  template <typename Pred>
  std::size_t invalidate_if(Pred&& pred) {
    std::size_t flushed = 0;
    for (std::uint32_t s = lru_head_; s != kNoSlot;) {
      const Slot& sl = slots_[s];
      const std::uint32_t next = sl.next;
      if (pred(sl.key, sl.path)) {
        erase_slot(s);
        ++flushed;
      }
      s = next;
    }
    invalidations_ += flushed;
    return flushed;
  }

  /// O(1) full flush via generation bump (stale entries linger until
  /// touched).
  void invalidate_all() {
    ++generation_;
    invalidations_ += size_;
  }

  // ---- statistics -------------------------------------------------------
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] const sim::HitRateCounter& hit_rate() const { return rate_; }
  [[nodiscard]] std::uint64_t hits() const { return rate_.hits(); }
  [[nodiscard]] std::uint64_t misses() const { return rate_.misses(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t invalidations() const { return invalidations_; }
  /// Resident bytes: slab chunks + bucket array.
  [[nodiscard]] std::size_t state_bytes() const {
    return slots_.bytes() + index_.bytes();
  }

 private:
  /// Buckets start at 32 and are rebuilt with occupancy rather than sized
  /// for capacity up front: a macro-scale run holds hundreds of stacks
  /// whose caches mostly sit far below capacity.
  static constexpr std::size_t kFirstBuckets = 32;
  /// Marks a free slot (in `prev`; a live slot's prev is a slot or
  /// kNoSlot, never this).
  static constexpr std::uint32_t kFreeMark = 0xfffffffeU;

  /// The LRU links double as slot lifecycle state: prev is kFreeMark
  /// while the slot is free, and a free slot's next is the free-list link
  /// — no dedicated occupancy field.
  struct Slot {
    Path path;
    Key key;
    std::uint32_t prev = kFreeMark;
    std::uint32_t next = kNoSlot;

    [[nodiscard]] bool occupied() const { return prev != kFreeMark; }
  };

  [[nodiscard]] std::uint16_t current_stamp() const {
    return static_cast<std::uint16_t>(generation_);
  }
  [[nodiscard]] std::uint32_t find_slot(const Key& key) const {
    return index_.find(Hash{}(key), [this, &key](std::uint32_t s) {
      return slots_[s].key == key;
    });
  }

  void lru_unlink(std::uint32_t s) {
    Slot& sl = slots_[s];
    if (sl.prev != kNoSlot) {
      slots_[sl.prev].next = sl.next;
    } else {
      lru_head_ = sl.next;
    }
    if (sl.next != kNoSlot) {
      slots_[sl.next].prev = sl.prev;
    } else {
      lru_tail_ = sl.prev;
    }
    sl.prev = sl.next = kNoSlot;
  }

  void lru_push_front(std::uint32_t s) {
    Slot& sl = slots_[s];
    sl.prev = kNoSlot;
    sl.next = lru_head_;
    if (lru_head_ != kNoSlot) slots_[lru_head_].prev = s;
    lru_head_ = s;
    if (lru_tail_ == kNoSlot) lru_tail_ = s;
  }

  void erase_slot(std::uint32_t s) {
    index_.erase(Hash{}(slots_[s].key), s);
    lru_unlink(s);
    slots_[s].prev = kFreeMark;
    slots_.release(s);
    --size_;
  }

  std::size_t capacity_;
  SlabArena<Slot> slots_;
  SlotIndex index_{kFirstBuckets};
  std::uint32_t lru_head_ = kNoSlot;  ///< most recently used
  std::uint32_t lru_tail_ = kNoSlot;  ///< least recently used
  std::size_t size_ = 0;
  std::uint64_t generation_ = 1;
  sim::HitRateCounter rate_;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace nestv::net

// Compact connection-tracking store: one open-addressed tuple index over
// slab-allocated entries (the shared storage in net/slab_table.hpp).
//
// The original conntrack kept two node-based maps — tuple -> id and
// id -> entry — so every tracked flow paid three heap nodes (orig tuple,
// reply tuple, entry) plus two bucket arrays, and the SNAT port allocator
// scanned the whole tuple map per candidate.  This store keeps the exact
// external semantics (ids are opaque, both tuples of a confirmed
// connection resolve to one entry, gc reaps by idle time) with:
//
//   * a SlabArena of 72-byte entry slots — no per-entry heap nodes;
//   * one SlotIndex covering both tuple directions — no node-based maps;
//   * ids encoding (slot, generation), so id lookup (the packet fast path
//     and the flow-cache liveness check) is O(1) with no hashing;
//   * a flat (proto, ip, port) occupancy index mirroring the registered
//     tuples, so NAT port allocation is O(1) per candidate instead of a
//     full-table scan.
//
// state_bytes() reports the resident footprint so benches can gate
// bytes-of-state-per-flow as a first-class metric.
#pragma once

#include <cstdint>
#include <vector>

#include "net/address.hpp"
#include "net/packet.hpp"
#include "net/slab_table.hpp"
#include "sim/time.hpp"

namespace nestv::net {

/// 5-tuple key for connection tracking (direction-sensitive).
struct ConnKey {
  Ipv4Address src_ip;
  Ipv4Address dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  L4Proto proto = L4Proto::kUdp;

  friend bool operator==(const ConnKey&, const ConnKey&) = default;
};

struct ConnKeyHash {
  std::size_t operator()(const ConnKey& k) const noexcept;
};

/// A tracked connection with its NAT bindings.  Field order packs the
/// NAT scalars and flags into one 16-byte block (64 bytes total; this
/// struct is the unit of the conntrack slab, so padding here is paid per
/// tracked flow on every stack).
struct ConnEntry {
  ConnKey orig;        ///< initiator's original tuple
  ConnKey reply;       ///< tuple reply packets carry (post-NAT view)
  Ipv4Address snat_ip;
  Ipv4Address dnat_ip;
  std::uint16_t snat_port = 0;
  std::uint16_t dnat_port = 0;
  bool snat = false;
  bool dnat = false;
  /// A connection is confirmed once its first packet completed POSTROUTING
  /// and the reply tuple is registered (mirrors nf_conntrack_confirm).
  bool confirmed = false;
  sim::TimePoint last_seen = 0;
  std::uint64_t packets = 0;
};

class ConnTable {
 public:
  /// A live connection: the opaque id plus the stable entry pointer.
  /// Entry pointers stay valid across inserts (slab storage) until the
  /// connection is erased.
  struct Ref {
    std::uint64_t id = 0;
    ConnEntry* entry = nullptr;
    explicit operator bool() const { return entry != nullptr; }
  };

  ConnTable() = default;

  /// Looks up a connection by either of its registered tuples.
  [[nodiscard]] Ref find(const ConnKey& key);
  [[nodiscard]] const ConnEntry* find(const ConnKey& key) const;

  /// O(1) id lookup; null Ref if the id was reaped (slot generation moved).
  [[nodiscard]] Ref find_id(std::uint64_t id);
  [[nodiscard]] bool alive(std::uint64_t id) const;

  /// Inserts a new connection, registering entry.orig in the index.
  /// Returns the new connection's Ref.
  Ref create(const ConnEntry& entry);

  /// Registers the (confirmed) reply tuple of `id`.  If the tuple is
  /// already bound to another connection it is re-bound, matching the
  /// overwrite semantics of the map-based implementation.
  void register_reply(std::uint64_t id, const ConnKey& reply);

  /// Erases the connection and both its tuples; no-op on a dead id.
  void erase(std::uint64_t id);

  [[nodiscard]] std::size_t size() const { return live_; }

  /// True if any registered tuple has (proto, dst_ip, dst_port) equal to
  /// the arguments — the NAT port-allocation clash test.  The occupancy
  /// index behind it is built lazily on the first call (and mirrored on
  /// every insert/erase afterwards): only stacks that actually allocate
  /// NAT ports ever pay for it, which at macro scale is a minority.
  [[nodiscard]] bool port_in_use(L4Proto proto, Ipv4Address ip,
                                 std::uint16_t port);

  /// Slot-order iteration bound (slots in [0, slot_count()) may be free).
  [[nodiscard]] std::size_t slot_count() const { return slots_.used(); }
  /// Ref for slot `i`, or null when the slot is free.
  [[nodiscard]] Ref at_slot(std::size_t i);

  /// Resident bytes: slab chunks + tuple index + port-use index.
  [[nodiscard]] std::size_t state_bytes() const;

 private:
  static constexpr std::uint32_t kOccupied = 0xfffffffeU;

  struct Slot {
    ConnEntry entry;
    std::uint32_t gen = 0;
    /// kOccupied while live; otherwise the free-list link.
    std::uint32_t next = kNoSlot;
  };
  static_assert(sizeof(Slot) == 72, "conntrack state_bytes() gates pin this");

  [[nodiscard]] static std::uint64_t id_of(std::uint32_t s,
                                           std::uint32_t gen) {
    return (std::uint64_t{gen} << 32) | (s + 1);
  }
  /// Slot of `id`, or kNoSlot when the id is stale.
  [[nodiscard]] std::uint32_t slot_of(std::uint64_t id) const;
  [[nodiscard]] bool slot_has_tuple(std::uint32_t s,
                                    const ConnKey& key) const;

  void index_insert(const ConnKey& key, std::uint32_t s);

  [[nodiscard]] static std::uint64_t port_key(L4Proto proto, Ipv4Address ip,
                                              std::uint16_t port) {
    return (std::uint64_t{ip.value()} << 24) |
           (std::uint64_t{port} << 8) | static_cast<std::uint64_t>(proto) |
           (1ULL << 60);  // keep keys nonzero
  }
  /// Linear probe for packed key `pk` from its hash bucket.  Returns the
  /// bucket holding `pk`, or — when absent — the bucket an insert takes:
  /// the first tombstone passed, else the empty bucket that ended the
  /// probe.  Requires a non-empty map.
  struct PortProbe {
    std::size_t bucket;
    bool found;
  };
  [[nodiscard]] PortProbe port_probe(std::uint64_t pk) const;
  void port_add(const ConnKey& key);
  void port_remove(const ConnKey& key);
  void port_grow();
  void ports_build();

  SlabArena<Slot> slots_;
  std::size_t live_ = 0;
  /// Tuple index, empty until the first create().  A slot's two bindings
  /// are only ever erased together, so erase by (key, slot) is unambiguous.
  SlotIndex index_;

  /// Port-occupancy map, split into parallel arrays (12 bytes per bucket
  /// instead of a padded 16-byte struct): port_keys_[i] holds the packed
  /// (proto, ip, port) key (0 = empty, ~0ULL = tombstone), port_counts_[i]
  /// how many registered tuples carry it.
  std::vector<std::uint64_t> port_keys_;
  std::vector<std::uint32_t> port_counts_;
  std::size_t ports_live_ = 0;
  std::size_t ports_dead_ = 0;
  bool ports_built_ = false;  ///< index materialized (first port_in_use)
};

}  // namespace nestv::net

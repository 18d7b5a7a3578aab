#include "net/device.hpp"

#include <atomic>
#include <cassert>
#include <utility>

#include "sim/sharded_conductor.hpp"
#include "sim/test_hooks.hpp"

namespace nestv::net {

Device::Device(sim::Engine& engine, std::string name,
               const sim::CostModel& costs)
    : engine_(&engine), name_(std::move(name)), costs_(&costs) {}

int Device::add_port() {
  ports_.push_back(PortSlot{});
  return static_cast<int>(ports_.size()) - 1;
}

void Device::connect(Device& a, int pa, Device& b, int pb) {
  assert(pa >= 0 && pa < a.port_count());
  assert(pb >= 0 && pb < b.port_count());
  assert(a.ports_[static_cast<std::size_t>(pa)].peer == nullptr);
  assert(b.ports_[static_cast<std::size_t>(pb)].peer == nullptr);
  a.ports_[static_cast<std::size_t>(pa)] = PortSlot{&b, pb};
  b.ports_[static_cast<std::size_t>(pb)] = PortSlot{&a, pa};
}

void Device::connect_wire(sim::ShardedConductor* conductor, Device& a,
                          int pa, Device& b, int pb,
                          sim::Duration wire_latency) {
  assert(wire_latency > 0);
  connect(a, pa, b, pb);
  PortSlot& sa = a.ports_[static_cast<std::size_t>(pa)];
  PortSlot& sb = b.ports_[static_cast<std::size_t>(pb)];
  sa.wire_latency = wire_latency;
  sb.wire_latency = wire_latency;
  if (conductor == nullptr) {
    // No equivalence contract without a conductor; ranks only need to be
    // unique within the process for a total same-instant order.
    static std::atomic<std::uint64_t> plain_ranks{0};
    sa.wire_rank = plain_ranks.fetch_add(1, std::memory_order_relaxed);
    sb.wire_rank = plain_ranks.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Ranks come from the conductor in setup order: two runs that build the
  // same world assign the same rank to the same link direction, which is
  // what lets the shards=1 and shards=N runs compare bit-for-bit.
  sa.wire_rank = conductor->alloc_wire_rank();
  sb.wire_rank = conductor->alloc_wire_rank();
  const int shard_a = conductor->shard_of(*a.engine_);
  const int shard_b = conductor->shard_of(*b.engine_);
  assert(shard_a >= 0 && shard_b >= 0 &&
         "connect_wire: both devices must live on conductor shards");
  if (shard_a == shard_b) return;  // same shard: plain scheduling suffices
  assert(wire_latency >= conductor->lookahead() &&
         "cross-shard wire shorter than the conductor's lookahead");
  // Feed the conductor's per-pair lookahead matrix: this wire bounds how
  // soon either shard can influence the other.
  conductor->note_cross_link(shard_a, shard_b, wire_latency);
  conductor->note_cross_link(shard_b, shard_a, wire_latency);
  sa.fabric = conductor;
  sa.self_shard = shard_a;
  sa.peer_shard = shard_b;
  sb.fabric = conductor;
  sb.self_shard = shard_b;
  sb.peer_shard = shard_a;
}

bool Device::process(sim::Duration work, sim::InlineTask&& then) {
  if (cpu_ == nullptr) {
    if (work == 0) {
      then();
    } else {
      engine_->schedule_in(work, std::move(then));
    }
    return true;
  }
  if (max_backlog_ != 0 && cpu_->busy_until() > engine_->now() &&
      cpu_->busy_until() - engine_->now() > max_backlog_) {
    ++dropped_;
    return false;
  }
  cpu_->submit_as(cpu_category_, work, std::move(then));
  return true;
}

void Device::transmit(int port, EthernetFrame&& frame) {
  assert(port >= 0 && port < port_count());
  PortSlot& slot = ports_[static_cast<std::size_t>(port)];
  if (slot.peer == nullptr) {
    ++dropped_;  // unconnected port: frame goes nowhere
    return;
  }
  ++forwarded_;
  if (slot.wire_latency != 0) {
    // Fabric wire: fixed latency, one delivery event per frame whether or
    // not the peer is on another shard — identical timing on both paths is
    // what makes the shard count invisible in the results.
    Device* const peer = slot.peer;
    const int peer_port = slot.peer_port;
    auto deliver = [peer, peer_port, f = std::move(frame)]() mutable {
      peer->ingress(std::move(f), peer_port);
    };
    const sim::TimePoint when = engine_->now() + slot.wire_latency;
    // The delivery key identifies the frame, not the execution mode:
    // same-instant arrivals at the peer order by (link rank, link seq)
    // whether they came through a mailbox or the local queue.
    assert(slot.wire_rank < (std::uint64_t{1} << 23) &&
           slot.wire_seq < (std::uint64_t{1} << 40));
    const std::uint64_t key = (slot.wire_rank << 40) | slot.wire_seq++;
    if (sim::test_hooks::unkeyed_wire_delivery) {
      // Injected ordering bug (fuzz harness self-test): deliver without
      // the key, so same-instant arrivals at the peer fire in execution-
      // mode-dependent order.
      if (slot.fabric != nullptr) {
        slot.fabric->post(slot.self_shard, slot.peer_shard, when,
                          std::move(deliver));
      } else {
        engine_->schedule_at(when, std::move(deliver));
      }
      return;
    }
    if (slot.fabric != nullptr) {
      slot.fabric->post_keyed(slot.self_shard, slot.peer_shard, when, key,
                              std::move(deliver));
    } else {
      engine_->schedule_at_keyed(when, key, std::move(deliver));
    }
    return;
  }
  Device* peer = slot.peer;
  const int peer_port = slot.peer_port;
  engine_->schedule_in(
      costs_->hop_latency,
      [peer, peer_port, f = std::move(frame)]() mutable {
        peer->ingress(std::move(f), peer_port);
      });
}

}  // namespace nestv::net

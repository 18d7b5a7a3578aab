// Serialized execution resources (CPU cores, worker threads).
//
// A SerialResource executes submitted work items one at a time in FIFO
// order.  When offered load exceeds its capacity, completions back up and
// throughput saturates — this is exactly the mechanism behind the paper's
// fig 4 observation that the NAT datapath "scales more slowly and even
// stagnates between 1024B and 1280B": the guest softirq core serving
// netfilter hooks runs out of cycles, while the BrFusion/NoCont bottleneck
// (the vhost worker) still has headroom.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace nestv::sim {

/// A single-threaded executor (one CPU core or one kernel worker thread).
/// Work is modeled by duration only; the completion callback fires when the
/// work finishes.  CPU time is charged to the bound accounts as it runs.
class SerialResource {
 public:
  SerialResource(Engine& engine, std::string name)
      : engine_(&engine), name_(std::move(name)) {}

  SerialResource(const SerialResource&) = delete;
  SerialResource& operator=(const SerialResource&) = delete;

  /// Charges `account` with `category` for each unit of work executed here.
  /// Several sinks may be bound: e.g. a vCPU charges both the guest-side
  /// account (usr/sys/soft) and the host's "guest" time (fig 14's host view).
  void bind(CpuAccount& account, CpuCategory category) {
    sinks_.push_back(Sink{&account, category});
  }

  /// Enqueues `work` nanoseconds of execution; runs `done` at completion.
  /// Work submitted while busy queues behind in-flight work (FIFO).
  /// Inline (with submit_as and charge): every simulated packet crosses
  /// several resources, so these run hundreds of thousands of times per
  /// wall second.
  void submit(Duration work, InlineTask&& done) {
    submit_as(sinks_.empty() ? CpuCategory::kSys : sinks_.front().category,
              work, std::move(done));
  }

  /// Same, but the charge category is overridden for this item only
  /// (e.g. softirq work executing on a general-purpose vCPU).  Every
  /// simulated CPU charge passes through here: it advances busy_until_,
  /// accrues busy_time_, charges the bound sinks and schedules `done` at
  /// the work's end.
  void submit_as(CpuCategory category, Duration work, InlineTask&& done) {
    const TimePoint start =
        busy_until_ > engine_->now() ? busy_until_ : engine_->now();
    busy_until_ = start + work;
    busy_time_ += work;
    ++items_;
    charge(category, work);
    engine_->schedule_at(busy_until_, std::move(done));
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] TimePoint busy_until() const { return busy_until_; }
  [[nodiscard]] Duration busy_time() const { return busy_time_; }
  [[nodiscard]] std::uint64_t items_executed() const { return items_; }

  /// Utilization over a wall-clock interval, in [0, 1+].
  [[nodiscard]] double utilization(Duration wall) const {
    return wall == 0 ? 0.0
                     : static_cast<double>(busy_time_) /
                           static_cast<double>(wall);
  }

 private:
  struct Sink {
    CpuAccount* account;
    CpuCategory category;
  };

  void charge(CpuCategory category, Duration work) {
    for (const Sink& s : sinks_) {
      // The bound category is the default; a per-item override replaces it
      // for guest-side sinks but the host "guest" sink keeps its category
      // (host time lent to a VM is guest time regardless of what the guest
      // was doing with it).
      const CpuCategory c =
          s.category == CpuCategory::kGuest ? CpuCategory::kGuest : category;
      s.account->charge(c, work);
    }
  }

  Engine* engine_;
  std::string name_;
  std::vector<Sink> sinks_;
  TimePoint busy_until_ = 0;
  Duration busy_time_ = 0;
  std::uint64_t items_ = 0;
};

}  // namespace nestv::sim

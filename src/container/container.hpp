// Container lifecycle.
#pragma once

#include <cstdint>
#include <string>

#include "sim/resource.hpp"
#include "sim/time.hpp"

namespace nestv::container {

class Pod;

enum class ContainerState : std::uint8_t {
  kCreated,
  kStarting,
  kRunning,
  kStopped,
};

class Container {
 public:
  explicit Container(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] ContainerState state() const { return state_; }

  /// The guest core running this container's process.
  [[nodiscard]] sim::SerialResource* app_core() const { return app_core_; }
  void set_app_core(sim::SerialResource* core) { app_core_ = core; }

  void mark_starting(sim::TimePoint t) {
    state_ = ContainerState::kStarting;
    started_at_ = t;
  }
  void mark_running(sim::TimePoint t) {
    state_ = ContainerState::kRunning;
    running_at_ = t;
  }
  void mark_stopped() { state_ = ContainerState::kStopped; }

  /// Fig 8's metric: order-to-first-TCP-message duration.
  [[nodiscard]] sim::Duration boot_duration() const {
    return running_at_ >= started_at_ ? running_at_ - started_at_ : 0;
  }

 private:
  std::string name_;
  ContainerState state_ = ContainerState::kCreated;
  sim::SerialResource* app_core_ = nullptr;
  sim::TimePoint started_at_ = 0;
  sim::TimePoint running_at_ = 0;
};

}  // namespace nestv::container

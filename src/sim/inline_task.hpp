// Small-buffer-optimized, move-only callable for the event hot path.
//
// Every scheduled event used to carry a std::function<void()>; libstdc++'s
// inline buffer is 16 bytes and additionally requires trivially-copyable
// functors, so any lambda that moves a Packet (or captures a shared_ptr)
// heap-allocated its closure.  InlineTask stores closures up to
// kInlineBytes in place — sized for the largest datapath lambda, a moved
// EthernetFrame plus a few words of context — and only falls back to the
// heap for oversized or throwing-move functors.
// Fallbacks are counted (per thread, so parallel bench sweeps don't race)
// and reported by bench/abl_engine_perf as `tasks_heap`; the steady-state
// datapath keeps that counter at zero.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace nestv::sim {

class InlineTask {
 public:
  /// Inline closure capacity.  The largest steady-state closure is the
  /// ONCache egress fast path's in oncache::CachedBridge::ingress: `this`,
  /// a copied EgressPath (48 bytes) and a moved EthernetFrame (112) — 168
  /// bytes.  FullStack::ip_rx_one's forwarding continuation (a Packet of
  /// 80 bytes, two ifindexes and an optional FlowKey) takes 120.  192
  /// leaves headroom without bloating the event-queue slots.
  static constexpr std::size_t kInlineBytes = 192;

  InlineTask() noexcept = default;
  InlineTask(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineTask> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  InlineTask(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      *reinterpret_cast<Fn**>(static_cast<void*>(storage_)) =
          new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::ops;
      ++heap_fallbacks_;
    }
  }

  InlineTask(InlineTask&& other) noexcept { steal(other); }

  InlineTask& operator=(InlineTask&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineTask(const InlineTask&) = delete;
  InlineTask& operator=(const InlineTask&) = delete;

  ~InlineTask() { reset(); }

  /// Destroys the held closure (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Invokes the closure.  Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

  /// Closures that did not fit inline on this thread (bench metric).
  [[nodiscard]] static std::uint64_t heap_fallbacks() noexcept {
    return heap_fallbacks_;
  }
  static void reset_heap_fallbacks() noexcept { heap_fallbacks_ = 0; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-constructs into `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* get(void* s) noexcept {
      return std::launder(reinterpret_cast<Fn*>(s));
    }
    static void invoke(void* s) { (*get(s))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn(std::move(*get(src)));
      get(src)->~Fn();
    }
    static void destroy(void* s) noexcept { get(s)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* get(void* s) noexcept {
      return *std::launder(reinterpret_cast<Fn**>(s));
    }
    static void invoke(void* s) { (*get(s))(); }
    static void relocate(void* dst, void* src) noexcept {
      // Relocating a heap closure just moves the owning pointer.
      *reinterpret_cast<Fn**>(dst) = get(src);
    }
    static void destroy(void* s) noexcept { delete get(s); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  void steal(InlineTask& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;

  inline static thread_local std::uint64_t heap_fallbacks_ = 0;
};

namespace detail {
/// Spill counter shared by every InlineHandler instantiation.  Separate
/// from InlineTask::heap_fallbacks_ so the bench gate on `tasks_heap`
/// keeps its exact meaning (event-queue closures only).
struct HandlerSpillCount {
  inline static thread_local std::uint64_t value = 0;
};
}  // namespace detail

/// InlineTask generalized to callables taking arguments: same SBO storage,
/// Ops vtable and move-only semantics, but invoke() forwards `Args...`.
/// Used for socket callbacks (TcpSocket's on_receive / on_connected /
/// on_closed / on_writable) so per-delivery dispatch does not bounce
/// through std::function.
template <typename... Args>
class InlineHandler {
 public:
  static constexpr std::size_t kInlineBytes = InlineTask::kInlineBytes;

  InlineHandler() noexcept = default;
  InlineHandler(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineHandler> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&,
                                      Args...>>>
  InlineHandler(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      *reinterpret_cast<Fn**>(static_cast<void*>(storage_)) =
          new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::ops;
      ++detail::HandlerSpillCount::value;
    }
  }

  InlineHandler(InlineHandler&& other) noexcept { steal(other); }

  InlineHandler& operator=(InlineHandler&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineHandler(const InlineHandler&) = delete;
  InlineHandler& operator=(const InlineHandler&) = delete;

  ~InlineHandler() { reset(); }

  /// Destroys the held closure (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return ops_ != nullptr;
  }

  /// Invokes the closure.  Precondition: non-empty.
  void operator()(Args... args) {
    ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    void (*invoke)(void* storage, Args&&... args);
    /// Move-constructs into `dst` from `src`, then destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  struct InlineOps {
    static Fn* get(void* s) noexcept {
      return std::launder(reinterpret_cast<Fn*>(s));
    }
    static void invoke(void* s, Args&&... args) {
      (*get(s))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) Fn(std::move(*get(src)));
      get(src)->~Fn();
    }
    static void destroy(void* s) noexcept { get(s)->~Fn(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* get(void* s) noexcept {
      return *std::launder(reinterpret_cast<Fn**>(s));
    }
    static void invoke(void* s, Args&&... args) {
      (*get(s))(std::forward<Args>(args)...);
    }
    static void relocate(void* dst, void* src) noexcept {
      // Relocating a heap closure just moves the owning pointer.
      *reinterpret_cast<Fn**>(dst) = get(src);
    }
    static void destroy(void* s) noexcept { delete get(s); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  void steal(InlineHandler& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Handler closures that did not fit inline on this thread (bench metric,
/// counted separately from InlineTask::heap_fallbacks).
[[nodiscard]] inline std::uint64_t handler_heap_fallbacks() noexcept {
  return detail::HandlerSpillCount::value;
}
inline void reset_handler_heap_fallbacks() noexcept {
  detail::HandlerSpillCount::value = 0;
}

}  // namespace nestv::sim

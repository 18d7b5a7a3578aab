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
//
// One class template, InlineCallable<Tag, Args...>, holds the storage;
// InlineTask (event-queue closures) and InlineHandler<Args...> (socket
// callbacks) are its two instantiation families, each with its own spill
// counter selected by the tag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace nestv::sim {

namespace detail {
/// Spill counters, one per tag: every InlineHandler instantiation shares
/// one, separate from InlineTask's so the bench gate on `tasks_heap` keeps
/// its exact meaning (event-queue closures only).
struct TaskSpills {};
struct HandlerSpills {};
template <typename Tag>
inline thread_local std::uint64_t heap_spills = 0;
}  // namespace detail

/// Small-buffer, move-only `void(Args...)` callable; `Tag` picks the spill
/// counter.
template <typename Tag, typename... Args>
class InlineCallable {
 public:
  /// Inline closure capacity.  The largest steady-state closure is the
  /// ONCache egress fast path's in oncache::CachedBridge::ingress: `this`,
  /// a copied EgressPath (48 bytes) and a moved EthernetFrame (112) — 168
  /// bytes.  FullStack::ip_rx_one's forwarding continuation (a Packet of
  /// 80 bytes, two ifindexes and an optional FlowKey) takes 120.  192
  /// leaves headroom without bloating the event-queue slots.
  static constexpr std::size_t kInlineBytes = 192;

  InlineCallable() noexcept = default;
  InlineCallable(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineCallable> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&,
                                      Args...>>>
  InlineCallable(F&& f) {  // NOLINT(google-explicit-constructor)
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
      ++detail::heap_spills<Tag>;
    }
  }

  InlineCallable(InlineCallable&& other) noexcept { steal(other); }

  InlineCallable& operator=(InlineCallable&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }

  InlineCallable(const InlineCallable&) = delete;
  InlineCallable& operator=(const InlineCallable&) = delete;

  ~InlineCallable() { reset(); }

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

  /// Closures of this tag that did not fit inline on this thread (bench
  /// metric).
  [[nodiscard]] static std::uint64_t heap_fallbacks() noexcept {
    return detail::heap_spills<Tag>;
  }
  static void reset_heap_fallbacks() noexcept {
    detail::heap_spills<Tag> = 0;
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

  void steal(InlineCallable& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// An event-queue closure: `void()`.
using InlineTask = InlineCallable<detail::TaskSpills>;
static_assert(sizeof(InlineTask) == 208,
              "event-queue slots are sized for a 208-byte InlineTask");

/// A socket callback taking `Args...` (TcpSocket's on_receive /
/// on_connected / on_closed / on_writable), so per-delivery dispatch does
/// not bounce through std::function.
template <typename... Args>
using InlineHandler = InlineCallable<detail::HandlerSpills, Args...>;

/// Handler closures that did not fit inline on this thread (bench metric,
/// counted separately from InlineTask::heap_fallbacks).
[[nodiscard]] inline std::uint64_t handler_heap_fallbacks() noexcept {
  return InlineHandler<>::heap_fallbacks();
}
inline void reset_handler_heap_fallbacks() noexcept {
  InlineHandler<>::reset_heap_fallbacks();
}

}  // namespace nestv::sim

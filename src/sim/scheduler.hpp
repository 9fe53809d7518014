// Discrete-event simulation core: a virtual clock plus a time-ordered event
// queue. Deliberately minimal — entities schedule closures; ties are broken
// by insertion order so runs are fully deterministic.
//
// This general queue drives PacketLevelTestbed (routers and cross traffic)
// and the gateway and source unit tests. sim::Testbed, which produces every
// PIAT the experiments consume, does not use it: it runs its own three-slot
// loop with the same (time, sequence) order (see testbed.hpp).
//
// Performance design:
//  * Callbacks are `InlineCallback`s — a move-only callable with 64 bytes of
//    inline storage. Every closure in the simulator fits, so scheduling an
//    event never heap-allocates (a boxed fallback keeps oversized callables
//    correct rather than fast).
//  * Callback storage lives in a slab pool recycled through a free list; the
//    binary heap itself orders 24-byte POD keys, so sift operations move no
//    closures at all.
//  * Periodic entities (gateway timers, traffic sources) can bypass closures
//    entirely via the `TimerTask` fast path: a second binary heap of
//    {time, seq, TimerTask*} entries dispatched through one virtual call.
//    Both heaps share a single sequence counter, so FIFO tie-breaking among
//    simultaneous events holds across the two paths exactly as it did with
//    one queue.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace linkpad::sim {

/// Move-only callable with small-buffer storage; the event queue's closure
/// type. Any callable up to `kInlineBytes` that is nothrow-move-constructible
/// is stored inline; larger ones fall back to one heap box.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  InlineCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into `dst` from `src`, then destroy `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename D>
  static constexpr bool fits_inline_v =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      static constexpr Ops kOps = {
          [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
          [](void* dst, void* src) noexcept {
            D* s = std::launder(reinterpret_cast<D*>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
          },
          [](void* p) noexcept { std::launder(reinterpret_cast<D*>(p))->~D(); },
      };
      ops_ = &kOps;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      static constexpr Ops kOps = {
          [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
          [](void* dst, void* src) noexcept {
            ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
          },
          [](void* p) noexcept { delete *std::launder(reinterpret_cast<D**>(p)); },
      };
      ops_ = &kOps;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Allocation-free periodic-event fast path: entities that fire repeatedly
/// (padding timers, traffic sources) implement this instead of scheduling a
/// fresh closure per fire. The task must outlive its pending schedules.
class TimerTask {
 public:
  virtual void on_timer(Seconds now) = 0;

 protected:
  ~TimerTask() = default;
};

/// Event-driven simulation kernel.
class Simulation {
 public:
  using Callback = InlineCallback;

  /// Current simulated time (seconds).
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedule `cb` at absolute time `t` (must not be in the past).
  void schedule_at(Seconds t, Callback cb);

  /// Schedule `cb` after a relative delay `dt >= 0`.
  void schedule_in(Seconds dt, Callback cb);

  /// Schedule `task` to fire at absolute time `t` (timer fast path; no
  /// closure is built). FIFO order vs schedule_at events is preserved.
  void schedule_timer_at(Seconds t, TimerTask& task);

  /// Schedule `task` after a relative delay `dt >= 0`.
  void schedule_timer_in(Seconds dt, TimerTask& task);

  /// Run until the event queue drains or the clock passes `t_end`
  /// (events scheduled at exactly t_end still run).
  void run_until(Seconds t_end);

  /// Run until the event queue is empty or stop() is called.
  void run();

  /// Request termination; the current event finishes, later ones stay queued.
  void stop() { stopped_ = true; }

  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }
  [[nodiscard]] bool empty() const {
    return cb_heap_.empty() && timer_heap_.empty();
  }

  /// Slab-pool high-water mark (callback slots ever allocated). A steady
  /// workload should plateau: slots are recycled, not grown per event.
  [[nodiscard]] std::size_t callback_pool_slots() const { return pool_.size(); }

 private:
  struct CbItem {
    Seconds t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct TimerItem {
    Seconds t;
    std::uint64_t seq;
    TimerTask* task;
  };
  /// Max-heap comparator under which the EARLIEST (t, seq) sits at front.
  struct Later {
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;  // FIFO among simultaneous events
    }
  };

  /// Pop and run the earliest pending event if its time is <= t_limit.
  bool step(Seconds t_limit);

  std::vector<InlineCallback> pool_;        ///< slab of queued closures
  std::vector<std::uint32_t> free_slots_;   ///< recycled pool indices
  std::vector<CbItem> cb_heap_;             ///< binary heap of closure events
  std::vector<TimerItem> timer_heap_;       ///< binary heap of timer tasks
  Seconds now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  bool stopped_ = false;
};

}  // namespace linkpad::sim

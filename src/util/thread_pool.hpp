// Fixed-size thread pool and deterministic parallel dispatch built on it.
//
// The experiment runner shards Monte-Carlo trials across threads. Work items
// are indexed [0, n); each item derives its own RNG substream from its index
// (see util/rng.hpp), so the *schedule* is free to be dynamic while results
// stay independent of thread count. Chunks are handed out via an atomic
// cursor (self-balancing for uneven item costs, e.g. different sample sizes).
//
// One claim loop, two shapes:
//  * parallel_for_chunks — body(slot, begin, end) per grain-sized run of
//    indices. `slot` identifies the executing task (stable for that task's
//    whole drain loop), so callers keep per-slot scratch — spec copies,
//    partial reductions — alive across every chunk the task claims instead
//    of rebuilding state per item. Pair with tree_reduce to fold the
//    per-chunk partials deterministically.
//  * parallel_for        — body(i) per index, run over parallel_for_chunks.
//
// Both are nested-dispatch safe: a call issued from inside a task of the
// SAME pool runs inline on that worker (waiting on the pool from one of its
// own tasks would deadlock — the waiting task itself counts as in flight).
// On a one-thread pool both run inline on the caller, chunks in ascending
// order as slot 0: the reference schedule every wider pool is bit-compared
// against.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace linkpad::util {

/// A simple fixed-size worker pool executing std::function tasks.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished executing. Must not be
  /// called from a task of THIS pool (the caller is still in flight).
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers — the test
  /// parallel dispatch uses to run nested calls inline instead of
  /// deadlocking in wait_idle.
  [[nodiscard]] bool on_worker_thread() const;

  /// Process-wide shared pool (lazily constructed).
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

/// Runs fn(pool) on the pool a `threads` knob names: 0 = the process-wide
/// ThreadPool::global(), anything else a dedicated pool of that many
/// threads that lives for the call.
template <typename Fn>
void with_pool(std::size_t threads, Fn&& fn) {
  if (threads == 0) {
    fn(ThreadPool::global());
    return;
  }
  ThreadPool pool(threads);
  fn(pool);
}

/// Upper bound on the `slot` values parallel_for_chunks passes for a given
/// dispatch — size per-slot scratch arrays with this.
[[nodiscard]] inline std::size_t chunk_slots(const ThreadPool& pool,
                                             std::size_t n,
                                             std::size_t grain) {
  if (n == 0) return 1;
  grain = grain == 0 ? 1 : grain;
  const std::size_t tasks = (n + grain - 1) / grain;
  const std::size_t workers =
      (pool.thread_count() <= 1 || pool.on_worker_thread())
          ? 1
          : pool.thread_count();
  return std::max<std::size_t>(1, std::min(workers, tasks));
}

/// Chunked dispatch: body(slot, begin, end) over grain-aligned runs of
/// [0, n). Every chunk starts at a multiple of `grain`, so the chunk
/// partition depends only on (n, grain) — never on the pool size — and a
/// caller reducing per-chunk partials in chunk order gets bit-identical
/// results at any thread count. `slot` < chunk_slots(pool, n, grain) names
/// the draining task; per-slot scratch survives across its chunks. Runs
/// inline (single slot 0, chunks in order) when the pool is trivial or the
/// caller is already one of its workers. Exceptions propagate (first wins);
/// remaining chunks may be skipped once a body throws.
template <typename Body>
void parallel_for_chunks(ThreadPool& pool, std::size_t n, std::size_t grain,
                         Body&& body) {
  if (n == 0) return;
  grain = grain == 0 ? 1 : grain;

  const std::size_t workers = pool.thread_count();
  if (workers <= 1 || n <= grain || pool.on_worker_thread()) {
    for (std::size_t start = 0; start < n; start += grain) {
      body(std::size_t{0}, start, std::min(n, start + grain));
    }
    return;
  }

  const std::size_t tasks = std::min(workers, (n + grain - 1) / grain);
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  for (std::size_t slot = 0; slot < tasks; ++slot) {
    // By-reference captures are safe: wait_idle below outlives every task.
    pool.submit([&, slot] {
      try {
        for (;;) {
          if (failed.load(std::memory_order_relaxed)) break;
          const std::size_t start = cursor.fetch_add(grain);
          if (start >= n) break;
          body(slot, start, std::min(n, start + grain));
        }
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool.wait_idle();

  if (first_error) std::rethrow_exception(first_error);
}

/// Per-index dispatch: body(i) for i in [0, n), `grain` indices per claim
/// (0 claims one), through parallel_for_chunks: same inline rules, same
/// first-wins exception propagation. Results are independent of the pool
/// size when each index derives its own state.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// Same, over ThreadPool::global().
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

/// Deterministic fixed-shape binary tree reduction: adjacent pairs fold
/// level by level (merge(left, right) folds right INTO left) until one item
/// remains. The tree shape is a pure function of items.size(), so a
/// non-commutative merge — concatenation, order-sensitive sketches — still
/// reduces identically on every run and at every thread count. Expects at
/// least one item.
template <typename T, typename Merge>
T tree_reduce(std::vector<T> items, Merge&& merge) {
  LINKPAD_EXPECTS(!items.empty());
  while (items.size() > 1) {
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < items.size(); i += 2) {
      merge(items[i], items[i + 1]);
      if (out != i) items[out] = std::move(items[i]);
      ++out;
    }
    if (items.size() % 2 == 1) {
      items[out++] = std::move(items.back());
    }
    items.resize(out);
  }
  return std::move(items.front());
}

}  // namespace linkpad::util

#include "util/thread_pool.hpp"

#include <algorithm>

namespace linkpad::util {

namespace {
/// The pool whose worker_loop is running on this thread (nullptr on
/// non-worker threads). Lets nested parallel dispatch detect "I am already
/// inside this pool" and run inline instead of deadlocking in wait_idle.
thread_local const ThreadPool* tls_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads != 0 ? threads : std::thread::hardware_concurrency();
  n = std::max<std::size_t>(n, 1);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::on_worker_thread() const { return tls_current_pool == this; }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  tls_current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    // Release what the task captured before it counts as done: a waiter
    // returning from wait_idle must not race this thread's destructors
    // (e.g. the last reference to an exception the waiter is handling).
    task = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  parallel_for_chunks(pool, n, grain,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) body(i);
                      });
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  parallel_for(ThreadPool::global(), n, body, grain);
}

}  // namespace linkpad::util

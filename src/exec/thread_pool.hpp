// hi-opt: fixed-size worker thread pool — the execution substrate of
// hi::exec.
//
// N workers drain one FIFO task queue.  submit() returns a std::future
// carrying the task's result or its exception; shutdown is graceful: the
// destructor finishes every task already queued, then joins the workers.
// BatchEvaluator uses it to fan RunSim calls out across cores, but the
// pool is deliberately generic (any callable, any result type).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/assert.hpp"

namespace hi::exec {

/// See file comment.
class ThreadPool {
 public:
  /// Spawns `threads` >= 1 workers.
  explicit ThreadPool(int threads);

  /// Graceful shutdown: rejects new work, finishes every queued task,
  /// joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` for execution and returns a future for its result.
  /// An exception thrown by the task is captured and rethrown by
  /// future::get() in the caller — never swallowed on a worker.
  template <typename Fn>
  [[nodiscard]] std::future<std::invoke_result_t<std::decay_t<Fn>>> submit(
      Fn&& fn) {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    // shared_ptr because std::function requires copyable callables and
    // packaged_task is move-only.
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      HI_REQUIRE(!stopping_, "ThreadPool: submit() after shutdown began");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Number of workers.
  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace hi::exec

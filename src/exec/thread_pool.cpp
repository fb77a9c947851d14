#include "exec/thread_pool.hpp"

namespace hi::exec {

ThreadPool::ThreadPool(int threads) {
  HI_REQUIRE(threads >= 1,
             "ThreadPool: need at least one worker, got " << threads);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping and fully drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // a packaged_task: exceptions land in the caller's future
  }
}

}  // namespace hi::exec

#include "util/thread_pool.h"

#include <atomic>
#include <stdexcept>

namespace mapcq::util {

thread_pool::thread_pool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

thread_pool::~thread_pool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void thread_pool::submit(std::function<void()> task) {
  if (!task) throw std::invalid_argument("thread_pool::submit: empty task");
  {
    const std::lock_guard lock(mutex_);
    if (stopping_) throw std::runtime_error("thread_pool::submit: pool is stopping");
    queue_.push(std::move(task));
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  cv_task_.notify_one();
}

void thread_pool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void thread_pool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      queued_.store(queue_.size(), std::memory_order_relaxed);
      ++active_;
    }
    task();
    {
      const std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
    const auto until = std::chrono::steady_clock::now() + poll_window;
    while (queued_.load(std::memory_order_relaxed) == 0 &&
           !stopping_.load(std::memory_order_relaxed) && std::chrono::steady_clock::now() < until)
      std::this_thread::yield();
  }
}

}  // namespace mapcq::util

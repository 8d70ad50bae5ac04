#pragma once
// Fixed-size worker pool. An evaluation engine's pool evaluates GA
// populations in parallel, in the role of the paper's 12-GPU evaluation
// cluster (§VI-A); a refresh pipeline's one-worker pool runs its refits.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mapcq::util {

/// Simple task-queue thread pool. Tasks are `void()` callables; exceptions
/// escaping a task terminate (tasks are expected to capture their own error
/// channel). `wait_idle` blocks until the queue is drained and all workers
/// are idle: a whole-pool barrier, so a caller that shares the pool with
/// others waits on its own tasks instead (as the evaluation engine does).
///
/// Ownership: the pool owns its worker threads and the queued tasks; task
/// closures own (or must outlive-guard) whatever they capture — the pool
/// never inspects them.
///
/// Thread-safety: every public member may be called concurrently from any
/// thread, including from inside a task (except `wait_idle`, which would
/// deadlock if a worker waited on itself).
///
/// Blocking: `submit` never blocks beyond the queue mutex; `wait_idle`
/// blocks the caller; the destructor blocks until running tasks finish
/// (queued-but-unstarted tasks still run first — it drains, it does not
/// cancel). A worker that has just run a task polls the queue, yielding,
/// for up to `poll_window` before it sleeps.
class thread_pool {
 public:
  /// How long a worker that has just run a task keeps polling for the next
  /// one before it sleeps. It covers the gap between two generations of a
  /// GA search (the coordinator ranking and breeding), so a search's
  /// workers stay running from batch to batch: a sleeping worker must be
  /// woken for the next batch, and on a virtual machine whose idle vCPUs
  /// halt, every such wake-up waits for the host to run the vCPU again. A
  /// pool that falls idle spends at most this much CPU per worker.
  static constexpr std::chrono::milliseconds poll_window{2};

  /// Spawns `threads` workers (at least one).
  explicit thread_pool(std::size_t threads);
  /// Drains the queue, then joins every worker (see class comment).
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Enqueues a task for asynchronous execution. Throws
  /// std::invalid_argument on an empty task and std::runtime_error when the
  /// pool is already stopping.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. Do not call from a
  /// pool worker (self-deadlock).
  void wait_idle();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  /// `queued_` mirrors `queue_.size()`. Both are written under `mutex_`
  /// and read without it by polling workers.
  std::atomic<std::size_t> queued_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace mapcq::util

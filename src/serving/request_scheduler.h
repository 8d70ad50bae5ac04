#pragma once
// Service-level admission control and cross-request batching — the layer
// between `mapping_service::submit()` and the workers that actually run
// `map()` (ROADMAP: "service-level admission/batching for many concurrent
// submit() streams"). Run-time mapping systems treat mapping as a
// *scheduled, contended service*: under many concurrent clients the raw
// thread-pool hand-off of PR 2 had no backpressure, no fairness across
// sessions and re-ran duplicate requests side by side. The scheduler adds:
//
//   * a bounded admission queue (`scheduler_options::max_queued`) with
//     reject-or-block semantics (`admission_policy`), rejections surfaced
//     as a typed `admission_error` through the returned future;
//   * weighted round-robin fairness across session lanes
//     (`util::wrr_queue`), so one chatty client cannot starve others, plus
//     an optional per-session in-flight cap;
//   * request coalescing: a submit identical (same session lane + same
//     `request_fingerprint`) to a queued or in-flight request joins its
//     `shared_future` instead of enqueuing — the service-level extension of
//     the engine's in-flight dedup;
//   * priority lanes and queued-deadline expiry (`mapping_request::
//     {priority, deadline}`), dropped work counted in `scheduler_stats`;
//   * a `scheduler_stats` snapshot stamped into every report it produces.
//
// Ownership: the scheduler owns its worker threads and every queued
// request; the executor callback (and whatever it captures, e.g. the
// mapping_service) must outlive the scheduler. Results are shared: any
// number of copies of the returned `shared_future` stay valid after the
// scheduler is destroyed.
//
// Thread-safety: every public member may be called from any thread.
//
// Blocking: `submit` returns without waiting for execution, except under
// `admission_policy::block` with a full queue, where it blocks the caller
// until space frees (backpressure) or the scheduler shuts down. The
// destructor fails all still-queued requests with
// `admission_error::reason::shutdown`, then joins the workers — i.e. it
// blocks for at most the requests already executing.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serving/mapping_types.h"
#include "util/wrr_queue.h"

namespace mapcq::serving {

/// What `submit` does when the admission queue is at `max_queued`.
enum class admission_policy {
  block,  ///< backpressure: the submitting thread waits for queue space
  reject  ///< fail fast: the returned future throws admission_error
};

/// Typed admission failure, delivered through the request's future (never
/// thrown synchronously from submit, so callers handle one error channel).
class admission_error : public std::runtime_error {
 public:
  enum class reason {
    queue_full,        ///< rejected at admission under admission_policy::reject
    deadline_expired,  ///< spent longer queued than mapping_request::deadline
    shutdown           ///< scheduler destroyed while the request was queued
  };

  admission_error(reason r, const std::string& what) : std::runtime_error(what), reason_(r) {}
  [[nodiscard]] reason why() const noexcept { return reason_; }

 private:
  reason reason_;
};

/// Scheduler tuning knobs (service-wide; per-request knobs live on
/// mapping_request::{priority, deadline}).
struct scheduler_options {
  /// Max requests waiting for a worker; 0 = unbounded. Coalesced joins
  /// never count against the bound (they add no work).
  std::size_t max_queued = 0;
  /// Max requests of one session lane executing concurrently; 0 =
  /// unbounded. Requests over the cap stay queued (they are not rejected)
  /// while other sessions' work proceeds around them.
  std::size_t max_inflight_per_session = 0;
  admission_policy policy = admission_policy::block;
  /// Join identical queued/in-flight requests instead of re-running them.
  /// Disable to force every submit into its own execution (the engine's
  /// in-flight dedup still prevents duplicate *evaluator* work).
  bool coalesce = true;
  /// Per-visit dispatch budget of a session lane in the round-robin
  /// rotation (>= 1); `weights` overrides it per session key.
  std::size_t default_weight = 1;
  std::unordered_map<std::string, std::size_t> weights;
};

/// The admission/fairness/coalescing layer (see file comment). Generic over
/// its executor so tests can drive it with a stub; `mapping_service` passes
/// a callback into `map()`.
class request_scheduler {
 public:
  using executor = std::function<mapping_report(const mapping_request&)>;

  /// Spawns `workers` dispatch threads that pull admitted requests in
  /// priority + weighted-round-robin order and run `run`, one request per
  /// pick. Throws std::invalid_argument when `workers` is 0 or `run` is
  /// empty.
  request_scheduler(scheduler_options opt, std::size_t workers, executor run);

  /// Fails queued requests with admission_error(shutdown), wakes blocked
  /// submitters, and joins the workers (waits for executing requests only).
  ~request_scheduler();

  request_scheduler(const request_scheduler&) = delete;
  request_scheduler& operator=(const request_scheduler&) = delete;

  /// Admits one request (see class comment for the full protocol). `lane`
  /// groups requests for fairness and the per-session in-flight cap —
  /// `mapping_service` passes the session key the request resolves to.
  /// `fingerprint` is the coalescing identity (`request_fingerprint`); an
  /// empty fingerprint opts this request out of coalescing.
  [[nodiscard]] std::shared_future<mapping_report> submit(const std::string& lane,
                                                          const std::string& fingerprint,
                                                          mapping_request req);

  /// Stops dispatching new work; items already executing run to
  /// completion. Submissions are still admitted and coalesced while
  /// paused — which is what makes paused bulk submission deterministic:
  /// every duplicate joins its queued representative before any of them
  /// can start executing (see serving/request_trace.h, synchronous
  /// replay). Queued deadlines keep ticking while paused.
  void pause();
  /// Resumes dispatch after pause(). Idempotent.
  void resume();

  /// Counter/gauge snapshot (cheap: one lock, one map copy).
  [[nodiscard]] scheduler_stats stats() const;

  /// Blocks until nothing is queued or executing. Counters then reconcile
  /// exactly: admitted == completed + failed + expired.
  void wait_idle() const;

  [[nodiscard]] std::size_t workers() const noexcept { return workers_.size(); }

 private:
  struct work_item {
    mapping_request req;
    std::string lane;
    std::string fingerprint;
    std::promise<mapping_report> promise;
    std::shared_future<mapping_report> future;
    /// Latest deadline of the original submit and every coalesced join;
    /// time_point::max() = none. Checked when a worker picks the item.
    std::chrono::steady_clock::time_point expiry;
  };
  using item_ptr = std::shared_ptr<work_item>;

  void worker_loop();
  /// Highest-priority eligible item in WRR order; null when none. Caller
  /// holds `mu_`.
  [[nodiscard]] item_ptr pick_next_locked();
  [[nodiscard]] scheduler_stats stats_locked() const;

  scheduler_options opt_;
  executor run_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< workers wait for pickable items
  std::condition_variable cv_space_;  ///< blocked submitters wait for queue space
  mutable std::condition_variable cv_idle_;
  bool stopping_ = false;
  bool paused_ = false;  ///< workers idle (admission continues) until resume()

  /// Priority lanes, highest served first; each holds a WRR rotation over
  /// session lanes. Node-based on purpose: wrr_queue is not movable.
  std::map<int, util::wrr_queue<item_ptr>, std::greater<int>> queues_;
  std::size_t queued_count_ = 0;
  /// Coalescing index over queued *and* executing items, erased on
  /// completion/expiry. Keyed by lane + '\n' + fingerprint.
  std::unordered_map<std::string, item_ptr> pending_;
  std::unordered_map<std::string, std::size_t> inflight_per_lane_;
  std::size_t inflight_count_ = 0;

  scheduler_stats counters_;  ///< monotonic fields only; gauges derived

  std::vector<std::thread> workers_;
};

}  // namespace mapcq::serving

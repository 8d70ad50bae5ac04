#include "serving/request_scheduler.h"

#include <stdexcept>
#include <utility>

namespace mapcq::serving {

namespace {

[[nodiscard]] std::string pending_key(const std::string& lane, const std::string& fingerprint) {
  // '\n' cannot appear in either part (session keys and fingerprints are
  // single-line), so the concatenation is injective.
  return lane + '\n' + fingerprint;
}

[[nodiscard]] std::shared_future<mapping_report> failed_future(admission_error::reason r,
                                                               const std::string& what) {
  std::promise<mapping_report> p;
  p.set_exception(std::make_exception_ptr(admission_error{r, what}));
  return p.get_future().share();
}

}  // namespace

request_scheduler::request_scheduler(scheduler_options opt, std::size_t workers, executor run)
    : opt_(std::move(opt)), run_(std::move(run)) {
  if (!run_) throw std::invalid_argument("request_scheduler: null executor");
  if (opt_.default_weight == 0) opt_.default_weight = 1;
  if (workers == 0) throw std::invalid_argument("request_scheduler: workers must be at least 1");
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) workers_.emplace_back([this] { worker_loop(); });
}

request_scheduler::~request_scheduler() {
  std::vector<item_ptr> orphans;
  {
    const std::lock_guard<std::mutex> lock{mu_};
    stopping_ = true;
    for (auto& [priority, queue] : queues_)
      queue.drain([&](const std::string&, item_ptr& item) { orphans.push_back(std::move(item)); });
    queued_count_ = 0;
    // Executing items keep their pending_ entries; their workers erase them
    // on completion before exiting. Queued entries die with their items.
    for (const item_ptr& item : orphans)
      if (!item->fingerprint.empty()) pending_.erase(pending_key(item->lane, item->fingerprint));
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  cv_idle_.notify_all();
  for (const item_ptr& item : orphans)
    item->promise.set_exception(std::make_exception_ptr(admission_error{
        admission_error::reason::shutdown, "request_scheduler: shut down with request queued"}));
  for (std::thread& w : workers_) w.join();
}

std::shared_future<mapping_report> request_scheduler::submit(const std::string& lane,
                                                             const std::string& fingerprint,
                                                             mapping_request req) {
  const auto now = std::chrono::steady_clock::now();
  const auto expiry = req.deadline.count() > 0
                          ? now + req.deadline
                          : std::chrono::steady_clock::time_point::max();

  std::unique_lock<std::mutex> lock{mu_};
  // `submitted` is bumped together with the outcome counter, never before:
  // a caller blocked on backpressure is not yet counted, so any live
  // snapshot reconciles exactly (submitted == admitted+coalesced+rejected).
  for (;;) {
    if (stopping_) {
      ++counters_.submitted;
      ++counters_.rejected;
      return failed_future(admission_error::reason::shutdown,
                           "request_scheduler: submit after shutdown");
    }
    // Coalesce first — rechecked after every blocking wait, because the
    // identical request may have been admitted while we slept.
    if (opt_.coalesce && !fingerprint.empty()) {
      const auto it = pending_.find(pending_key(lane, fingerprint));
      if (it != pending_.end()) {
        ++counters_.submitted;
        ++counters_.coalesced;
        // Keep the shared run alive until the latest joiner's deadline.
        if (expiry > it->second->expiry) it->second->expiry = expiry;
        return it->second->future;
      }
    }
    if (opt_.max_queued == 0 || queued_count_ < opt_.max_queued) break;
    if (opt_.policy == admission_policy::reject) {
      ++counters_.submitted;
      ++counters_.rejected;
      return failed_future(admission_error::reason::queue_full,
                           "request_scheduler: admission queue full (" +
                               std::to_string(opt_.max_queued) + ")");
    }
    cv_space_.wait(lock);
  }

  auto item = std::make_shared<work_item>();
  item->req = std::move(req);
  item->lane = lane;
  item->fingerprint = fingerprint;
  item->future = item->promise.get_future().share();
  item->expiry = expiry;

  auto [queue_it, fresh] = queues_.try_emplace(item->req.priority, opt_.default_weight);
  if (fresh)
    for (const auto& [key, weight] : opt_.weights) queue_it->second.set_weight(key, weight);
  queue_it->second.push(lane, item);
  ++queued_count_;
  ++counters_.submitted;
  ++counters_.admitted;
  if (opt_.coalesce && !fingerprint.empty()) pending_[pending_key(lane, fingerprint)] = item;
  cv_work_.notify_one();
  return item->future;
}

request_scheduler::item_ptr request_scheduler::pick_next_locked() {
  const auto eligible = [this](const std::string& lane) {
    if (opt_.max_inflight_per_session == 0) return true;
    const auto it = inflight_per_lane_.find(lane);
    return it == inflight_per_lane_.end() || it->second < opt_.max_inflight_per_session;
  };
  for (auto it = queues_.begin(); it != queues_.end();) {
    std::optional<item_ptr> item = it->second.pop(eligible);
    if (item) return std::move(*item);
    // Drop drained priority queues: client-supplied priorities are an
    // unbounded key space, and an empty wrr_queue per int ever seen would
    // leak in a long-lived service. (empty() is false while ineligible
    // items wait, so those queues survive.)
    it = it->second.empty() ? queues_.erase(it) : ++it;
  }
  return nullptr;
}

void request_scheduler::worker_loop() {
  std::unique_lock<std::mutex> lock{mu_};
  for (;;) {
    if (stopping_) return;
    item_ptr item = paused_ ? nullptr : pick_next_locked();
    if (!item) {
      cv_work_.wait(lock);
      continue;
    }
    --queued_count_;
    cv_space_.notify_one();  // the dequeue freed admission-queue space

    if (std::chrono::steady_clock::now() > item->expiry) {
      // Drop-on-expired-deadline: the request waited past its budget, so
      // running it now would only waste evaluator time.
      ++counters_.expired;
      if (!item->fingerprint.empty()) pending_.erase(pending_key(item->lane, item->fingerprint));
      item->promise.set_exception(std::make_exception_ptr(
          admission_error{admission_error::reason::deadline_expired,
                          "request_scheduler: deadline expired after " +
                              std::to_string(item->req.deadline.count()) + "ms queued"}));
      if (queued_count_ == 0 && inflight_count_ == 0) cv_idle_.notify_all();
      continue;
    }

    ++inflight_count_;
    ++inflight_per_lane_[item->lane];
    lock.unlock();

    mapping_report report;
    std::exception_ptr error;
    try {
      report = run_(item->req);
    } catch (...) {
      error = std::current_exception();
    }

    lock.lock();
    if (error)
      ++counters_.failed;
    else
      ++counters_.completed;
    --inflight_count_;
    const auto lane_it = inflight_per_lane_.find(item->lane);
    if (lane_it != inflight_per_lane_.end() && --lane_it->second == 0)
      inflight_per_lane_.erase(lane_it);
    if (!item->fingerprint.empty()) pending_.erase(pending_key(item->lane, item->fingerprint));
    // Fulfill under the lock: whoever observes the future ready also
    // observes counters that already include this completion, and the
    // stamped snapshot counts the report it rides in.
    if (error) {
      item->promise.set_exception(error);
    } else {
      report.scheduler = stats_locked();
      item->promise.set_value(std::move(report));
    }
    // A lane at its in-flight cap may have become dispatchable.
    if (opt_.max_inflight_per_session != 0) cv_work_.notify_all();
    if (queued_count_ == 0 && inflight_count_ == 0) cv_idle_.notify_all();
  }
}

void request_scheduler::pause() {
  const std::lock_guard<std::mutex> lock{mu_};
  paused_ = true;
}

void request_scheduler::resume() {
  {
    const std::lock_guard<std::mutex> lock{mu_};
    paused_ = false;
  }
  cv_work_.notify_all();
}

scheduler_stats request_scheduler::stats_locked() const {
  scheduler_stats s = counters_;
  s.queued = queued_count_;
  s.inflight = inflight_count_;
  s.inflight_per_session = inflight_per_lane_;
  return s;
}

scheduler_stats request_scheduler::stats() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return stats_locked();
}

void request_scheduler::wait_idle() const {
  std::unique_lock<std::mutex> lock{mu_};
  cv_idle_.wait(lock, [this] { return queued_count_ == 0 && inflight_count_ == 0; });
}

}  // namespace mapcq::serving

// Scheduler-layer tests, driven by a stub executor so every edge case is
// deterministic: WRR queue rotation/weights/eligibility, admission
// rejection and blocking backpressure at max_queued, coalescing of
// identical requests onto one execution, queued-deadline expiry, fairness
// under a single-session flood, priority lanes, per-session in-flight caps,
// shutdown semantics and stats reconciliation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serving/request_scheduler.h"
#include "util/strings.h"
#include "util/wrr_queue.h"

namespace {

using namespace mapcq;
using serving::admission_error;
using serving::admission_policy;
using serving::mapping_report;
using serving::mapping_request;
using serving::request_scheduler;
using serving::scheduler_options;
using serving::scheduler_stats;

// ---------------------------------------------------------------------------
// util::wrr_queue

std::vector<int> drain_all(util::wrr_queue<int>& q) {
  std::vector<int> order;
  while (auto v = q.pop()) order.push_back(*v);
  return order;
}

TEST(wrr_queue, round_robin_interleaves_lanes) {
  util::wrr_queue<int> q;
  q.push("a", 1);
  q.push("a", 2);
  q.push("a", 3);
  q.push("b", 10);
  q.push("b", 20);
  q.push("c", 100);
  EXPECT_EQ(q.size(), 6u);
  EXPECT_EQ(q.lane_size("a"), 3u);
  EXPECT_EQ(drain_all(q), (std::vector<int>{1, 10, 100, 2, 20, 3}));
  EXPECT_TRUE(q.empty());
}

TEST(wrr_queue, weights_grant_consecutive_pops) {
  util::wrr_queue<int> q;
  q.set_weight("a", 2);
  q.push("a", 1);
  q.push("a", 2);
  q.push("a", 3);
  q.push("b", 10);
  q.push("b", 20);
  // a's weight 2 => two a's per visit; b keeps weight 1.
  EXPECT_EQ(drain_all(q), (std::vector<int>{1, 2, 10, 3, 20}));
}

TEST(wrr_queue, pop_skips_ineligible_lanes) {
  util::wrr_queue<int> q;
  q.push("a", 1);
  q.push("b", 10);
  q.push("a", 2);
  const auto not_a = [](const std::string& key) { return key != "a"; };
  EXPECT_EQ(q.pop(not_a), std::optional<int>{10});
  // Only ineligible work left: pop declines but the items stay queued.
  EXPECT_EQ(q.pop(not_a), std::nullopt);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), std::optional<int>{1});
  EXPECT_EQ(q.pop(), std::optional<int>{2});
}

TEST(wrr_queue, late_lane_joins_the_rotation) {
  util::wrr_queue<int> q;
  q.push("a", 1);
  q.push("a", 2);
  EXPECT_EQ(q.pop(), std::optional<int>{1});
  q.push("b", 10);  // arrives mid-rotation; served within one round
  EXPECT_EQ(q.pop(), std::optional<int>{2});
  EXPECT_EQ(q.pop(), std::optional<int>{10});
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(wrr_queue, drain_visits_every_item) {
  util::wrr_queue<int> q;
  q.push("a", 1);
  q.push("b", 2);
  q.push("b", 3);
  int sum = 0;
  q.drain([&](const std::string&, int& v) { sum += v; });
  EXPECT_EQ(sum, 6);
  EXPECT_TRUE(q.empty());
  q.push("c", 9);  // reusable after a drain
  EXPECT_EQ(q.pop(), std::optional<int>{9});
}

// ---------------------------------------------------------------------------
// request_scheduler, with a gated stub executor

/// Stub executor: blocks every execution on a shared gate until release(),
/// records execution order by request network name, and stamps the
/// execution ordinal into the report's session_key.
struct gated_executor {
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::mutex mu;
  std::vector<std::string> order;
  std::atomic<int> entered{0};

  request_scheduler::executor fn() {
    return [this](const mapping_request& req) {
      entered.fetch_add(1);
      open.wait();
      mapping_report rep;
      rep.network = req.network;
      const std::lock_guard<std::mutex> lock{mu};
      order.push_back(req.network);
      rep.session_key = std::to_string(order.size());
      return rep;
    };
  }

  void release() { gate.set_value(); }
  /// Spins until `n` executions entered the gate (they hold a worker).
  void await_entered(int n) {
    while (entered.load() < n) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
};

mapping_request named(const std::string& net, int priority = 0,
                      std::chrono::milliseconds deadline = {}) {
  mapping_request req;
  req.network = net;
  req.priority = priority;
  req.deadline = deadline;
  return req;
}

TEST(request_scheduler, coalesces_identical_requests_onto_one_execution) {
  gated_executor exec;
  request_scheduler sched{{}, 1, exec.fn()};

  auto a = sched.submit("s1", "fp-x", named("x"));
  exec.await_entered(1);  // x is executing (held at the gate)
  auto b = sched.submit("s1", "fp-x", named("x"));
  auto c = sched.submit("s1", "fp-x", named("x"));
  auto d = sched.submit("s1", "fp-y", named("y"));  // distinct: queued
  exec.release();

  // All three x-futures resolve to the same execution (same ordinal).
  EXPECT_EQ(a.get().session_key, b.get().session_key);
  EXPECT_EQ(a.get().session_key, c.get().session_key);
  EXPECT_NE(a.get().session_key, d.get().session_key);

  sched.wait_idle();
  const scheduler_stats s = sched.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.coalesced, 2u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(exec.order.size(), 2u);
}

TEST(request_scheduler, coalescing_disabled_runs_every_submit) {
  gated_executor exec;
  scheduler_options opt;
  opt.coalesce = false;
  request_scheduler sched{opt, 1, exec.fn()};
  auto a = sched.submit("s1", "fp-x", named("x"));
  exec.await_entered(1);
  auto b = sched.submit("s1", "fp-x", named("x"));
  exec.release();
  (void)a.get();
  (void)b.get();
  const scheduler_stats s = sched.stats();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.coalesced, 0u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(request_scheduler, rejects_at_max_queued_under_reject_policy) {
  gated_executor exec;
  scheduler_options opt;
  opt.max_queued = 1;
  opt.policy = admission_policy::reject;
  request_scheduler sched{opt, 1, exec.fn()};

  auto a = sched.submit("s1", "fp-a", named("a"));
  exec.await_entered(1);                             // a executing, queue empty
  auto b = sched.submit("s2", "fp-b", named("b"));   // queued (1/1)
  auto c = sched.submit("s3", "fp-c", named("c"));   // over the bound
  try {
    (void)c.get();
    FAIL() << "expected admission_error";
  } catch (const admission_error& e) {
    EXPECT_EQ(e.why(), admission_error::reason::queue_full);
  }
  // An identical duplicate of the queued request still coalesces — joins
  // add no work, so they are never rejected.
  auto b2 = sched.submit("s2", "fp-b", named("b"));
  exec.release();
  EXPECT_EQ(b.get().session_key, b2.get().session_key);
  (void)a.get();

  sched.wait_idle();
  const scheduler_stats s = sched.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.coalesced, 1u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(request_scheduler, block_policy_backpressures_until_space_frees) {
  gated_executor exec;
  scheduler_options opt;
  opt.max_queued = 1;
  opt.policy = admission_policy::block;
  request_scheduler sched{opt, 1, exec.fn()};

  auto a = sched.submit("s1", "fp-a", named("a"));
  exec.await_entered(1);
  auto b = sched.submit("s2", "fp-b", named("b"));  // fills the queue

  std::promise<std::shared_future<mapping_report>> admitted;
  std::thread submitter{[&] {
    admitted.set_value(sched.submit("s3", "fp-c", named("c")));  // blocks
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(sched.stats().admitted, 2u);  // c is still being backpressured

  exec.release();  // a finishes, b dispatches, space frees, c admitted
  auto c = admitted.get_future().get();
  submitter.join();
  (void)a.get();
  (void)b.get();
  EXPECT_EQ(c.get().network, "c");

  sched.wait_idle();
  const scheduler_stats s = sched.stats();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.completed, 3u);
}

TEST(request_scheduler, expired_deadline_drops_queued_work) {
  gated_executor exec;
  request_scheduler sched{{}, 1, exec.fn()};

  auto a = sched.submit("s1", "fp-a", named("a"));
  exec.await_entered(1);
  auto doomed = sched.submit("s2", "fp-d", named("d", 0, std::chrono::milliseconds{5}));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));  // out-waits the deadline
  exec.release();

  (void)a.get();
  try {
    (void)doomed.get();
    FAIL() << "expected admission_error";
  } catch (const admission_error& e) {
    EXPECT_EQ(e.why(), admission_error::reason::deadline_expired);
  }
  sched.wait_idle();
  const scheduler_stats s = sched.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(exec.order.size(), 1u);  // the expired request never executed
  EXPECT_EQ(s.admitted, s.completed + s.failed + s.expired);
}

TEST(request_scheduler, wrr_prevents_single_session_starvation) {
  gated_executor exec;
  request_scheduler sched{{}, 1, exec.fn()};

  std::vector<std::shared_future<mapping_report>> futures;
  futures.push_back(sched.submit("blocker", "", named("g")));
  exec.await_entered(1);  // occupy the single worker so everything queues

  // A flood of 6 distinct requests on one session, then 2 polite ones.
  for (int i = 0; i < 6; ++i)
    futures.push_back(sched.submit("flood", "", named(util::format("f%d", i))));
  for (int i = 0; i < 2; ++i)
    futures.push_back(sched.submit("polite", "", named(util::format("p%d", i))));
  exec.release();
  for (auto& f : futures) (void)f.get();

  // Single worker => execution order == dispatch order. Round-robin must
  // interleave the polite session instead of appending it after the flood.
  const std::vector<std::string> expected{"g", "f0", "p0", "f1", "p1", "f2", "f3", "f4", "f5"};
  EXPECT_EQ(exec.order, expected);
}

TEST(request_scheduler, session_weights_bias_the_rotation) {
  gated_executor exec;
  scheduler_options opt;
  opt.weights["heavy"] = 2;
  request_scheduler sched{opt, 1, exec.fn()};

  std::vector<std::shared_future<mapping_report>> futures;
  futures.push_back(sched.submit("blocker", "", named("g")));
  exec.await_entered(1);
  for (int i = 0; i < 4; ++i)
    futures.push_back(sched.submit("heavy", "", named("h" + std::to_string(i))));
  for (int i = 0; i < 2; ++i)
    futures.push_back(sched.submit("light", "", named("l" + std::to_string(i))));
  exec.release();
  for (auto& f : futures) (void)f.get();

  const std::vector<std::string> expected{"g", "h0", "h1", "l0", "h2", "h3", "l1"};
  EXPECT_EQ(exec.order, expected);
}

TEST(request_scheduler, priority_lanes_dispatch_before_lower_ones) {
  gated_executor exec;
  request_scheduler sched{{}, 1, exec.fn()};

  std::vector<std::shared_future<mapping_report>> futures;
  futures.push_back(sched.submit("blocker", "", named("g")));
  exec.await_entered(1);
  futures.push_back(sched.submit("s1", "", named("low0", 0)));
  futures.push_back(sched.submit("s1", "", named("low1", 0)));
  futures.push_back(sched.submit("s2", "", named("urgent", 5)));
  exec.release();
  for (auto& f : futures) (void)f.get();

  const std::vector<std::string> expected{"g", "urgent", "low0", "low1"};
  EXPECT_EQ(exec.order, expected);
}

TEST(request_scheduler, per_session_inflight_cap_lets_others_overtake) {
  gated_executor exec;
  scheduler_options opt;
  opt.max_inflight_per_session = 1;
  request_scheduler sched{opt, 2, exec.fn()};

  // s1's first request occupies its only in-flight slot; its second must
  // wait even though a worker is free — s2's request overtakes it.
  auto a = sched.submit("s1", "", named("a"));
  exec.await_entered(1);
  auto b = sched.submit("s1", "", named("b"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(exec.entered.load(), 1);  // b held back by the cap
  auto c = sched.submit("s2", "", named("c"));
  exec.await_entered(2);  // c overtook b on the free worker
  EXPECT_EQ(sched.stats().queued, 1u);
  exec.release();
  (void)a.get();
  (void)b.get();
  (void)c.get();
  sched.wait_idle();
  EXPECT_EQ(sched.stats().completed, 3u);
}

TEST(request_scheduler, shutdown_fails_queued_requests_and_finishes_running_ones) {
  gated_executor exec;
  std::shared_future<mapping_report> running;
  std::shared_future<mapping_report> queued;
  std::thread releaser;
  {
    request_scheduler sched{{}, 1, exec.fn()};
    running = sched.submit("s1", "", named("a"));
    exec.await_entered(1);
    queued = sched.submit("s2", "", named("b"));
    // Release the gate concurrently with destruction: the destructor joins
    // the worker, which is still executing `a`.
    releaser = std::thread{[&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      exec.release();
    }};
  }  // ~request_scheduler
  releaser.join();
  EXPECT_EQ(running.get().network, "a");  // in-flight work completed
  try {
    (void)queued.get();
    FAIL() << "expected admission_error";
  } catch (const admission_error& e) {
    EXPECT_EQ(e.why(), admission_error::reason::shutdown);
  }
}

TEST(request_scheduler, rejects_zero_workers) {
  gated_executor exec;
  EXPECT_THROW((request_scheduler{{}, 0, exec.fn()}), std::invalid_argument);
}

TEST(request_scheduler, executor_exceptions_count_as_failed) {
  request_scheduler sched{{}, 1, [](const mapping_request& req) -> mapping_report {
                            if (req.network == "boom") throw std::runtime_error("boom");
                            return {};
                          }};
  auto ok = sched.submit("s1", "", named("fine"));
  auto bad = sched.submit("s1", "", named("boom"));
  (void)ok.get();
  EXPECT_THROW((void)bad.get(), std::runtime_error);
  sched.wait_idle();
  const scheduler_stats s = sched.stats();
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.admitted, s.completed + s.failed + s.expired);
  EXPECT_EQ(s.submitted, s.admitted + s.coalesced + s.rejected);
}

TEST(request_scheduler, reports_carry_a_self_inclusive_stats_snapshot) {
  gated_executor exec;
  request_scheduler sched{{}, 1, exec.fn()};
  auto a = sched.submit("s1", "", named("a"));
  exec.release();
  const mapping_report rep = a.get();
  ASSERT_TRUE(rep.scheduler.has_value());
  EXPECT_EQ(rep.scheduler->completed, 1u);  // the snapshot counts its own report
  EXPECT_EQ(rep.scheduler->admitted, 1u);
}

}  // namespace

// Service-throughput acceptance check for serving::request_scheduler: N
// concurrent clients hammer one mapping_service through submit() and the
// scheduler must (a) coalesce duplicate-heavy load so evaluator executions
// stay ~= the number of *distinct* requests, (b) keep per-session completion
// bounded under an adversarial single-session flood (no starvation), and
// (c) bound the queue with typed rejections under the reject policy — with
// `scheduler_stats` counters reconciling exactly in every scenario:
//     submitted == admitted + coalesced + rejected
//     admitted  == completed + failed + expired        (once drained)
//
// Exits non-zero on any failed check. Scale via MAPCQ_GENERATIONS /
// MAPCQ_POPULATION / MAPCQ_THREADS (defaults are sized for a CI smoke run).
//
// Completion ordinals need no clocks: every submit()-report carries a
// scheduler_stats snapshot stamped at completion, so `scheduler->completed`
// is the report's exact 1-based completion position.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "nn/models.h"
#include "serving/mapping_service.h"
#include "serving/request_trace.h"
#include "soc/platform.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace mapcq;

std::size_t env_or(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v ? std::strtoul(v, nullptr, 10) : fallback;
}

struct scale {
  std::size_t generations = env_or("MAPCQ_GENERATIONS", 4);
  std::size_t population = env_or("MAPCQ_POPULATION", 12);
  std::size_t threads = env_or("MAPCQ_THREADS", 2);
};

serving::mapping_request make_request(const nn::network& net, std::uint64_t seed, const scale& s,
                                      double reuse_cap = 1.0) {
  serving::mapping_request req;
  req.network = net.name;
  req.use_surrogate = false;
  req.ga.generations = s.generations;
  req.ga.population = s.population;
  req.ga.seed = seed;
  req.eval.limits.fmap_reuse_cap = reuse_cap;
  return req;
}

bool check(bool ok, const std::string& what) {
  std::cout << (ok ? "  [ok]   " : "  [FAIL] ") << what << "\n";
  return ok;
}

bool counters_reconcile(const serving::scheduler_stats& s) {
  return s.submitted == s.admitted + s.coalesced + s.rejected &&
         s.admitted == s.completed + s.failed + s.expired && s.queued == 0 && s.inflight == 0;
}

/// Scenario (a): C clients burst-submit a duplicate-heavy mix — `distinct`
/// unique requests, each submitted `dup` times — while a slow "blocker"
/// request pins the single dispatch worker. The whole burst therefore
/// queues, every duplicate lands inside its representative's coalescing
/// window, and the executions == distinct assertion is deterministic
/// (without the blocker, a fast machine can finish a request before its
/// duplicates are even submitted, which is correct but unassertable).
bool duplicate_heavy(const nn::network& net, const soc::platform& plat, const scale& s,
                     bench::json_reporter& json) {
  std::cout << "--- duplicate-heavy burst (coalescing) ---\n";
  const std::size_t distinct = 6;
  const std::size_t dup = 4;

  serving::service_options opt;
  opt.engine.threads = s.threads;
  opt.workers = 1;
  serving::mapping_service service{opt};
  service.register_network(net);
  service.register_platform(plat);

  // The blocker's GA budget (a cold search of >= 10x16) dwarfs the
  // microseconds the burst below takes to submit.
  scale blocker_scale = s;
  blocker_scale.generations = std::max<std::size_t>(10, s.generations);
  blocker_scale.population = std::max<std::size_t>(16, s.population);
  auto blocker = service.submit(make_request(net, 99, blocker_scale));

  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (std::size_t round = 0; round < dup; ++round)
    for (std::size_t i = 0; i < distinct; ++i)
      futures.push_back(service.submit(make_request(net, 100 + i, s)));
  std::vector<serving::mapping_report> reports;
  reports.reserve(futures.size());
  for (auto& f : futures) reports.push_back(f.get());
  (void)blocker.get();

  const serving::scheduler_stats st = service.scheduler();
  const std::size_t total = distinct * dup;
  util::table t({"requests", "distinct", "executions", "coalesced", "rejected"});
  t.add_row({std::to_string(total), std::to_string(distinct),
             std::to_string(st.completed - 1),  // minus the blocker
             std::to_string(st.coalesced), std::to_string(st.rejected)});
  std::cout << t.str();

  bool ok = check(st.submitted == total + 1, "all submits counted");
  ok &= check(st.completed == distinct + 1,
              util::format("evaluator executions == distinct requests (%zu == %zu)",
                           st.completed - 1, distinct));
  ok &= check(st.coalesced == total - distinct,
              util::format("coalesced == duplicate count (%zu == %zu)", st.coalesced,
                           total - distinct));
  // Duplicates must see the identical report as their representative.
  for (std::size_t i = 0; i < distinct; ++i)
    for (std::size_t round = 1; round < dup; ++round) {
      const auto& a = reports[i];
      const auto& b = reports[round * distinct + i];
      if (a.front.size() != b.front.size() ||
          a.best().objective != b.best().objective) {
        ok = check(false, "coalesced duplicate diverged from its representative");
        round = dup;
        i = distinct;
      }
    }
  ok &= check(counters_reconcile(st), "counters reconcile");
  json.metric("dup_executions", static_cast<double>(st.completed - 1));
  json.metric("dup_coalesced", static_cast<double>(st.coalesced));
  json.metric("dup_ok", ok ? 1.0 : 0.0);
  std::cout << "\n";
  return ok;
}

/// Scenario (b): one adversarial session floods the queue; three polite
/// sessions submit a little work each. With a single dispatch worker the
/// completion ordinals are deterministic, so fairness is a hard assertion.
bool flood_fairness(const nn::network& net, const soc::platform& plat, const scale& s,
                    bench::json_reporter& json) {
  std::cout << "--- single-session flood (fairness) ---\n";
  const std::size_t flood_n = 12;
  const std::size_t polite_sessions = 3;
  const std::size_t polite_n = 3;  // requests per polite session

  serving::service_options opt;
  opt.engine.threads = s.threads;
  opt.workers = 1;  // completion order == dispatch order
  serving::mapping_service service{opt};
  service.register_network(net);
  service.register_platform(plat);

  // The flood goes in first — a FIFO dispatcher would finish every flood
  // request before the first polite one. Distinct reuse caps key distinct
  // sessions, i.e. distinct fairness lanes.
  std::vector<std::shared_future<serving::mapping_report>> flood;
  for (std::size_t i = 0; i < flood_n; ++i)
    flood.push_back(service.submit(make_request(net, 200 + i, s, 1.0)));
  std::vector<std::vector<std::shared_future<serving::mapping_report>>> polite(polite_sessions);
  for (std::size_t c = 0; c < polite_sessions; ++c)
    for (std::size_t i = 0; i < polite_n; ++i)
      polite[c].push_back(service.submit(make_request(net, 300 + i, s, 0.9 - 0.1 * c)));

  const std::size_t total = flood_n + polite_sessions * polite_n;
  std::vector<std::size_t> polite_last(polite_sessions, 0);
  for (std::size_t c = 0; c < polite_sessions; ++c)
    for (auto& f : polite[c]) {
      const serving::mapping_report rep = f.get();
      polite_last[c] = std::max(polite_last[c], rep.scheduler->completed);
    }
  std::size_t flood_last = 0;
  for (auto& f : flood) flood_last = std::max(flood_last, f.get().scheduler->completed);

  util::table t({"session", "requests", "last completion (of " + std::to_string(total) + ")"});
  t.add_row({"flood", std::to_string(flood_n), std::to_string(flood_last)});
  for (std::size_t c = 0; c < polite_sessions; ++c)
    t.add_row({"polite-" + std::to_string(c), std::to_string(polite_n),
               std::to_string(polite_last[c])});
  std::cout << t.str();

  // Round-robin bound: each polite session finishes its k-th request within
  // the k-th rotation (one flood + three polite dispatches per rotation),
  // plus the flood request already executing when the burst arrived. A small
  // slack absorbs submission-order jitter between the burst loops.
  const std::size_t rotation = 1 + polite_sessions;
  const std::size_t bound = 1 + polite_n * rotation + 2;
  bool ok = true;
  std::size_t worst = 0;
  std::size_t best = total;
  for (std::size_t c = 0; c < polite_sessions; ++c) {
    worst = std::max(worst, polite_last[c]);
    best = std::min(best, polite_last[c]);
  }
  ok &= check(worst <= bound,
              util::format("no polite session starves (last completion %zu <= %zu)", worst,
                           bound));
  ok &= check(flood_last == total, "the flood pays the queueing cost, not the polite sessions");
  const double ratio = best == 0 ? 0.0 : static_cast<double>(worst) / static_cast<double>(best);
  ok &= check(ratio <= 1.5, util::format("per-session completion ratio bounded (%.2f <= 1.5)",
                                         ratio));
  ok &= check(counters_reconcile(service.scheduler()), "counters reconcile");
  json.metric("flood_polite_worst_completion", static_cast<double>(worst));
  json.metric("flood_completion_ratio", ratio);
  json.metric("flood_ok", ok ? 1.0 : 0.0);
  std::cout << "\n";
  return ok;
}

/// Scenario (c): a bounded queue under the reject policy — overload is
/// turned away as typed admission_errors instead of piling up.
bool bounded_rejection(const nn::network& net, const soc::platform& plat, const scale& s,
                       bench::json_reporter& json) {
  std::cout << "--- bounded queue (reject policy) ---\n";
  serving::service_options opt;
  opt.engine.threads = s.threads;
  opt.workers = 2;
  opt.scheduler.max_queued = 2;
  opt.scheduler.policy = serving::admission_policy::reject;
  serving::mapping_service service{opt};
  service.register_network(net);
  service.register_platform(plat);

  const std::size_t burst = 10;
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (std::size_t i = 0; i < burst; ++i)
    futures.push_back(service.submit(make_request(net, 400 + i, s)));

  std::size_t served = 0;
  std::size_t rejected = 0;
  bool typed = true;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++served;
    } catch (const serving::admission_error& e) {
      typed &= e.why() == serving::admission_error::reason::queue_full;
      ++rejected;
    }
  }
  const serving::scheduler_stats st = service.scheduler();
  util::table t({"burst", "served", "rejected"});
  t.add_row({std::to_string(burst), std::to_string(served), std::to_string(rejected)});
  std::cout << t.str();

  bool ok = check(rejected > 0, "overload was rejected, not queued unboundedly");
  ok &= check(typed, "rejections carry admission_error::reason::queue_full");
  ok &= check(served + rejected == burst, "every future resolved");
  ok &= check(st.rejected == rejected && st.completed == served, "stats match observations");
  ok &= check(counters_reconcile(st), "counters reconcile");
  json.metric("reject_burst_rejected", static_cast<double>(rejected));
  json.metric("reject_ok", ok ? 1.0 : 0.0);
  std::cout << "\n";
  return ok;
}

/// Nightly soak (MAPCQ_SOAK_REQUESTS > 0): a sustained duplicate-heavy,
/// multi-priority stream across several session lanes. The point is not a
/// new scheduling property but *accounting under volume*: every one of the
/// N futures must resolve with a report and the coalescing/fairness
/// counters must still reconcile exactly once drained.
bool soak(const nn::network& net, const soc::platform& plat, const scale& s, std::size_t n,
          bench::json_reporter& json) {
  std::cout << "--- soak: " << n << " submits ---\n";
  serving::service_options opt;
  opt.engine.threads = s.threads;
  opt.workers = 4;
  serving::mapping_service service{opt};
  service.register_network(net);
  service.register_platform(plat);

  // Tiny per-request GA: the soak stresses the scheduler and the session
  // registry, not the search; coalescing and the session caches absorb the
  // duplicate-heavy stream.
  scale tiny = s;
  tiny.generations = std::min<std::size_t>(s.generations, 2);
  tiny.population = std::min<std::size_t>(s.population, 8);

  const std::size_t sessions = 8;
  const std::size_t distinct = 24;  // distinct seeds per session lane
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  futures.reserve(n);
  serving::latency_watch watch;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lane = i % sessions;
    auto req = make_request(net, 1000 + (i / sessions) % distinct, tiny,
                            1.0 - 0.05 * static_cast<double>(lane));
    req.priority = static_cast<int>(i % 3);
    futures.push_back(service.submit(std::move(req)));
    watch.add(futures.back(), std::chrono::steady_clock::now());
  }
  // Sweep to completion first so every sojourn is stamped as its future
  // turns ready; the get() drain below then resolves instantly.
  const std::vector<double> latencies = watch.wait_all();
  std::size_t resolved = 0;
  std::size_t failed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
      ++resolved;
    } catch (...) {
      ++failed;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const double p50 = util::percentile(latencies, 50.0);
  const double p95 = util::percentile(latencies, 95.0);
  const double p99 = util::percentile(latencies, 99.0);

  const serving::scheduler_stats st = service.scheduler();
  util::table t({"submits", "executions", "coalesced", "failed", "p50 (ms)", "p95 (ms)", "p99 (ms)",
                 "wall (s)"});
  t.add_row({std::to_string(n), std::to_string(st.completed), std::to_string(st.coalesced),
             std::to_string(failed), bench::fmt(p50), bench::fmt(p95), bench::fmt(p99),
             util::format("%.2f", wall_s)});
  std::cout << t.str();

  bool ok = check(resolved == n && failed == 0, "every soak future resolved with a report");
  ok &= check(st.submitted == n, "all soak submits counted");
  ok &= check(counters_reconcile(st), "counters reconcile exactly after the soak");
  json.metric("soak_requests", static_cast<double>(n));
  json.metric("soak_executions", static_cast<double>(st.completed));
  json.metric("soak_coalesced", static_cast<double>(st.coalesced));
  json.metric("soak_p50_ms", p50);
  json.metric("soak_p95_ms", p95);
  json.metric("soak_p99_ms", p99);
  json.metric("soak_wall_s", wall_s);
  json.metric("soak_ok", ok ? 1.0 : 0.0);
  std::cout << "\n";
  return ok;
}

}  // namespace

int main() {
  const scale s;
  const nn::network net = nn::build_simple_cnn();
  const soc::platform plat = soc::agx_xavier();

  std::cout << "=== service throughput: scheduler under concurrent submit() streams ===\n";
  std::cout << util::format("GA scale: %zu generations x %zu population, %zu engine threads\n\n",
                            s.generations, s.population, s.threads);

  bench::json_reporter json{"service_throughput"};
  bool ok = duplicate_heavy(net, plat, s, json);
  ok &= flood_fairness(net, plat, s, json);
  ok &= bounded_rejection(net, plat, s, json);
  if (const std::size_t soak_n = env_or("MAPCQ_SOAK_REQUESTS", 0); soak_n > 0)
    ok &= soak(net, plat, s, soak_n, json);

  std::cout << (ok ? "overall: OK\n" : "overall: FAILED\n");
  return ok ? 0 : 1;
}

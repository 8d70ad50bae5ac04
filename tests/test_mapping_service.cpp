// Serving front-end tests: session registry keying, warm-cache reuse with
// bit-identical reports, cross-phase cache continuity, one-shot surrogate
// training, the service's predictor pool (single flight, failed fits,
// LRU bound, snapshot keys, a shared row memo), async submission,
// concurrency (shared session vs isolated sessions, a stats poll during a
// fit), report-summary round-trips and the scheduler row's two arities.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/search_space.h"
#include "core/serialization.h"
#include "nn/models.h"
#include "serving/mapping_service.h"
#include "serving/predictor_pool.h"
#include "serving/session_snapshot.h"
#include "soc/platform.h"
#include "util/rng.h"

namespace {

using namespace mapcq;
using serving::mapping_report;
using serving::mapping_request;
using serving::mapping_service;
using serving::service_options;

service_options small_service() {
  service_options opt;
  opt.engine.threads = 2;
  return opt;
}

mapping_request tiny_request(const std::string& network, std::uint64_t ga_seed = 1) {
  mapping_request req;
  req.network = network;
  req.use_surrogate = false;  // analytic by default: fast and cache-transparent
  req.ga.generations = 6;
  req.ga.population = 12;
  req.ga.seed = ga_seed;
  return req;
}

void expect_same_front(const mapping_report& a, const mapping_report& b) {
  ASSERT_EQ(a.front.size(), b.front.size());
  EXPECT_EQ(a.ours_latency_index, b.ours_latency_index);
  EXPECT_EQ(a.ours_energy_index, b.ours_energy_index);
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_TRUE(a.front[i].config == b.front[i].config);
    EXPECT_EQ(a.front[i].objective, b.front[i].objective);
    EXPECT_EQ(a.front[i].avg_latency_ms, b.front[i].avg_latency_ms);
    EXPECT_EQ(a.front[i].avg_energy_mj, b.front[i].avg_energy_mj);
    EXPECT_EQ(a.front[i].accuracy_pct, b.front[i].accuracy_pct);
  }
}

struct service_fixture : ::testing::Test {
  nn::network cnn = nn::build_simple_cnn();
  nn::network mobile = nn::build_mobilenet_cifar();
  soc::platform plat = soc::agx_xavier();
  mapping_service service{small_service()};

  service_fixture() {
    service.register_network(cnn);
    service.register_network(mobile);
    service.register_platform(plat);
  }
};

TEST_F(service_fixture, warm_session_reuses_cache_and_is_bit_identical) {
  const mapping_request req = tiny_request(cnn.name);
  const mapping_report cold = service.map(req);
  const mapping_report warm = service.map(req);

  EXPECT_EQ(service.session_count(), 1u);
  EXPECT_EQ(warm.session_key, cold.session_key);
  // Every candidate of the warm rerun was evaluated by the cold run.
  EXPECT_GT(cold.search_cache.misses, 0u);
  EXPECT_EQ(warm.search_cache.misses, 0u);
  EXPECT_EQ(warm.validation_cache.misses, 0u);
  expect_same_front(cold, warm);
  ASSERT_EQ(cold.search.history.size(), warm.search.history.size());
  for (std::size_t g = 0; g < cold.search.history.size(); ++g)
    EXPECT_EQ(cold.search.history[g].best_objective, warm.search.history[g].best_objective);
}

TEST_F(service_fixture, analytic_search_validates_as_cross_phase_hits) {
  const mapping_report rep = service.map(tiny_request(cnn.name));
  ASSERT_FALSE(rep.front.empty());
  EXPECT_GT(rep.validation_cache.hits, 0u);
  EXPECT_EQ(rep.validation_cache.misses, 0u);
  EXPECT_EQ(rep.validation_cache.hits + rep.validation_cache.dedup, rep.front.size());
  EXPECT_FALSE(rep.surrogate_fidelity.has_value());
}

TEST_F(service_fixture, report_front_has_no_repeated_configurations) {
  mapping_request islands = tiny_request(cnn.name, 3);
  islands.ga.population = 16;
  islands.ga.island.islands = 2;
  for (const mapping_request& req : {tiny_request(cnn.name), islands}) {
    const mapping_report rep = service.map(req);
    ASSERT_FALSE(rep.front.empty());
    for (std::size_t i = 0; i < rep.front.size(); ++i)
      for (std::size_t j = i + 1; j < rep.front.size(); ++j)
        EXPECT_FALSE(rep.front[i].config == rep.front[j].config)
            << "front[" << i << "] repeats at " << j;
  }
}

TEST_F(service_fixture, surrogate_trains_once_per_session) {
  mapping_request req = tiny_request(cnn.name);
  req.use_surrogate = true;
  req.bench.samples = 600;
  req.gbt.n_trees = 30;

  const mapping_report first = service.map(req);
  const mapping_report second = service.map(req);
  EXPECT_EQ(service.session_count(), 1u);  // same key as an analytic request would use
  EXPECT_TRUE(first.trained_surrogate);
  EXPECT_FALSE(second.trained_surrogate);
  ASSERT_TRUE(first.surrogate_fidelity.has_value());
  ASSERT_TRUE(second.surrogate_fidelity.has_value());
  EXPECT_EQ(first.surrogate_fidelity->latency_mape, second.surrogate_fidelity->latency_mape);
  EXPECT_EQ(second.search_cache.misses, 0u);  // warm surrogate engine
  expect_same_front(first, second);

  // A session's predictor is immutable: different training knobs are an error,
  // nested ones included.
  mapping_request clashing = req;
  clashing.gbt.n_trees = 31;
  EXPECT_THROW((void)service.map(clashing), std::invalid_argument);
  clashing = req;
  clashing.gbt.tree.min_gain *= 2;
  EXPECT_THROW((void)service.map(clashing), std::invalid_argument);
  clashing = req;
  clashing.bench.model.bandwidth_contention *= 2;
  EXPECT_THROW((void)service.map(clashing), std::invalid_argument);
}

// The paper flow end to end (Fig. 5): train the session GBT, search on it,
// validate the front analytically and pick Ours-L / Ours-E (Table II).
TEST_F(service_fixture, surrogate_search_is_faithful_and_picks_within_slack) {
  mapping_request req = tiny_request(cnn.name, 17);
  req.use_surrogate = true;
  req.bench.samples = 800;
  req.gbt.n_trees = 40;
  const mapping_report rep = service.map(req);

  ASSERT_FALSE(rep.front.empty());
  ASSERT_TRUE(rep.surrogate_fidelity.has_value());
  EXPECT_LT(rep.surrogate_fidelity->latency_mape, 25.0);
  EXPECT_LT(rep.ours_latency_index, rep.front.size());
  EXPECT_LT(rep.ours_energy_index, rep.front.size());
  // The energy pick never costs more energy than the latency pick.
  EXPECT_LE(rep.ours_energy().avg_energy_mj, rep.ours_latency().avg_energy_mj + 1e-9);
  // Slack rule: the energy pick stays near the best validated accuracy.
  double best_acc = 0.0;
  for (const auto& e : rep.front) best_acc = std::max(best_acc, e.accuracy_pct);
  EXPECT_GE(rep.ours_energy().accuracy_pct, best_acc - req.ours_e_accuracy_slack - 1e-9);
}

TEST_F(service_fixture, submit_serves_async_and_propagates_errors) {
  std::shared_future<mapping_report> pending = service.submit(tiny_request(cnn.name));
  const mapping_report rep = pending.get();
  EXPECT_FALSE(rep.front.empty());
  // The submit() path rides through the scheduler and says so.
  ASSERT_TRUE(rep.scheduler.has_value());
  EXPECT_GE(rep.scheduler->completed, 1u);
  // One request per pick: the legacy fusion counters never move.
  EXPECT_EQ(rep.scheduler->fused, 0u);
  EXPECT_EQ(rep.scheduler->fused_batches, 0u);

  // Unknown networks are admitted (the lane is computed leniently) and fail
  // inside the worker, surfacing at get() like any execution error.
  std::shared_future<mapping_report> bogus = service.submit(tiny_request("no-such-network"));
  EXPECT_THROW((void)bogus.get(), std::invalid_argument);
  EXPECT_GE(service.scheduler().failed, 1u);

  // A direct map() bypasses the scheduler and carries no snapshot.
  EXPECT_FALSE(service.map(tiny_request(cnn.name)).scheduler.has_value());
}

TEST_F(service_fixture, rejects_unregistered_platform_and_foreign_predictor) {
  mapping_request req = tiny_request(cnn.name);
  req.platform = "no-such-platform";
  EXPECT_THROW((void)service.map(req), std::invalid_argument);

  // Sessions own their predictors: a caller-trained one is refused.
  surrogate::benchmark_options bopt;
  bopt.samples = 200;
  surrogate::gbt_params gopt;
  gopt.n_trees = 5;
  const surrogate::hw_predictor foreign{surrogate::generate_benchmark({&cnn}, plat, bopt), gopt};
  mapping_request with_predictor = tiny_request(cnn.name);
  with_predictor.eval.predictor = &foreign;
  EXPECT_THROW((void)service.map(with_predictor), std::invalid_argument);
}

TEST_F(service_fixture, concurrent_requests_on_one_session_share_the_cache) {
  // Baseline: one cold run on its own service/session.
  mapping_service solo{small_service()};
  solo.register_network(cnn);
  solo.register_platform(plat);
  const mapping_request req = tiny_request(cnn.name);
  const mapping_report single = solo.map(req);
  const std::size_t solo_misses = solo.session_for(req)->analytic_cache_stats().misses;
  ASSERT_GT(solo_misses, 0u);

  // Two COLD requests race on one fresh session, with service-level
  // coalescing disabled so both actually execute. Thanks to the engine's
  // cross-thread in-flight dedup, a candidate the first thread is already
  // evaluating is joined — never re-run — so the combined evaluator-run
  // count across both racing requests is *exactly* one cold run's worth,
  // for any interleaving.
  service_options racing_opt = small_service();
  racing_opt.scheduler.coalesce = false;
  mapping_service racing{racing_opt};
  racing.register_network(cnn);
  racing.register_platform(plat);
  std::shared_future<mapping_report> a = racing.submit(req);
  std::shared_future<mapping_report> b = racing.submit(req);
  const mapping_report ra = a.get();
  const mapping_report rb = b.get();
  EXPECT_EQ(racing.session_count(), 1u);
  EXPECT_EQ(racing.scheduler().coalesced, 0u);
  EXPECT_EQ(racing.scheduler().completed, 2u);
  const std::size_t shared_misses = racing.session_for(req)->analytic_cache_stats().misses;
  EXPECT_EQ(shared_misses, solo_misses);
  // Purity: both threads land on the identical result regardless of races.
  expect_same_front(ra, rb);
  expect_same_front(ra, single);
}

TEST_F(service_fixture, coalesced_submits_share_one_execution) {
  // Default scheduler: an identical submit joins a queued/in-flight
  // request. The assertions below hold for any interleaving (even if the
  // first request finished before the duplicates arrived).
  const mapping_request req = tiny_request(cnn.name);
  std::shared_future<mapping_report> a = service.submit(req);
  std::shared_future<mapping_report> b = service.submit(req);
  std::shared_future<mapping_report> c = service.submit(req);
  const mapping_report ra = a.get();
  const mapping_report rb = b.get();
  const mapping_report rc = c.get();
  const serving::scheduler_stats stats = service.scheduler();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted + stats.coalesced, 3u);
  EXPECT_EQ(stats.completed, stats.admitted);
  // However the race went, every future saw the same validated front.
  expect_same_front(ra, rb);
  expect_same_front(ra, rc);
  ASSERT_TRUE(ra.scheduler.has_value());
}

TEST_F(service_fixture, island_requests_flow_through_the_service) {
  mapping_request req = tiny_request(cnn.name);
  req.ga.population = 16;
  req.ga.island.islands = 2;
  req.ga.island.migration_interval = 2;
  const mapping_report cold = service.map(req);
  EXPECT_EQ(cold.search.islands, 2u);
  EXPECT_FALSE(cold.front.empty());
  // Island searches are deterministic, so the warm rerun replays from cache.
  const mapping_report warm = service.map(req);
  EXPECT_EQ(warm.search_cache.misses, 0u);
  expect_same_front(cold, warm);
  // Island knobs are per-request (like the rest of ga_options): both runs
  // were served by one session.
  EXPECT_EQ(service.session_count(), 1u);
}

TEST(service_lifetime, rejects_zero_workers) {
  service_options opt = small_service();
  opt.workers = 0;
  EXPECT_THROW(mapping_service{opt}, std::invalid_argument);
}

TEST(service_lifetime, lru_cap_bounds_the_session_registry) {
  service_options opt;
  opt.engine.threads = 2;
  opt.max_sessions = 1;
  mapping_service service{opt};
  const nn::network cnn = nn::build_simple_cnn();
  const nn::network mobile = nn::build_mobilenet_cifar();
  service.register_network(cnn);
  service.register_network(mobile);
  service.register_platform(soc::agx_xavier());

  (void)service.map(tiny_request(cnn.name));
  EXPECT_EQ(service.session_count(), 1u);
  EXPECT_EQ(service.sessions_evicted(), 0u);

  // A second tuple evicts the least-recently-used session.
  (void)service.map(tiny_request(mobile.name));
  EXPECT_EQ(service.session_count(), 1u);
  EXPECT_EQ(service.sessions_evicted(), 1u);

  // The evicted tuple comes back cold (fresh session, fresh cache).
  const mapping_report again = service.map(tiny_request(cnn.name));
  EXPECT_GT(again.search_cache.misses, 0u);
  EXPECT_EQ(service.sessions_evicted(), 2u);
}

TEST(service_lifetime, idle_sessions_expire_after_the_ttl) {
  service_options opt;
  opt.engine.threads = 2;
  opt.session_ttl = std::chrono::milliseconds{250};
  mapping_service service{opt};
  const nn::network cnn = nn::build_simple_cnn();
  service.register_network(cnn);
  service.register_platform(soc::agx_xavier());

  const mapping_request req = tiny_request(cnn.name);
  const mapping_report cold = service.map(req);
  EXPECT_GT(cold.search_cache.misses, 0u);

  // Within the TTL the session is warm...
  const mapping_report warm = service.map(req);
  EXPECT_EQ(warm.search_cache.misses, 0u);

  // ...and after sitting idle past it, the tuple is served cold again.
  std::this_thread::sleep_for(std::chrono::milliseconds{600});
  const mapping_report expired = service.map(req);
  EXPECT_GT(expired.search_cache.misses, 0u);
  EXPECT_GE(service.sessions_evicted(), 1u);
  expect_same_front(cold, expired);  // determinism survives the round trip
}

TEST_F(service_fixture, reregistering_a_network_forks_a_fresh_session) {
  const mapping_request req = tiny_request(cnn.name);
  const mapping_report before = service.map(req);

  // Replace the registered network under the same name: subsequent requests
  // must not be served from the stale session's warm cache.
  nn::network tweaked = cnn;
  tweaked.base_accuracy += 1.0;
  service.register_network(tweaked);
  const mapping_report after = service.map(req);
  EXPECT_NE(after.session_key, before.session_key);
  EXPECT_EQ(service.session_count(), 2u);
  EXPECT_GT(after.search_cache.misses, 0u);  // cold session, not the old cache
}

TEST_F(service_fixture, different_networks_get_isolated_sessions) {
  const mapping_request cnn_req = tiny_request(cnn.name);
  const mapping_request mobile_req = tiny_request(mobile.name);
  const auto cnn_session = service.session_for(cnn_req);
  const auto mobile_session = service.session_for(mobile_req);
  EXPECT_EQ(service.session_count(), 2u);
  EXPECT_NE(cnn_session->key(), mobile_session->key());

  (void)service.map(cnn_req);
  // Traffic for one network never lands in the other's shards.
  EXPECT_EQ(mobile_session->analytic_cache_stats().lookups(), 0u);
  const core::engine_stats cnn_after = cnn_session->analytic_cache_stats();
  EXPECT_GT(cnn_after.lookups(), 0u);

  (void)service.map(mobile_req);
  const core::engine_stats cnn_unchanged = cnn_session->analytic_cache_stats();
  EXPECT_EQ(cnn_unchanged.lookups(), cnn_after.lookups());
  EXPECT_EQ(cnn_unchanged.misses, cnn_after.misses);
  EXPECT_GT(mobile_session->analytic_cache_stats().lookups(), 0u);
}

TEST_F(service_fixture, report_summary_roundtrips_through_text) {
  const mapping_report rep = service.map(tiny_request(cnn.name));
  const core::report_summary summary = rep.summary();
  ASSERT_EQ(summary.entries.size(), rep.front.size());
  EXPECT_EQ(summary.ours_latency_index, rep.ours_latency_index);
  EXPECT_EQ(summary.ours_energy_index, rep.ours_energy_index);

  const std::string text = core::to_text(summary);
  const core::report_summary back = core::report_summary_from_text(text);
  EXPECT_EQ(back.network, summary.network);
  EXPECT_EQ(back.platform, summary.platform);
  EXPECT_EQ(back.ours_latency_index, summary.ours_latency_index);
  EXPECT_EQ(back.ours_energy_index, summary.ours_energy_index);
  ASSERT_EQ(back.entries.size(), summary.entries.size());
  for (std::size_t i = 0; i < back.entries.size(); ++i) {
    const core::summary_entry& x = back.entries[i];
    const core::summary_entry& y = summary.entries[i];
    EXPECT_EQ(x.label, y.label);
    EXPECT_TRUE(x.config == y.config);
    EXPECT_EQ(x.feasible, y.feasible);
    EXPECT_EQ(x.objective, y.objective);
    EXPECT_EQ(x.avg_latency_ms, y.avg_latency_ms);
    EXPECT_EQ(x.avg_energy_mj, y.avg_energy_mj);
    EXPECT_EQ(x.accuracy_pct, y.accuracy_pct);
    EXPECT_EQ(x.fmap_reuse_pct, y.fmap_reuse_pct);
  }

  EXPECT_THROW((void)core::report_summary_from_text("garbage"), std::runtime_error);

  // The optional scheduler-counter line round-trips too (submit() reports
  // carry it; the plain map() report above had none).
  EXPECT_FALSE(summary.scheduler.has_value());
  core::report_summary with_sched = summary;
  with_sched.scheduler = core::scheduler_note{7, 4, 2, 1, 1, 3, 0};
  const core::report_summary back2 = core::report_summary_from_text(core::to_text(with_sched));
  ASSERT_TRUE(back2.scheduler.has_value());
  EXPECT_EQ(back2.scheduler->submitted, 7u);
  EXPECT_EQ(back2.scheduler->admitted, 4u);
  EXPECT_EQ(back2.scheduler->coalesced, 2u);
  EXPECT_EQ(back2.scheduler->rejected, 1u);
  EXPECT_EQ(back2.scheduler->expired, 1u);
  EXPECT_EQ(back2.scheduler->completed, 3u);
  EXPECT_EQ(back2.scheduler->failed, 0u);
}

TEST_F(service_fixture, orientation_selects_the_best_pick) {
  mapping_request req = tiny_request(cnn.name);
  req.orientation = serving::objective_orientation::energy;
  const mapping_report energy = service.map(req);
  EXPECT_EQ(energy.best().avg_energy_mj, energy.ours_energy().avg_energy_mj);

  req.orientation = serving::objective_orientation::latency;
  const mapping_report latency = service.map(req);
  EXPECT_EQ(latency.best().avg_latency_ms, latency.ours_latency().avg_latency_ms);

  req.orientation = serving::objective_orientation::balanced;
  const mapping_report balanced = service.map(req);
  for (const auto& e : balanced.front)
    EXPECT_LE(balanced.best().objective, e.objective);
}

// ---------------------------------------------------------------------------
// Predictor pool: one fit per (network, platform, bench, gbt), shared by
// every session with that key, without changing a bit of any report.
// ---------------------------------------------------------------------------

mapping_request surrogate_request(const std::string& network, std::uint64_t ranking_seed) {
  mapping_request req = tiny_request(network);
  req.use_surrogate = true;
  req.ranking_seed = ranking_seed;
  req.bench.samples = 400;
  req.gbt.n_trees = 12;
  return req;
}

void expect_same_fidelity(const surrogate::hw_predictor::fidelity& a,
                          const surrogate::hw_predictor::fidelity& b) {
  EXPECT_EQ(a.latency_rmse, b.latency_rmse);
  EXPECT_EQ(a.latency_mape, b.latency_mape);
  EXPECT_EQ(a.latency_r2, b.latency_r2);
  EXPECT_EQ(a.energy_rmse, b.energy_rmse);
  EXPECT_EQ(a.energy_mape, b.energy_mape);
  EXPECT_EQ(a.energy_r2, b.energy_r2);
}

struct pool_fixture : ::testing::Test {
  std::shared_ptr<const nn::network> net =
      std::make_shared<const nn::network>(nn::build_simple_cnn());
  std::shared_ptr<const soc::platform> plat =
      std::make_shared<const soc::platform>(soc::agx_xavier());
  surrogate::benchmark_options bench = surrogate_request(net->name, 0).bench;
  surrogate::gbt_params gbt = surrogate_request(net->name, 0).gbt;
};

TEST_F(pool_fixture, pooled_predictor_scores_bit_identically_to_a_fresh_fit) {
  serving::predictor_pool pool;
  bool fitted = false;
  const serving::pooled_fit first = pool.acquire(net, plat, bench, gbt, &fitted);
  EXPECT_TRUE(fitted);
  const serving::pooled_fit again = pool.acquire(net, plat, bench, gbt, &fitted);
  EXPECT_FALSE(fitted);
  EXPECT_EQ(again.predictor, first.predictor);  // one immutable predictor, shared
  EXPECT_EQ(pool.size(), 1u);

  const surrogate::dataset_split parts = serving::surrogate_split(*net, *plat, bench);
  const surrogate::hw_predictor fresh{parts.train, gbt};
  std::vector<double> rows;
  for (const std::vector<double>& x : parts.test.x) rows.insert(rows.end(), x.begin(), x.end());
  const std::size_t n = parts.test.size();
  ASSERT_GT(n, 0u);
  std::vector<double> lat_pooled(n), en_pooled(n), lat_fresh(n), en_fresh(n);
  first.predictor->predict(rows, lat_pooled, en_pooled);
  fresh.predict(rows, lat_fresh, en_fresh);
  EXPECT_EQ(lat_pooled, lat_fresh);
  EXPECT_EQ(en_pooled, en_fresh);
  expect_same_fidelity(first.fidelity, fresh.evaluate(parts.test));
}

TEST_F(pool_fixture, failed_fit_reaches_its_waiter_and_the_next_caller_fits_again) {
  std::atomic<int> calls{0};
  std::promise<void> release;
  const std::shared_future<void> go = release.get_future().share();
  serving::predictor_pool pool{[&](const nn::network& n, const soc::platform& p,
                                   const surrogate::benchmark_options& b,
                                   const surrogate::gbt_params& g) {
    if (calls.fetch_add(1) == 0) {
      go.wait();
      throw std::runtime_error("injected fit failure");
    }
    return serving::fit_surrogate(n, p, b, g);
  }};

  auto fitter = std::async(std::launch::async, [&] { return pool.acquire(net, plat, bench, gbt); });
  while (pool.stats().fits == 0) std::this_thread::yield();
  auto waiter = std::async(std::launch::async, [&] { return pool.acquire(net, plat, bench, gbt); });
  // The waiter counts as a hit once it holds the in-flight fit's future.
  while (pool.stats().hits == 0) std::this_thread::yield();
  release.set_value();
  EXPECT_THROW((void)fitter.get(), std::runtime_error);
  EXPECT_THROW((void)waiter.get(), std::runtime_error);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(pool.size(), 0u);  // the failed entry is gone, not poisoned
  EXPECT_EQ(pool.stats().failures, 1u);

  bool fitted = false;
  const serving::pooled_fit retried = pool.acquire(net, plat, bench, gbt, &fitted);
  EXPECT_TRUE(fitted);
  EXPECT_EQ(calls.load(), 2);
  const serving::pooled_fit adopted = pool.acquire(net, plat, bench, gbt, &fitted);
  EXPECT_FALSE(fitted);
  EXPECT_EQ(adopted.predictor, retried.predictor);
  EXPECT_EQ(calls.load(), 2);
}

TEST_F(pool_fixture, capacity_evicts_the_least_recently_acquired_fit) {
  std::size_t calls = 0;  // acquire runs on this thread only
  const serving::pooled_fit shared = serving::fit_surrogate(*net, *plat, bench, gbt);
  serving::predictor_pool pool{[&](const auto&...) {
    ++calls;
    return shared;
  }};
  const auto seeded = [&](std::uint64_t seed) {
    surrogate::benchmark_options b = bench;
    b.seed = seed;
    return b;
  };
  constexpr std::size_t cap = serving::predictor_pool::capacity;
  for (std::uint64_t s = 0; s < cap; ++s) (void)pool.acquire(net, plat, seeded(s), gbt);
  EXPECT_EQ(calls, cap);
  (void)pool.acquire(net, plat, seeded(0), gbt);    // seed 1 is now the least recent
  (void)pool.acquire(net, plat, seeded(cap), gbt);  // ...and is evicted
  EXPECT_EQ(pool.size(), cap);
  EXPECT_EQ(pool.stats().evictions, 1u);
  bool fitted = true;
  (void)pool.acquire(net, plat, seeded(0), gbt, &fitted);
  EXPECT_FALSE(fitted);
  (void)pool.acquire(net, plat, seeded(1), gbt, &fitted);
  EXPECT_TRUE(fitted);

  // Nested knobs take part in the key through the defaulted operator==.
  surrogate::gbt_params nested = gbt;
  nested.tree.min_gain *= 2;
  (void)pool.acquire(net, plat, seeded(0), nested, &fitted);
  EXPECT_TRUE(fitted);
}

TEST_F(service_fixture, concurrent_cold_sessions_fit_one_surrogate) {
  std::vector<std::future<mapping_report>> runs;
  for (std::uint64_t r = 0; r < 4; ++r)
    runs.push_back(std::async(std::launch::async, [this, r] {
      return service.map(surrogate_request(cnn.name, 100 + r));
    }));
  std::vector<mapping_report> reps;
  for (auto& run : runs) reps.push_back(run.get());
  EXPECT_EQ(service.session_count(), 4u);
  std::size_t fitted = 0;
  for (const mapping_report& rep : reps) {
    fitted += rep.trained_surrogate ? 1 : 0;
    ASSERT_TRUE(rep.surrogate_fidelity.has_value());
    expect_same_fidelity(*rep.surrogate_fidelity, *reps.front().surrogate_fidelity);
  }
  EXPECT_EQ(fitted, 1u);

  // Whichever session fitted, each report equals one from a service that
  // fits for that session alone.
  mapping_service solo{small_service()};
  solo.register_network(cnn);
  solo.register_platform(plat);
  const mapping_report alone = solo.map(surrogate_request(cnn.name, 103));
  EXPECT_TRUE(alone.trained_surrogate);
  expect_same_front(alone, reps[3]);
  EXPECT_EQ(core::to_text(alone.summary()), core::to_text(reps[3].summary()));
}

TEST_F(service_fixture, reregistered_network_or_platform_misses_the_pool) {
  EXPECT_TRUE(service.map(surrogate_request(cnn.name, 1)).trained_surrogate);
  const mapping_report pooled = service.map(surrogate_request(cnn.name, 2));
  EXPECT_FALSE(pooled.trained_surrogate);

  // Same contents, new snapshots: each re-registration fits again.
  service.register_network(cnn);
  const mapping_report new_net = service.map(surrogate_request(cnn.name, 2));
  EXPECT_TRUE(new_net.trained_surrogate);
  service.register_platform(plat);
  const mapping_report new_plat = service.map(surrogate_request(cnn.name, 2));
  EXPECT_TRUE(new_plat.trained_surrogate);
  EXPECT_EQ(service.session_count(), 4u);
  // Identical contents fit identical predictors.
  expect_same_fidelity(*new_plat.surrogate_fidelity, *pooled.surrogate_fidelity);
  expect_same_front(new_plat, pooled);
}

TEST_F(service_fixture, surrogate_request_with_prefilter_is_rejected_before_any_session) {
  mapping_request mixed = surrogate_request(cnn.name, 1);
  mixed.ga.portfolio.prefilter.enabled = true;
  EXPECT_THROW((void)service.map(mixed), std::invalid_argument);
  EXPECT_EQ(service.session_count(), 0u);

  // Nothing was fitted or locked: the same session takes other knobs.
  mapping_request plain = mixed;
  plain.ga.portfolio.prefilter.enabled = false;
  plain.gbt.n_trees = 5;
  const mapping_report rep = service.map(plain);
  EXPECT_TRUE(rep.trained_surrogate);
  EXPECT_EQ(service.session_count(), 1u);
}

TEST_F(service_fixture, failed_fit_leaves_the_session_without_a_surrogate) {
  mapping_request req = surrogate_request(cnn.name, 1);
  req.bench.samples = 0;  // empty training set: hw_predictor throws
  EXPECT_THROW((void)service.map(req), std::invalid_argument);
  EXPECT_FALSE(service.session_for(req)->surrogate_trained());
  // The repeat fits (and fails) again rather than waiting on a dead entry.
  EXPECT_THROW((void)service.map(req), std::invalid_argument);
  EXPECT_FALSE(service.session_for(req)->surrogate_trained());
  EXPECT_EQ(service.session_count(), 1u);
}

TEST(predictor_pool_service, pooled_session_snapshot_equals_a_fitting_sessions) {
  service_options opt;
  opt.engine.threads = 1;  // one worker: cache order, and so snapshot text, is deterministic
  const nn::network cnn = nn::build_simple_cnn();
  const soc::platform plat = soc::agx_xavier();
  const mapping_request second = surrogate_request(cnn.name, 2);

  mapping_service pooled{opt};
  pooled.register_network(cnn);
  pooled.register_platform(plat);
  EXPECT_TRUE(pooled.map(surrogate_request(cnn.name, 1)).trained_surrogate);
  const mapping_report adopted = pooled.map(second);
  EXPECT_FALSE(adopted.trained_surrogate);

  mapping_service fitting{opt};
  fitting.register_network(cnn);
  fitting.register_platform(plat);
  const mapping_report fitted = fitting.map(second);
  EXPECT_TRUE(fitted.trained_surrogate);

  expect_same_front(adopted, fitted);
  EXPECT_EQ(core::to_text(adopted.summary()), core::to_text(fitted.summary()));
  EXPECT_EQ(serving::to_text(pooled.session_for(second)->snapshot()),
            serving::to_text(fitting.session_for(second)->snapshot()));
}

// A pooled predictor carries one row memo for every session that adopts
// it. A session that searches after another warmed it (same GA seed, so the
// same first population and many of the same rows), with two engine workers
// reading the warm memo at once, must report exactly what a fresh service
// reports, whose predictor starts with a cold memo.
TEST(predictor_pool_service, a_warm_row_memo_leaves_the_report_unchanged) {
  const nn::network cnn = nn::build_simple_cnn();
  const soc::platform plat = soc::agx_xavier();
  mapping_request warmup = surrogate_request(cnn.name, 1);
  warmup.ga.generations = 12;
  const mapping_request second = surrogate_request(cnn.name, 2);

  mapping_service warm{small_service()};
  warm.register_network(cnn);
  warm.register_platform(plat);
  EXPECT_TRUE(warm.map(warmup).trained_surrogate);
  const mapping_report adopted = warm.map(second);
  EXPECT_FALSE(adopted.trained_surrogate);

  mapping_service cold{small_service()};
  cold.register_network(cnn);
  cold.register_platform(plat);
  const mapping_report fresh = cold.map(second);
  EXPECT_TRUE(fresh.trained_surrogate);

  expect_same_front(adopted, fresh);
  EXPECT_EQ(core::to_text(adopted.summary()), core::to_text(fresh.summary()));
}

// A stats poll must not stall the registry. engine_totals() waits for a
// session whose surrogate is still being fitted, but not while holding the
// registry lock, so another request's session lookup returns meanwhile.
TEST(service_registry, engine_totals_during_a_fit_does_not_block_session_lookup) {
  using namespace std::chrono_literals;
  const nn::network cnn = nn::build_simple_cnn();
  mapping_service service{small_service()};
  service.register_network(cnn);
  service.register_platform(soc::agx_xavier());
  const mapping_request analytic = tiny_request(cnn.name);
  const std::shared_ptr<serving::mapping_session> registered = service.session_for(analytic);

  mapping_request slow = surrogate_request(cnn.name, 7);  // a session of its own
  slow.bench.samples = 6000;                                // a fit that takes a while
  slow.gbt.n_trees = 150;
  auto fitting = std::async(std::launch::async, [&] { return service.map(slow); });
  while (service.session_count() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(100ms);  // the fit now holds its session's surrogate lock
  auto totals = std::async(std::launch::async, [&] { return service.engine_totals(); });
  std::this_thread::sleep_for(100ms);  // ...and the poll waits on it
  auto lookup = std::async(std::launch::async, [&] { return service.session_for(analytic); });
  while (lookup.wait_for(1ms) != std::future_status::ready &&
         totals.wait_for(0s) != std::future_status::ready) {
  }
  EXPECT_EQ(lookup.wait_for(0s), std::future_status::ready)
      << "session_for waited for the poll, which waited for the fit";
  EXPECT_NE(totals.wait_for(0s), std::future_status::ready)
      << "the fit ended before the lookup; it is too short to test this";
  EXPECT_EQ(lookup.get(), registered);
  (void)totals.get();
  EXPECT_TRUE(fitting.get().trained_surrogate);
}

// ---------------------------------------------------------------------------
// Serialization: the 9-field scheduler row and its 7-field legacy form.
// ---------------------------------------------------------------------------

/// A minimal-but-valid summary: report_summary_from_text rejects empty
/// entry lists (pick indices would be out of range), so every round-trip
/// carries one real configuration.
core::report_summary one_entry_summary() {
  core::report_summary s;
  s.network = "n";
  s.platform = "p";
  const nn::network net = nn::build_simple_cnn();
  const soc::platform plat = soc::agx_xavier();
  const core::search_space space{net, plat};
  util::rng gen{2};
  core::summary_entry entry;
  entry.label = "front-0+ours-L+ours-E";
  entry.config = space.decode(space.random(gen));
  s.entries.push_back(std::move(entry));
  return s;
}

TEST(scheduler_note_roundtrip, fused_counters_survive_to_text_and_back) {
  core::report_summary s = one_entry_summary();
  core::scheduler_note note;
  note.submitted = 9;
  note.admitted = 6;
  note.coalesced = 2;
  note.rejected = 1;
  note.expired = 0;
  note.completed = 5;
  note.failed = 1;
  note.fused = 3;
  note.fused_batches = 2;
  s.scheduler = note;
  const core::report_summary back = core::report_summary_from_text(core::to_text(s));
  ASSERT_TRUE(back.scheduler.has_value());
  EXPECT_EQ(back.scheduler->fused, 3u);
  EXPECT_EQ(back.scheduler->fused_batches, 2u);
  EXPECT_EQ(back.scheduler->submitted, 9u);
  EXPECT_EQ(back.scheduler->failed, 1u);
}

TEST(scheduler_note_roundtrip, legacy_seven_field_row_parses_with_zero_fused) {
  core::report_summary s = one_entry_summary();
  s.scheduler = core::scheduler_note{9, 6, 2, 1, 0, 5, 1, 3, 2};
  std::string text = core::to_text(s);
  // Rewrite the scheduler row to the legacy 7-value arity.
  const std::string nine = "scheduler 9 6 2 1 0 5 1 3 2";
  const std::string seven = "scheduler 9 6 2 1 0 5 1";
  const std::size_t pos = text.find(nine);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, nine.size(), seven);
  const core::report_summary back = core::report_summary_from_text(text);
  ASSERT_TRUE(back.scheduler.has_value());
  EXPECT_EQ(back.scheduler->completed, 5u);
  EXPECT_EQ(back.scheduler->fused, 0u);
  EXPECT_EQ(back.scheduler->fused_batches, 0u);
}

}  // namespace

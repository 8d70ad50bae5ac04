// Memoizing evaluation-engine tests: hash/equality identity, bit-identical
// cached results, in-batch dedup, cross-thread in-flight dedup, async batch
// futures, concurrent batch determinism, capacity eviction, GA cache-stat
// accounting, evaluator failures inside a batch and the lifetime of an
// evaluator replaced by advance_epoch.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/evaluation_engine.h"
#include "core/evolutionary.h"
#include "nn/models.h"
#include "soc/platform.h"
#include "util/hashing.h"

namespace {

using namespace mapcq;
using core::configuration;
using core::engine_options;
using core::evaluation;
using core::evaluation_engine;
using core::evaluator;
using core::search_space;

struct engine_fixture : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();
  search_space space{net, plat};
  evaluator eval{net, plat, {}};

  std::vector<configuration> random_configs(std::size_t n, std::uint64_t seed = 3) const {
    util::rng gen{seed};
    std::vector<configuration> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(space.decode(space.random(gen)));
    return out;
  }
};

// Exact, field-by-field equality of two evaluations.
void expect_identical(const evaluation& a, const evaluation& b) {
  EXPECT_TRUE(a.config == b.config);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.reject_reason, b.reject_reason);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.avg_latency_ms, b.avg_latency_ms);
  EXPECT_EQ(a.avg_energy_mj, b.avg_energy_mj);
  EXPECT_EQ(a.worst_latency_ms, b.worst_latency_ms);
  EXPECT_EQ(a.worst_energy_mj, b.worst_energy_mj);
  EXPECT_EQ(a.accuracy_pct, b.accuracy_pct);
  EXPECT_EQ(a.last_stage_accuracy_pct, b.last_stage_accuracy_pct);
  EXPECT_EQ(a.fmap_reuse_pct, b.fmap_reuse_pct);
  EXPECT_EQ(a.stored_fmap_bytes, b.stored_fmap_bytes);
  EXPECT_EQ(a.fmap_traffic_bytes, b.fmap_traffic_bytes);
  EXPECT_EQ(a.stage_latency_ms, b.stage_latency_ms);
  EXPECT_EQ(a.stage_energy_mj, b.stage_energy_mj);
  EXPECT_EQ(a.stage_accuracy_pct, b.stage_accuracy_pct);
  EXPECT_EQ(a.exit_fractions, b.exit_fractions);
}

TEST_F(engine_fixture, configuration_hash_tracks_equality) {
  const auto configs = random_configs(8);
  for (const auto& a : configs) {
    configuration copy = a;
    EXPECT_TRUE(copy == a);
    EXPECT_EQ(copy.hash(), a.hash());
  }
  // Any single-field change must break equality (hash almost surely too).
  configuration c = configs.front();
  configuration d = c;
  d.partition[0][0] += 1e-9;
  d.partition[0][1] -= 1e-9;
  EXPECT_FALSE(d == c);
  configuration f = c;
  if (f.stages() > 1) {
    f.forward[0][0] = !f.forward[0][0];
    EXPECT_FALSE(f == c);
    EXPECT_NE(f.hash(), c.hash());
  }
  configuration m = c;
  std::swap(m.mapping[0], m.mapping[m.mapping.size() - 1]);
  EXPECT_FALSE(m == c);
  EXPECT_NE(m.hash(), c.hash());
}

TEST_F(engine_fixture, cached_result_is_bit_identical) {
  evaluation_engine engine{eval};
  const configuration c = random_configs(1).front();
  const evaluation direct = eval.evaluate(c);
  const evaluation first = engine.evaluate(c);   // miss
  const evaluation second = engine.evaluate(c);  // hit
  expect_identical(first, direct);
  expect_identical(second, direct);
  const auto s = engine.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(engine.size(), 1u);
}

TEST_F(engine_fixture, batch_collapses_duplicates_onto_one_run) {
  evaluation_engine engine{eval};
  const configuration c = random_configs(1).front();
  const std::vector<configuration> batch(10, c);
  const auto results = engine.evaluate_batch(batch);
  ASSERT_EQ(results.size(), 10u);
  for (const auto& r : results) expect_identical(r, results.front());
  const auto s = engine.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.dedup, 9u);
  EXPECT_EQ(s.hits, 0u);
  // A second pass over the same batch is all hits.
  (void)engine.evaluate_batch(batch);
  EXPECT_EQ(engine.stats().hits, 10u);
}

TEST_F(engine_fixture, concurrent_batch_matches_serial_and_is_deterministic) {
  const auto configs = random_configs(64);
  engine_options serial_opt;
  serial_opt.threads = 1;
  engine_options parallel_opt;
  parallel_opt.threads = 8;

  evaluation_engine serial{eval, serial_opt};
  evaluation_engine parallel{eval, parallel_opt};
  const auto a = serial.evaluate_batch(configs);
  const auto b = parallel.evaluate_batch(configs);
  const auto c = parallel.evaluate_batch(configs);  // warm pass
  ASSERT_EQ(a.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_identical(b[i], a[i]);
    expect_identical(c[i], a[i]);
  }
  EXPECT_EQ(parallel.stats().hits, configs.size());
}

TEST_F(engine_fixture, capacity_bound_evicts_oldest_entries) {
  engine_options opt;
  opt.shards = 1;
  opt.capacity = 4;
  evaluation_engine engine{eval, opt};
  const auto configs = random_configs(10);
  for (const auto& c : configs) (void)engine.evaluate(c);
  EXPECT_LE(engine.size(), 4u);
  EXPECT_EQ(engine.stats().evictions, 6u);
  EXPECT_EQ(engine.stats().misses, 10u);

  // The most recent entry survived; the first was evicted and re-misses,
  // but still returns the exact same result.
  const evaluation direct = eval.evaluate(configs.front());
  (void)engine.evaluate(configs.back());
  EXPECT_EQ(engine.stats().hits, 1u);
  const evaluation refetched = engine.evaluate(configs.front());
  expect_identical(refetched, direct);
  EXPECT_EQ(engine.stats().misses, 11u);
}

TEST_F(engine_fixture, lru_eviction_retains_hot_keys_under_pressure) {
  engine_options opt;
  opt.shards = 1;
  opt.capacity = 4;
  evaluation_engine engine{eval, opt};
  const auto configs = random_configs(6);

  for (std::size_t i = 0; i < 4; ++i) (void)engine.evaluate(configs[i]);  // fill
  (void)engine.evaluate(configs[0]);  // hit: configs[0] becomes hottest
  (void)engine.evaluate(configs[4]);  // evicts configs[1], the coldest
  (void)engine.evaluate(configs[0]);  // still cached
  (void)engine.evaluate(configs[5]);  // evicts configs[2]
  (void)engine.evaluate(configs[0]);  // still cached

  const auto lru = engine.stats();
  EXPECT_EQ(lru.misses, 6u);  // each distinct config ran exactly once
  EXPECT_EQ(lru.hits, 3u);
  EXPECT_EQ(lru.evictions, 2u);
}

TEST_F(engine_fixture, capacity_bound_holds_with_many_shards) {
  // capacity < shards must not inflate the bound via the per-shard floor.
  engine_options opt;
  opt.shards = 16;
  opt.capacity = 4;
  evaluation_engine engine{eval, opt};
  for (const auto& c : random_configs(12)) (void)engine.evaluate(c);
  EXPECT_LE(engine.size(), 4u);
  EXPECT_GE(engine.stats().evictions, 8u);
}

TEST_F(engine_fixture, ga_reports_cache_stats_and_matches_a_one_entry_run) {
  core::ga_options ga;
  ga.generations = 6;
  ga.population = 12;
  ga.seed = 5;

  engine_options memo_opt;
  memo_opt.threads = 4;
  // One entry: next to nothing survives from one generation to the next.
  engine_options one_entry_opt = memo_opt;
  one_entry_opt.capacity = 1;

  evaluation_engine memo{eval, memo_opt};
  evaluation_engine one_entry{eval, one_entry_opt};
  const auto with_cache = core::evolve(space, memo, ga);
  const auto without_cache = core::evolve(space, one_entry, ga);

  // Elites survive generations unchanged, so the cache must fire...
  EXPECT_GT(with_cache.cache.hits, 0u);
  EXPECT_GT(with_cache.cache.hit_rate(), 0.0);
  // ...and every candidate is accounted exactly once.
  EXPECT_EQ(with_cache.cache.lookups(), with_cache.total_evaluations);
  EXPECT_LT(with_cache.cache.misses, with_cache.total_evaluations);
  std::size_t history_hits = 0;
  std::size_t history_misses = 0;
  std::size_t history_dedup = 0;
  for (const auto& h : with_cache.history) {
    history_hits += h.cache_hits;
    history_misses += h.cache_misses;
    history_dedup += h.cache_dedup;
  }
  EXPECT_EQ(history_hits, with_cache.cache.hits);
  EXPECT_EQ(history_misses, with_cache.cache.misses);
  EXPECT_EQ(history_dedup, with_cache.cache.dedup);

  // Memoization must not change the search trajectory at all.
  EXPECT_EQ(with_cache.archive.size(), without_cache.archive.size());
  EXPECT_EQ(with_cache.best_index, without_cache.best_index);
  expect_identical(with_cache.best(), without_cache.best());
  ASSERT_EQ(with_cache.history.size(), without_cache.history.size());
  for (std::size_t g = 0; g < with_cache.history.size(); ++g) {
    EXPECT_EQ(with_cache.history[g].best_objective, without_cache.history[g].best_objective);
    EXPECT_EQ(with_cache.history[g].feasible, without_cache.history[g].feasible);
  }
  // The one-entry engine accounts every candidate too, and runs the
  // evaluator more often.
  EXPECT_EQ(without_cache.cache.lookups(), without_cache.total_evaluations);
  EXPECT_GT(without_cache.cache.misses, with_cache.cache.misses);
}

TEST_F(engine_fixture, racing_threads_on_one_candidate_run_the_evaluator_once) {
  // Cross-thread in-flight dedup: however many threads race the same
  // configuration, exactly one evaluator run happens — every other caller
  // is a cache hit or joins the in-flight slot. This must hold for any
  // interleaving, so the accounting below is exact, not probabilistic.
  // Without a pool the owning caller runs the evaluator itself; with one,
  // its run is a pool task like every batch's.
  const configuration c = random_configs(1).front();
  const evaluation direct = eval.evaluate(c);
  for (const std::size_t engine_threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(engine_threads);
    engine_options opt;
    opt.threads = engine_threads;
    evaluation_engine engine{eval, opt};

    constexpr std::size_t n_threads = 4;
    std::atomic<bool> go{false};
    std::vector<evaluation> results(n_threads);
    std::vector<std::thread> threads;
    threads.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        results[t] = engine.evaluate(c);
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();

    for (const auto& r : results) expect_identical(r, direct);
    const auto s = engine.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits + s.inflight, n_threads - 1);
    EXPECT_EQ(s.lookups(), n_threads);
    EXPECT_EQ(engine.size(), 1u);
  }
}

TEST_F(engine_fixture, a_replaced_evaluator_lives_until_its_last_batch_is_collected) {
  // advance_epoch hands the engine the next evaluator; the outgoing one is
  // owned by the batches planned against it, and by nothing else.
  auto first = std::make_shared<const evaluator>(net, plat, core::evaluator_options{});
  const std::weak_ptr<const evaluator> watch = first;
  engine_options opt;
  opt.threads = 2;
  evaluation_engine engine{std::move(first), opt};

  const auto configs = random_configs(8, 41);
  std::future<std::vector<evaluation>> fut = engine.evaluate_batch_async(configs);
  engine.advance_epoch(std::make_shared<const evaluator>(net, plat, core::evaluator_options{}));
  EXPECT_FALSE(watch.expired());  // the outstanding batch still holds it
  const auto out = fut.get();
  EXPECT_TRUE(watch.expired());  // collected: nothing holds it any more
  ASSERT_EQ(out.size(), configs.size());
  for (std::size_t i = 0; i < out.size(); ++i) expect_identical(out[i], eval.evaluate(configs[i]));
  EXPECT_EQ(engine.epoch(), 1u);
}

TEST_F(engine_fixture, async_batch_matches_sync_batch_bit_for_bit) {
  const auto configs = random_configs(24);
  engine_options opt;
  opt.threads = 4;
  evaluation_engine sync_engine{eval, opt};
  evaluation_engine async_engine{eval, opt};

  const auto expected = sync_engine.evaluate_batch(configs);
  std::future<std::vector<evaluation>> fut = async_engine.evaluate_batch_async(configs);
  const auto got = fut.get();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) expect_identical(got[i], expected[i]);
  // Same accounting as the sync path: counters are final at submit time.
  EXPECT_EQ(async_engine.stats().misses, sync_engine.stats().misses);
  EXPECT_EQ(async_engine.stats().dedup, sync_engine.stats().dedup);
}

TEST_F(engine_fixture, overlapping_async_batches_share_in_flight_runs) {
  // Submit the same population twice before resolving either future. The
  // first submit claims every distinct candidate; the second, planned
  // synchronously afterwards, must find each one cached or in flight —
  // never re-running one. Exact for any pool interleaving.
  const auto configs = random_configs(16, 11);
  engine_options opt;
  opt.threads = 2;
  evaluation_engine engine{eval, opt};

  std::future<std::vector<evaluation>> a = engine.evaluate_batch_async(configs);
  std::future<std::vector<evaluation>> b = engine.evaluate_batch_async(configs);
  const auto ra = a.get();
  const auto rb = b.get();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) expect_identical(ra[i], rb[i]);

  const auto s = engine.stats();
  EXPECT_EQ(s.misses, configs.size());  // each distinct candidate ran once
  EXPECT_EQ(s.hits + s.inflight, configs.size());  // second batch joined or hit
  EXPECT_EQ(s.lookups(), 2 * configs.size());
}

TEST_F(engine_fixture, async_batch_without_pool_is_immediately_ready) {
  evaluation_engine engine{eval};  // threads = 1: inline evaluation
  const auto configs = random_configs(6, 23);
  std::future<std::vector<evaluation>> fut = engine.evaluate_batch_async(configs);
  ASSERT_TRUE(fut.valid());
  // Evaluated and published before the call returned, so a dropped future
  // never leaves a claimed slot unrun.
  EXPECT_EQ(engine.size(), configs.size());
  const auto out = fut.get();
  ASSERT_EQ(out.size(), configs.size());
  for (std::size_t i = 0; i < out.size(); ++i) expect_identical(out[i], eval.evaluate(configs[i]));
  EXPECT_EQ(engine.stats().misses, configs.size());
}

TEST_F(engine_fixture, dropping_an_async_future_still_populates_the_cache) {
  engine_options opt;
  opt.threads = 2;
  evaluation_engine engine{eval, opt};
  const auto configs = random_configs(8, 31);
  { auto dropped = engine.evaluate_batch_async(configs); }  // never get()
  // The enqueued runs complete regardless; a sync pass is then all-cached.
  const auto out = engine.evaluate_batch(configs);
  ASSERT_EQ(out.size(), configs.size());
  const auto s = engine.stats();
  EXPECT_EQ(s.misses, configs.size());
  EXPECT_EQ(s.hits + s.inflight, configs.size());
}

TEST_F(engine_fixture, evaluator_exception_fails_the_batch_but_not_its_neighbours) {
  // A DVFS level past the unit's table makes configuration::validate throw
  // std::logic_error inside evaluator::evaluate.
  const auto good = random_configs(2, 47);
  configuration bad = good[0];
  bad.dvfs[0] = plat.unit(0).dvfs.levels();
  const std::vector<configuration> batch{good[0], bad, good[1], bad};

  // After the failed batch: every good candidate was published despite its
  // failing neighbour, and the bad one left no in-flight slot behind (a
  // leaked slot would be joined, or hang, instead of running again).
  const auto expect_recovered = [&](evaluation_engine& engine) {
    for (const configuration& c : good) expect_identical(engine.evaluate(c), eval.evaluate(c));
    EXPECT_THROW((void)engine.evaluate(bad), std::logic_error);
    const auto s = engine.stats();
    EXPECT_EQ(s.hits, good.size());
    EXPECT_EQ(s.misses, 4u);
    EXPECT_EQ(s.inflight, 0u);
  };

  for (const std::size_t threads : {std::size_t{3}, std::size_t{1}}) {
    SCOPED_TRACE(threads);
    engine_options opt;
    opt.threads = threads;

    evaluation_engine sync_engine{eval, opt};
    EXPECT_THROW((void)sync_engine.evaluate_batch(batch), std::logic_error);
    EXPECT_EQ(sync_engine.stats().misses, 3u);
    EXPECT_EQ(sync_engine.stats().dedup, 1u);
    expect_recovered(sync_engine);

    evaluation_engine async_engine{eval, opt};
    std::future<std::vector<evaluation>> fut = async_engine.evaluate_batch_async(batch);
    EXPECT_THROW((void)fut.get(), std::logic_error);
    EXPECT_EQ(async_engine.stats().misses, 3u);
    EXPECT_EQ(async_engine.stats().dedup, 1u);
    expect_recovered(async_engine);
  }
}

TEST(hashing, combine_is_order_and_length_sensitive) {
  std::size_t a = 0;
  util::hash_combine_range(a, std::vector<double>{1.0, 2.0});
  std::size_t b = 0;
  util::hash_combine_range(b, std::vector<double>{2.0, 1.0});
  EXPECT_NE(a, b);

  std::size_t c = 0;
  util::hash_combine_range(c, std::vector<double>{1.0, 2.0});
  EXPECT_EQ(a, c);

  // -0.0 and +0.0 compare equal, so they must hash equal.
  EXPECT_EQ(util::hash_double(-0.0), util::hash_double(0.0));
}

}  // namespace

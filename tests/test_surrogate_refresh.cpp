// Online surrogate-refresh tests: Kendall-tau machinery, reservoir
// training-log determinism, the promotion gate (rejected on worse held-out
// fidelity), epoch-tagged engine caches (no stale predictions, in-flight
// batches finish on the old model), and the serving integration
// (refresh_stats in reports, default-off back-compat, end-to-end
// promotion that stays out of the predictor pool, refresh-note round-trip).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluation_engine.h"
#include "core/serialization.h"
#include "nn/models.h"
#include "serving/mapping_service.h"
#include "serving/session_snapshot.h"
#include "soc/platform.h"
#include "surrogate/dataset.h"
#include "surrogate/refresh.h"
#include "surrogate/trainer.h"
#include "util/stats.h"

namespace {

using namespace mapcq;

// ---- rank-fidelity machinery ----------------------------------------------

TEST(kendall_tau, perfect_reversed_and_uncorrelated) {
  const std::vector<double> truth = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> same = {10.0, 20.0, 30.0, 40.0, 50.0};
  const std::vector<double> reversed = {5.0, 4.0, 3.0, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(util::kendall_tau(same, truth), 1.0);
  EXPECT_DOUBLE_EQ(util::kendall_tau(reversed, truth), -1.0);
  const std::vector<double> flat = {7.0, 7.0, 7.0, 7.0, 7.0};
  EXPECT_DOUBLE_EQ(util::kendall_tau(flat, truth), 0.0);  // all ties on one side
}

TEST(kendall_tau, ties_shrink_the_normalizer) {
  // One tied pair in pred: 9 of 10 pairs decided, all concordant.
  const std::vector<double> truth = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> pred = {1.0, 2.0, 2.0, 4.0, 5.0};
  const double tau = util::kendall_tau(pred, truth);
  EXPECT_GT(tau, 0.9);
  EXPECT_LT(tau, 1.0);
}

TEST(promotion_gate, rejects_worse_equal_and_margin_misses) {
  surrogate::rank_fidelity incumbent;
  incumbent.latency_tau = 0.8;
  incumbent.energy_tau = 0.8;
  surrogate::rank_fidelity worse = incumbent;
  worse.latency_tau = 0.5;
  EXPECT_FALSE(surrogate::should_promote(worse, incumbent, 0.0));
  EXPECT_FALSE(surrogate::should_promote(incumbent, incumbent, 0.0));  // equal: strict
  surrogate::rank_fidelity better = incumbent;
  better.latency_tau = 0.9;
  EXPECT_TRUE(surrogate::should_promote(better, incumbent, 0.0));
  EXPECT_FALSE(surrogate::should_promote(better, incumbent, 0.1));  // margin not met
}

// ---- training log ----------------------------------------------------------

surrogate::dataset sequential_rows(std::size_t n, double offset = 0.0) {
  surrogate::dataset ds;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = offset + static_cast<double>(i);
    ds.add_row({v, 2.0 * v}, 1.0 + v, 2.0 + v);
  }
  return ds;
}

TEST(training_log, fills_to_capacity_in_order) {
  surrogate::training_log log{8, 42};
  const auto rows = sequential_rows(5);
  for (std::size_t i = 0; i < rows.size(); ++i)
    log.add(rows.x[i], rows.latency_ms[i], rows.energy_mj[i]);
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.seen(), 5u);
  EXPECT_EQ(log.discarded(), 0u);
  EXPECT_EQ(log.rows().x, rows.x);
  EXPECT_EQ(log.rows().latency_ms, rows.latency_ms);
}

TEST(training_log, reservoir_is_bounded_and_deterministic_under_a_fixed_seed) {
  const std::size_t capacity = 16;
  const auto rows = sequential_rows(10 * capacity);
  surrogate::training_log a{capacity, 7};
  surrogate::training_log b{capacity, 7};
  surrogate::training_log c{capacity, 8};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    a.add(rows.x[i], rows.latency_ms[i], rows.energy_mj[i]);
    b.add(rows.x[i], rows.latency_ms[i], rows.energy_mj[i]);
    c.add(rows.x[i], rows.latency_ms[i], rows.energy_mj[i]);
  }
  EXPECT_EQ(a.size(), capacity);
  EXPECT_EQ(a.seen(), rows.size());
  EXPECT_EQ(a.discarded(), rows.size() - capacity);
  // Same (seed, arrival order) => identical retained sample.
  EXPECT_EQ(a.rows().x, b.rows().x);
  EXPECT_EQ(a.rows().latency_ms, b.rows().latency_ms);
  EXPECT_EQ(a.rows().energy_mj, b.rows().energy_mj);
  // A different seed retains a different sample (10x oversubscribed, so a
  // collision across all 16 slots is astronomically unlikely).
  EXPECT_NE(a.rows().x, c.rows().x);
  // The reservoir still holds a mix including late rows.
  double max_seen = 0.0;
  for (const auto& x : a.rows().x) max_seen = std::max(max_seen, x[0]);
  EXPECT_GT(max_seen, static_cast<double>(capacity));
}

// ---- refresh pipeline ------------------------------------------------------

struct pipeline_fixture : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();

  surrogate::gbt_params small_gbt() const {
    surrogate::gbt_params p;
    p.n_trees = 24;
    return p;
  }

  surrogate::dataset benchmark(std::size_t samples, double noise, std::uint64_t seed) const {
    surrogate::benchmark_options opt;
    opt.samples = samples;
    opt.noise_stddev = noise;
    opt.seed = seed;
    return surrogate::generate_benchmark({&net}, plat, opt);
  }
};

TEST_F(pipeline_fixture, no_improvement_candidate_is_rejected_and_incumbent_survives) {
  // Incumbent trained on plenty of clean data; the log only replays more of
  // the same distribution, so with a steep margin the candidate must lose.
  const auto base = benchmark(600, 0.02, 11);
  auto incumbent = std::make_shared<const surrogate::hw_predictor>(base, small_gbt());

  std::atomic<int> promoted{0};
  surrogate::refresh_options opt;
  opt.enabled = true;
  opt.synchronous = true;
  opt.min_new_samples = 200;
  opt.promotion_margin = 2.0;  // taus live in [-1,1]: a >2 gap is impossible
  surrogate::refresh_pipeline pipeline{
      opt, small_gbt(), base, incumbent,
      [&](std::shared_ptr<const surrogate::hw_predictor>) { ++promoted; }};

  pipeline.observe(benchmark(250, 0.02, 12));  // crosses min_new_samples: triggers
  const auto s = pipeline.stats();
  EXPECT_EQ(s.attempts, 1u);
  EXPECT_EQ(s.rejections, 1u);
  EXPECT_EQ(s.promotions, 0u);
  EXPECT_EQ(s.epoch, 0u);
  EXPECT_EQ(promoted.load(), 0);
  EXPECT_EQ(s.observed, 250u);
}

TEST_F(pipeline_fixture, drifted_ground_truth_promotes_a_strictly_better_candidate) {
  // Incumbent fitted to heavily corrupted labels; the logged ground truth
  // is clean, so the candidate's held-out rank fidelity must beat it.
  const auto noisy = benchmark(300, 0.8, 21);
  auto incumbent = std::make_shared<const surrogate::hw_predictor>(noisy, small_gbt());

  std::atomic<int> promoted{0};
  surrogate::refresh_options opt;
  opt.enabled = true;
  opt.synchronous = true;
  opt.min_new_samples = 400;
  opt.promotion_margin = 0.0;
  surrogate::refresh_pipeline pipeline{
      opt, small_gbt(), noisy, incumbent,
      [&](std::shared_ptr<const surrogate::hw_predictor> p) {
        EXPECT_NE(p.get(), incumbent.get());
        ++promoted;
      }};

  pipeline.observe(benchmark(500, 0.0, 22));  // clean ground truth
  const auto s = pipeline.stats();
  ASSERT_EQ(s.attempts, 1u);
  EXPECT_EQ(s.promotions, 1u);
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_EQ(promoted.load(), 1);
  EXPECT_GT(s.last_candidate_tau, s.last_incumbent_tau);
}

TEST_F(pipeline_fixture, trigger_gate_respects_min_new_samples) {
  const auto base = benchmark(300, 0.05, 31);
  auto incumbent = std::make_shared<const surrogate::hw_predictor>(base, small_gbt());
  surrogate::refresh_options opt;
  opt.enabled = true;
  opt.synchronous = true;
  opt.min_new_samples = 1000;
  surrogate::refresh_pipeline pipeline{opt, small_gbt(), base, incumbent, nullptr};
  pipeline.observe(benchmark(100, 0.0, 32));
  EXPECT_EQ(pipeline.stats().attempts, 0u);  // below the gate
  pipeline.observe(benchmark(950, 0.0, 33));
  EXPECT_EQ(pipeline.stats().attempts, 1u);  // 1050 >= 1000
  // refresh_now ignores the gate entirely.
  EXPECT_NO_THROW((void)pipeline.refresh_now());
  EXPECT_EQ(pipeline.stats().attempts, 2u);
}

// ---- epoch-tagged engine ---------------------------------------------------

struct epoch_fixture : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();
  core::search_space space{net, plat};
  // Two models that disagree: idle-power accounting changes every energy.
  core::evaluator eval_a{net, plat, {}};
  // The engine takes each later epoch's evaluator by shared_ptr.
  std::shared_ptr<const core::evaluator> eval_b =
      std::make_shared<const core::evaluator>(net, plat, make_b_options());

  static core::evaluator_options make_b_options() {
    core::evaluator_options opt;
    opt.count_idle_power = false;
    return opt;
  }

  std::vector<core::configuration> random_configs(std::size_t n, std::uint64_t seed = 3) const {
    util::rng gen{seed};
    std::vector<core::configuration> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(space.decode(space.random(gen)));
    return out;
  }
};

TEST_F(epoch_fixture, epoch_tagged_cache_serves_no_stale_predictions) {
  core::evaluation_engine engine{eval_a};
  const auto configs = random_configs(4);
  for (const auto& c : configs) (void)engine.evaluate(c);
  EXPECT_EQ(engine.epoch(), 0u);
  EXPECT_EQ(engine.size(), 4u);

  engine.advance_epoch(eval_b);
  EXPECT_EQ(engine.epoch(), 1u);
  EXPECT_EQ(engine.size(), 0u);  // stale entries purged eagerly
  EXPECT_EQ(engine.stats().invalidated, 4u);

  for (const auto& c : configs) {
    const core::evaluation cached = engine.evaluate(c);
    const core::evaluation direct = eval_b->evaluate(c);
    // Must be the new model's output, not a stale epoch-0 entry.
    EXPECT_EQ(cached.avg_energy_mj, direct.avg_energy_mj);
    EXPECT_EQ(cached.objective, direct.objective);
  }
  EXPECT_EQ(engine.stats().misses, 8u);  // all four re-ran under epoch 1

  // And the new epoch's entries are served normally.
  const auto s0 = engine.stats();
  (void)engine.evaluate(configs.front());
  EXPECT_EQ(engine.stats().hits, s0.hits + 1);
}

TEST_F(epoch_fixture, inflight_batch_completes_on_the_old_model_during_a_swap) {
  core::engine_options opt;
  opt.threads = 2;
  core::evaluation_engine engine{eval_a, opt};
  const auto configs = random_configs(24, 17);

  // Plan is synchronous at submit: whatever the race with the swap below,
  // this batch must finish on the evaluator it captured (eval_a).
  auto fut = engine.evaluate_batch_async(configs);
  engine.advance_epoch(eval_b);
  const auto results = fut.get();
  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const core::evaluation direct = eval_a.evaluate(configs[i]);
    EXPECT_EQ(results[i].avg_energy_mj, direct.avg_energy_mj);
    EXPECT_EQ(results[i].objective, direct.objective);
  }
  // New work sees the new model.
  const core::evaluation fresh = engine.evaluate(configs.front());
  EXPECT_EQ(fresh.avg_energy_mj, eval_b->evaluate(configs.front()).avg_energy_mj);
}

TEST_F(epoch_fixture, ground_truth_tap_fires_once_per_evaluator_run) {
  core::evaluation_engine engine{eval_a};
  std::atomic<std::size_t> taps{0};
  engine.set_ground_truth_tap(
      [&](const core::configuration&, const core::evaluation&) { ++taps; });
  const auto configs = random_configs(5, 23);
  for (const auto& c : configs) (void)engine.evaluate(c);  // 5 misses
  for (const auto& c : configs) (void)engine.evaluate(c);  // 5 hits: no taps
  EXPECT_EQ(taps.load(), 5u);
  const std::vector<core::configuration> batch(4, configs.front());
  (void)engine.evaluate_batch(batch);  // hit + dedups: no taps
  EXPECT_EQ(taps.load(), 5u);
  engine.set_ground_truth_tap(nullptr);
  (void)engine.evaluate(random_configs(1, 99).front());  // miss, tap uninstalled
  EXPECT_EQ(taps.load(), 5u);
}

// ---- serving integration ---------------------------------------------------

struct serving_fixture : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();

  serving::mapping_request tiny_request(bool use_surrogate, std::uint64_t seed) const {
    serving::mapping_request req;
    req.network = net.name;
    req.use_surrogate = use_surrogate;
    req.ga.generations = 3;
    req.ga.population = 10;
    req.ga.seed = seed;
    req.bench.samples = 250;
    req.bench.noise_stddev = 0.6;  // a deliberately weak initial surrogate
    req.gbt.n_trees = 24;
    return req;
  }
};

TEST_F(serving_fixture, refresh_disabled_reports_no_stats_and_stays_warm_identical) {
  serving::service_options opt;
  opt.engine.threads = 1;
  serving::mapping_service service{opt};
  service.register_network(net);
  service.register_platform(plat);

  const auto cold = service.map(tiny_request(true, 5));
  EXPECT_FALSE(cold.refresh.has_value());
  const auto warm = service.map(tiny_request(true, 5));
  EXPECT_FALSE(warm.refresh.has_value());
  ASSERT_EQ(cold.front.size(), warm.front.size());
  for (std::size_t i = 0; i < cold.front.size(); ++i) {
    EXPECT_EQ(cold.front[i].objective, warm.front[i].objective);
    EXPECT_EQ(cold.front[i].avg_latency_ms, warm.front[i].avg_latency_ms);
    EXPECT_EQ(cold.front[i].avg_energy_mj, warm.front[i].avg_energy_mj);
  }
}

TEST_F(serving_fixture, analytic_traffic_feeds_the_log_and_reports_refresh_stats) {
  serving::service_options opt;
  opt.engine.threads = 1;
  opt.refresh.enabled = true;
  opt.refresh.synchronous = true;
  opt.refresh.min_new_samples = 1;  // every analytic request triggers an attempt
  opt.refresh.promotion_margin = 2.0;  // impossible: promotion always rejected
  serving::mapping_service service{opt};
  service.register_network(net);
  service.register_platform(plat);

  // First surrogate request trains the GBT and arms the pipeline; before
  // that there is nothing to refresh, so no stats yet.
  const auto trained = service.map(tiny_request(true, 5));
  ASSERT_TRUE(trained.refresh.has_value());
  EXPECT_TRUE(trained.trained_surrogate);

  // Analytic searches are pure ground truth: every cache miss flows into
  // the training log and (min_new_samples = 1) triggers gated attempts.
  const auto analytic = service.map(tiny_request(false, 6));
  ASSERT_TRUE(analytic.refresh.has_value());
  const auto& rs = *analytic.refresh;
  EXPECT_GT(rs.observed, 0u);
  EXPECT_GT(rs.logged, 0u);
  EXPECT_GE(rs.attempts, 1u);
  EXPECT_EQ(rs.promotions, 0u);  // the impossible margin rejected them all
  EXPECT_EQ(rs.rejections, rs.attempts);
  EXPECT_EQ(rs.epoch, 0u);
}

TEST_F(serving_fixture, drifted_session_promotes_and_keeps_serving) {
  serving::service_options opt;
  opt.engine.threads = 1;
  opt.refresh.enabled = true;
  opt.refresh.synchronous = true;
  opt.refresh.min_new_samples = 300;
  opt.refresh.promotion_margin = 0.0;
  serving::mapping_service service{opt};
  service.register_network(net);
  service.register_platform(plat);

  // Weak initial surrogate (tiny, very noisy benchmark)...
  (void)service.map(tiny_request(true, 5));
  // ...then analytic traffic generates clean ground truth until a refresh
  // promotes a better model.
  serving::mapping_report last;
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    last = service.map(tiny_request(false, seed));
    if (last.refresh->promotions > 0) break;
  }
  ASSERT_TRUE(last.refresh.has_value());
  ASSERT_GE(last.refresh->attempts, 1u);
  ASSERT_GE(last.refresh->promotions, 1u);
  EXPECT_GT(last.refresh->promoted_candidate_tau, last.refresh->promoted_incumbent_tau);
  EXPECT_EQ(last.refresh->epoch, last.refresh->promotions);

  // The session keeps serving surrogate requests on the promoted model:
  // the epoch swap invalidated the surrogate cache, so nothing stale leaks
  // and the warm request still produces a valid validated front.
  const auto after = service.map(tiny_request(true, 5));
  EXPECT_FALSE(after.trained_surrogate);
  ASSERT_FALSE(after.front.empty());
  EXPECT_TRUE(after.refresh.has_value());
}

/// The session's fitted ensembles (with their knobs and fidelity) as
/// snapshot text, stripped of everything request-dependent.
std::string ensembles_of(serving::mapping_session& session) {
  serving::session_snapshot snap = session.snapshot();
  snap.session_key.clear();
  snap.analytic_entries.clear();
  snap.refresh.reset();
  if (snap.surrogate) {
    snap.surrogate->entries.clear();
    snap.surrogate->predictor_epoch = 0;
  }
  return serving::to_text(snap);
}

TEST_F(serving_fixture, promotion_stays_in_its_session_and_never_reaches_the_pool) {
  serving::service_options opt;
  opt.engine.threads = 1;
  opt.refresh.enabled = true;
  opt.refresh.synchronous = true;
  opt.refresh.min_new_samples = 300;
  opt.refresh.promotion_margin = 0.0;
  serving::mapping_service service{opt};
  service.register_network(net);
  service.register_platform(plat);

  const serving::mapping_request first = tiny_request(true, 5);
  EXPECT_TRUE(service.map(first).trained_surrogate);
  const std::string original = ensembles_of(*service.session_for(first));
  serving::mapping_report last;
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    last = service.map(tiny_request(false, seed));
    if (last.refresh->promotions > 0) break;
  }
  ASSERT_GE(last.refresh->promotions, 1u);
  EXPECT_NE(ensembles_of(*service.session_for(first)), original);

  // A new session with the same training knobs adopts the pooled fit: the
  // original ensembles at epoch 0, not the other session's promotion. Its
  // engine is taken directly so no analytic traffic can refresh it.
  serving::mapping_request other = first;
  other.ranking_seed = 77;
  const std::shared_ptr<serving::mapping_session> fresh = service.session_for(other);
  bool fitted = true;
  (void)fresh->surrogate_engine(other.bench, other.gbt, &fitted);
  EXPECT_FALSE(fitted);
  ASSERT_TRUE(fresh->refresh_stats().has_value());
  EXPECT_EQ(fresh->refresh_stats()->epoch, 0u);
  EXPECT_EQ(ensembles_of(*fresh), original);
}

TEST_F(serving_fixture, refresh_note_round_trips_through_report_summary) {
  serving::mapping_report rep;
  rep.network = "n";
  rep.platform = "p";
  surrogate::refresh_stats rs;
  rs.observed = 123;
  rs.logged = 45;
  rs.attempts = 6;
  rs.promotions = 2;
  rs.rejections = 4;
  rs.epoch = 2;
  rs.last_candidate_tau = 0.875;
  rs.last_incumbent_tau = 0.75;
  rep.refresh = rs;
  core::evaluation ev;
  ev.config.partition = {{1.0}};
  ev.config.forward = {{false}};
  ev.config.mapping = {0};
  ev.config.dvfs = {0};
  ev.objective = 1.5;
  rep.front.push_back(ev);

  const core::report_summary summary = rep.summary();
  ASSERT_TRUE(summary.refresh.has_value());
  const core::report_summary back = core::report_summary_from_text(core::to_text(summary));
  ASSERT_TRUE(back.refresh.has_value());
  EXPECT_EQ(back.refresh->observed, 123u);
  EXPECT_EQ(back.refresh->logged, 45u);
  EXPECT_EQ(back.refresh->attempts, 6u);
  EXPECT_EQ(back.refresh->promotions, 2u);
  EXPECT_EQ(back.refresh->rejections, 4u);
  EXPECT_EQ(back.refresh->epoch, 2u);
  EXPECT_DOUBLE_EQ(back.refresh->last_candidate_tau, 0.875);
  EXPECT_DOUBLE_EQ(back.refresh->last_incumbent_tau, 0.75);
}

}  // namespace

// GA engine tests (kept small: tiny populations).

#include <gtest/gtest.h>

#include "core/evolutionary.h"
#include "core/pareto.h"
#include "nn/models.h"
#include "soc/platform.h"

namespace {

using namespace mapcq;
using core::evaluator;
using core::evolve;
using core::ga_options;
using core::ga_result;
using core::search_space;

ga_options tiny_ga(std::uint64_t seed = 1) {
  ga_options opt;
  opt.generations = 6;
  opt.population = 12;
  opt.seed = seed;
  return opt;
}

struct ga_fixture : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();
  search_space space{net, plat};
  evaluator eval{net, plat, {}};
};

TEST_F(ga_fixture, produces_feasible_archive) {
  const ga_result res = evolve(space, eval, tiny_ga());
  EXPECT_FALSE(res.archive.empty());
  EXPECT_EQ(res.total_evaluations, 6u * 12u);
  EXPECT_EQ(res.history.size(), 6u);
  for (const auto& e : res.archive) EXPECT_TRUE(e.feasible);
}

TEST_F(ga_fixture, best_has_minimal_objective) {
  const ga_result res = evolve(space, eval, tiny_ga());
  for (const auto& e : res.archive) EXPECT_LE(res.best().objective, e.objective);
}

TEST_F(ga_fixture, pareto_members_are_nondominated) {
  const ga_result res = evolve(space, eval, tiny_ga());
  ASSERT_FALSE(res.pareto.empty());
  for (const std::size_t i : res.pareto) {
    const auto& a = res.archive[i];
    for (const std::size_t j : res.pareto) {
      if (i == j) continue;
      const auto& b = res.archive[j];
      const std::vector<double> pa = {a.avg_latency_ms, a.avg_energy_mj, -a.accuracy_pct};
      const std::vector<double> pb = {b.avg_latency_ms, b.avg_energy_mj, -b.accuracy_pct};
      EXPECT_FALSE(core::dominates(pb, pa));
    }
  }
}

// The archive is a set: an elite surviving many generations is archived
// once, so no two entries share a configuration, and the front lists each
// archive index once, ascending.
void expect_distinct_archive_and_ascending_front(const ga_result& res) {
  for (std::size_t i = 0; i < res.archive.size(); ++i)
    for (std::size_t j = i + 1; j < res.archive.size(); ++j)
      EXPECT_FALSE(res.archive[i].config == res.archive[j].config)
          << "archive[" << i << "] repeats at " << j;
  ASSERT_FALSE(res.pareto.empty());
  for (std::size_t k = 1; k < res.pareto.size(); ++k) EXPECT_LT(res.pareto[k - 1], res.pareto[k]);
  EXPECT_LT(res.pareto.back(), res.archive.size());
}

TEST_F(ga_fixture, archive_holds_each_configuration_once) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const ga_result res = evolve(space, eval, tiny_ga(seed));
    expect_distinct_archive_and_ascending_front(res);
    // Elites survive generations, so a run revisits configurations; the
    // history still counts every visit while the archive does not.
    std::size_t feasible_visits = 0;
    for (const auto& h : res.history) feasible_visits += h.feasible;
    EXPECT_LT(res.archive.size(), feasible_visits);
  }
}

TEST_F(ga_fixture, island_archive_holds_each_configuration_once) {
  ga_options opt = tiny_ga(4);
  opt.population = 16;
  opt.island.islands = 2;
  opt.island.migration_interval = 2;
  expect_distinct_archive_and_ascending_front(evolve(space, eval, opt));
}

TEST_F(ga_fixture, deterministic_for_same_seed) {
  const ga_result a = evolve(space, eval, tiny_ga(5));
  const ga_result b = evolve(space, eval, tiny_ga(5));
  ASSERT_EQ(a.archive.size(), b.archive.size());
  EXPECT_DOUBLE_EQ(a.best().objective, b.best().objective);
}

TEST_F(ga_fixture, objective_improves_over_generations) {
  ga_options opt = tiny_ga(7);
  opt.generations = 12;
  const ga_result res = evolve(space, eval, opt);
  const double first = res.history.front().best_objective;
  const double last = res.history.back().best_objective;
  EXPECT_LE(last, first + 1e-12);
}

TEST_F(ga_fixture, objective_only_mode_runs) {
  ga_options opt = tiny_ga(9);
  opt.selection = core::selection_mode::objective_only;
  const ga_result res = evolve(space, eval, opt);
  EXPECT_FALSE(res.archive.empty());
}

TEST_F(ga_fixture, static_seed_keeps_high_accuracy_corner) {
  const ga_result res = evolve(space, eval, tiny_ga(11));
  double best_acc = 0.0;
  for (const auto& e : res.archive) best_acc = std::max(best_acc, e.accuracy_pct);
  // The seeded static configuration guarantees a near-ceiling entry.
  EXPECT_GT(best_acc, net.base_accuracy - 1.0);
}

TEST_F(ga_fixture, rejects_bad_options) {
  ga_options opt = tiny_ga();
  opt.population = 2;
  EXPECT_THROW((void)evolve(space, eval, opt), std::invalid_argument);
  opt = tiny_ga();
  opt.elite_fraction = 1.5;
  EXPECT_THROW((void)evolve(space, eval, opt), std::invalid_argument);
}

TEST_F(ga_fixture, constrained_run_respects_reuse_cap) {
  core::evaluator_options eopt;
  eopt.limits.fmap_reuse_cap = 0.5;
  const evaluator capped{net, plat, eopt};
  const ga_result res = evolve(space, capped, tiny_ga(13));
  for (const auto& e : res.archive) EXPECT_LE(e.fmap_reuse_pct, 50.0 + 1e-6);
}

// --- island model ----------------------------------------------------------

void expect_same_result(const ga_result& a, const ga_result& b) {
  ASSERT_EQ(a.archive.size(), b.archive.size());
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_EQ(a.pareto, b.pareto);
  for (std::size_t i = 0; i < a.archive.size(); ++i) {
    EXPECT_TRUE(a.archive[i].config == b.archive[i].config);
    EXPECT_EQ(a.archive[i].objective, b.archive[i].objective);
  }
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t g = 0; g < a.history.size(); ++g) {
    EXPECT_EQ(a.history[g].best_objective, b.history[g].best_objective);
    EXPECT_EQ(a.history[g].mean_objective, b.history[g].mean_objective);
    EXPECT_EQ(a.history[g].feasible, b.history[g].feasible);
  }
}

TEST_F(ga_fixture, one_island_is_the_classic_ga) {
  // islands = 1 must take the exact same deterministic path as a default
  // run: same archive, same trajectory, same Pareto front. (The K = 1
  // bit-identity against the pre-island implementation is additionally
  // checked by bench/island_scaling's warm-rerun property.)
  ga_options explicit_one = tiny_ga(5);
  explicit_one.island.islands = 1;
  explicit_one.island.migration_interval = 3;  // irrelevant at K = 1
  const ga_result a = evolve(space, eval, tiny_ga(5));
  const ga_result b = evolve(space, eval, explicit_one);
  EXPECT_EQ(a.islands, 1u);
  expect_same_result(a, b);
}

TEST_F(ga_fixture, island_run_is_reproducible_and_well_formed) {
  ga_options opt = tiny_ga(21);
  opt.population = 16;  // 4 islands x 4 members
  opt.island.islands = 4;
  opt.island.migration_interval = 2;
  opt.island.migrants = 1;

  const ga_result a = evolve(space, eval, opt);
  const ga_result b = evolve(space, eval, opt);
  EXPECT_EQ(a.islands, 4u);
  expect_same_result(a, b);

  EXPECT_EQ(a.total_evaluations, opt.generations * opt.population);
  EXPECT_EQ(a.history.size(), opt.generations);
  EXPECT_EQ(a.cache.lookups(), a.total_evaluations);
  for (const auto& e : a.archive) EXPECT_TRUE(e.feasible);
  for (const std::size_t i : a.pareto) EXPECT_LT(i, a.archive.size());
  for (const auto& e : a.archive) EXPECT_LE(a.best().objective, e.objective);
}

TEST_F(ga_fixture, islands_share_one_engine_cache) {
  // A warm engine replays an identical island search purely from cache.
  ga_options opt = tiny_ga(33);
  opt.population = 16;
  opt.island.islands = 2;
  opt.island.migration_interval = 2;

  core::engine_options eopt;
  eopt.threads = 4;
  core::evaluation_engine engine{eval, eopt};
  const ga_result cold = evolve(space, engine, opt);
  EXPECT_GT(cold.cache.misses, 0u);
  const ga_result warm = evolve(space, engine, opt);
  expect_same_result(cold, warm);
  EXPECT_EQ(warm.cache.misses, 0u);
}

TEST_F(ga_fixture, island_cache_counters_repeat_except_the_hit_inflight_split) {
  // With K > 1, whether a candidate another island is still evaluating
  // counts as a hit or an in-flight join depends on thread timing. Their
  // sum, the other counters and the result repeat exactly on fresh engines.
  ga_options opt = tiny_ga(4);
  opt.generations = 10;
  opt.population = 24;
  opt.island.islands = 2;
  opt.island.migration_interval = 2;
  std::vector<ga_result> runs;
  for (int r = 0; r < 4; ++r) {
    core::engine_options eopt;
    eopt.threads = 3;
    core::evaluation_engine engine{eval, eopt};
    runs.push_back(evolve(space, engine, opt));
  }
  const ga_result& first = runs.front();
  for (const ga_result& run : runs) {
    expect_same_result(first, run);
    ASSERT_EQ(run.history.size(), first.history.size());
    for (std::size_t g = 0; g < run.history.size(); ++g) {
      const core::generation_stats& a = first.history[g];
      const core::generation_stats& b = run.history[g];
      EXPECT_EQ(a.cache_misses, b.cache_misses) << "generation " << g;
      EXPECT_EQ(a.cache_dedup, b.cache_dedup) << "generation " << g;
      EXPECT_EQ(a.cache_hits + a.cache_inflight, b.cache_hits + b.cache_inflight)
          << "generation " << g;
      EXPECT_EQ(a.cache_evictions, b.cache_evictions) << "generation " << g;
    }
  }
}

TEST_F(ga_fixture, rejects_island_counts_that_starve_islands) {
  ga_options opt = tiny_ga();
  opt.population = 12;
  opt.island.islands = 4;  // 3 members per island: too small to breed
  EXPECT_THROW((void)evolve(space, eval, opt), std::invalid_argument);
}

}  // namespace

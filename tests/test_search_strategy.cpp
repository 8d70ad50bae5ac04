// Search-strategy portfolio tests: golden bit-identity of the refactored
// K=1 GA against the pre-refactor implementation (tests/golden/k1_ga.txt,
// captured before core::evolve was split over search_strategy; its archive,
// best_index and pareto lines since keep each configuration once), SA
// determinism under its frozen schedule, heterogeneous island runs, and the
// surrogate pre-filter's exact counters.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/evolutionary.h"
#include "core/search_strategy.h"
#include "nn/models.h"
#include "soc/platform.h"

namespace {

using namespace mapcq;
using core::evaluation;
using core::evaluator;
using core::evolve;
using core::ga_options;
using core::ga_result;
using core::island_algorithm;
using core::island_assignment;
using core::island_orientation;
using core::search_space;

ga_options tiny_ga(std::uint64_t seed = 1) {
  ga_options opt;
  opt.generations = 6;
  opt.population = 12;
  opt.seed = seed;
  return opt;
}

struct portfolio_fixture : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();
  search_space space{net, plat};
  evaluator eval{net, plat, {}};
};

void expect_same_result(const ga_result& a, const ga_result& b) {
  ASSERT_EQ(a.archive.size(), b.archive.size());
  for (std::size_t i = 0; i < a.archive.size(); ++i) {
    EXPECT_EQ(a.archive[i].objective, b.archive[i].objective) << "archive[" << i << "]";
    EXPECT_EQ(a.archive[i].avg_latency_ms, b.archive[i].avg_latency_ms);
    EXPECT_EQ(a.archive[i].avg_energy_mj, b.archive[i].avg_energy_mj);
    EXPECT_EQ(a.archive[i].accuracy_pct, b.archive[i].accuracy_pct);
  }
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_EQ(a.pareto, b.pareto);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t g = 0; g < a.history.size(); ++g) {
    EXPECT_EQ(a.history[g].best_objective, b.history[g].best_objective) << "gen " << g;
    EXPECT_EQ(a.history[g].mean_objective, b.history[g].mean_objective) << "gen " << g;
    EXPECT_EQ(a.history[g].feasible, b.history[g].feasible) << "gen " << g;
  }
}

// --- golden bit-identity against the pre-refactor GA ------------------------

/// Formats exactly like the golden generator did (printf %.17g), so the
/// comparison is literal text equality — any drift in any double shows up
/// as a diff, not a tolerance question. The `h` lines are the pre-refactor
/// trajectory byte for byte; the `a` lines are its archive with repeated
/// configurations removed by first occurrence, and `best_index`/`pareto`
/// index that archive.
std::string golden_format(const std::vector<std::uint64_t>& seeds, const search_space& space,
                          const evaluator& eval) {
  std::string out = "mapcq-golden-k1-ga-v1\n";
  char buf[256];
  const auto put = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
  };
  for (const std::uint64_t seed : seeds) {
    const ga_result res = evolve(space, eval, tiny_ga(seed));
    put("seed = %llu\n", static_cast<unsigned long long>(seed));
    put("archive = %zu\n", res.archive.size());
    put("best_index = %zu\n", res.best_index);
    out += "pareto =";
    for (const std::size_t i : res.pareto) put(" %zu", i);
    out += "\n";
    put("history = %zu\n", res.history.size());
    for (const auto& h : res.history)
      put("h %.17g %.17g %zu\n", h.best_objective, h.mean_objective, h.feasible);
    for (const auto& e : res.archive)
      put("a %.17g %.17g %.17g %.17g\n", e.objective, e.avg_latency_ms, e.avg_energy_mj,
          e.accuracy_pct);
  }
  return out;
}

TEST_F(portfolio_fixture, k1_ga_bit_identical_to_pre_refactor_golden) {
  const char* src = std::getenv("MAPCQ_SOURCE_DIR");
  ASSERT_NE(src, nullptr) << "MAPCQ_SOURCE_DIR not set (run under ctest)";
  std::ifstream in{std::string(src) + "/tests/golden/k1_ga.txt"};
  ASSERT_TRUE(in) << "tests/golden/k1_ga.txt missing";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(golden_format({1, 2, 3, 4}, space, eval), buf.str())
      << "the refactored search_strategy GA diverged from the pre-refactor "
         "implementation";
}

// --- homogeneous portfolio == plain GA ---------------------------------------

TEST_F(portfolio_fixture, explicit_ga_assignments_are_bit_identical_to_empty_portfolio) {
  ga_options plain = tiny_ga(7);
  plain.island.islands = 2;
  ga_options assigned = plain;
  assigned.portfolio.islands = {island_assignment{}, island_assignment{}};
  expect_same_result(evolve(space, eval, plain), evolve(space, eval, assigned));
}

// --- simulated annealing ------------------------------------------------------

TEST_F(portfolio_fixture, sa_island_finds_feasible_configurations) {
  ga_options opt = tiny_ga(3);
  opt.generations = 8;
  opt.portfolio.islands = {island_assignment{island_algorithm::sa,
                                             island_orientation::balanced}};
  const ga_result res = evolve(space, eval, opt);
  EXPECT_FALSE(res.archive.empty());
  EXPECT_EQ(res.history.size(), 8u);
  for (const auto& e : res.archive) EXPECT_TRUE(e.feasible);
}

TEST_F(portfolio_fixture, sa_frozen_schedule_is_run_over_run_deterministic) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    ga_options opt = tiny_ga(seed);
    opt.portfolio.islands = {island_assignment{island_algorithm::sa,
                                               island_orientation::balanced}};
    expect_same_result(evolve(space, eval, opt), evolve(space, eval, opt));
  }
}

TEST_F(portfolio_fixture, heterogeneous_islands_with_orientations_run_and_polish) {
  ga_options opt = tiny_ga(5);
  opt.generations = 10;
  opt.population = 16;
  opt.island.islands = 2;
  opt.portfolio.islands = {
      island_assignment{island_algorithm::ga, island_orientation::balanced},
      island_assignment{island_algorithm::sa, island_orientation::latency},
  };
  const ga_result res = evolve(space, eval, opt);
  EXPECT_FALSE(res.archive.empty());
  EXPECT_EQ(res.islands, 2u);
  // Determinism holds for the mixed portfolio too.
  expect_same_result(res, evolve(space, eval, opt));
}

TEST_F(portfolio_fixture, sa_led_portfolio_polishes_through_a_fresh_ga_tail) {
  // Island 0 = SA forces the polish tail onto the dedicated merged-GA
  // stream (island_seed(seed, K)); the run must still complete and stay
  // deterministic.
  ga_options opt = tiny_ga(11);
  opt.generations = 10;
  opt.population = 16;
  opt.island.islands = 2;
  opt.portfolio.islands = {
      island_assignment{island_algorithm::sa, island_orientation::energy},
      island_assignment{island_algorithm::ga, island_orientation::balanced},
  };
  const ga_result res = evolve(space, eval, opt);
  EXPECT_FALSE(res.archive.empty());
  expect_same_result(res, evolve(space, eval, opt));
}

// --- surrogate pre-filtering --------------------------------------------------

/// Deterministic stand-in for the session GBT: scores a configuration by
/// the analytic evaluator (perfect fidelity), which keeps the counter
/// arithmetic exact without training anything.
class analytic_prefilter final : public core::candidate_prefilter {
 public:
  explicit analytic_prefilter(const evaluator& eval) : eval_(eval) {}
  [[nodiscard]] std::vector<evaluation> score(
      const std::vector<core::configuration>& configs) override {
    std::vector<evaluation> out;
    out.reserve(configs.size());
    for (const auto& c : configs) out.push_back(eval_.evaluate(c));
    ++batches_;
    return out;
  }
  std::size_t batches() const { return batches_; }

 private:
  const evaluator& eval_;
  std::size_t batches_ = 0;
};

TEST_F(portfolio_fixture, prefilter_counters_are_exact_and_reduce_evaluator_runs) {
  ga_options plain = tiny_ga(9);
  const ga_result full = evolve(space, eval, plain);

  ga_options filtered = plain;
  filtered.portfolio.prefilter.enabled = true;
  filtered.portfolio.prefilter.quantile = 0.5;
  filtered.portfolio.prefilter.warmup_generations = 2;
  analytic_prefilter scorer{eval};
  const ga_result res = evolve(space, eval, filtered, &scorer);

  // Warmup generations are unfiltered; each later generation advances
  // ceil(0.5 * 12) = 6 of its 12 candidates.
  std::size_t prefiltered = 0;
  std::size_t skipped = 0;
  for (std::size_t g = 0; g < res.history.size(); ++g) {
    if (g < 2) {
      EXPECT_EQ(res.history[g].prefiltered, 0u) << "gen " << g;
      EXPECT_EQ(res.history[g].prefilter_skipped, 0u) << "gen " << g;
    } else {
      EXPECT_EQ(res.history[g].prefiltered, 6u) << "gen " << g;
      EXPECT_EQ(res.history[g].prefilter_skipped, 6u) << "gen " << g;
    }
    prefiltered += res.history[g].prefiltered;
    skipped += res.history[g].prefilter_skipped;
  }
  EXPECT_EQ(res.prefiltered, prefiltered);
  EXPECT_EQ(res.prefilter_skipped, skipped);
  EXPECT_EQ(res.prefiltered, 4u * 6u);
  EXPECT_EQ(res.prefilter_skipped, 4u * 6u);
  EXPECT_EQ(scorer.batches(), 4u);  // one scoring batch per filtered generation

  // Strictly fewer analytic evaluator runs than the unfiltered search, and
  // every archived entry is ground truth (skipped candidates never enter).
  EXPECT_LT(res.cache.misses, full.cache.misses);
  for (const auto& e : res.archive) EXPECT_TRUE(e.feasible);

  // The unfiltered totals stay zero.
  EXPECT_EQ(full.prefiltered, 0u);
  EXPECT_EQ(full.prefilter_skipped, 0u);
}

TEST_F(portfolio_fixture, prefilter_keeps_at_least_one_candidate_and_is_deterministic) {
  ga_options opt = tiny_ga(13);
  opt.portfolio.prefilter.enabled = true;
  opt.portfolio.prefilter.quantile = 0.01;  // rounds up to one candidate
  opt.portfolio.prefilter.warmup_generations = 1;
  analytic_prefilter scorer{eval};
  const ga_result a = evolve(space, eval, opt, &scorer);
  for (std::size_t g = 1; g < a.history.size(); ++g)
    EXPECT_EQ(a.history[g].prefiltered, 1u) << "gen " << g;
  analytic_prefilter scorer2{eval};
  expect_same_result(a, evolve(space, eval, opt, &scorer2));
}

// --- option validation --------------------------------------------------------

TEST_F(portfolio_fixture, invalid_portfolio_options_throw) {
  ga_options opt = tiny_ga();
  opt.portfolio.islands = {island_assignment{}, island_assignment{}};  // K = 1
  EXPECT_THROW((void)evolve(space, eval, opt), std::invalid_argument);

  opt = tiny_ga();
  opt.portfolio.prefilter.enabled = true;  // no scorer
  EXPECT_THROW((void)evolve(space, eval, opt), std::invalid_argument);

  opt = tiny_ga();
  opt.portfolio.prefilter.enabled = true;
  opt.portfolio.prefilter.quantile = 1.5;
  analytic_prefilter scorer{eval};
  EXPECT_THROW((void)evolve(space, eval, opt, &scorer), std::invalid_argument);

  opt = tiny_ga();
  opt.portfolio.sa.cooling = 0.0;
  EXPECT_THROW((void)evolve(space, eval, opt), std::invalid_argument);

  opt = tiny_ga();
  opt.portfolio.sa.initial_temperature = 0.0;
  EXPECT_THROW((void)evolve(space, eval, opt), std::invalid_argument);
}

}  // namespace

// Objective (eq. 16) and Pareto-front tests.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/objective.h"
#include "core/pareto.h"
#include "util/rng.h"

namespace {

using namespace mapcq;
using core::dominates;
using core::pareto_front;

data::exit_outcome make_exits(std::vector<std::size_t> counts, std::size_t pop) {
  data::exit_outcome e;
  e.correct_counts = std::move(counts);
  e.exit_fractions.assign(e.correct_counts.size(), 0.0);
  e.population = pop;
  return e;
}

TEST(objective, hand_computed_value) {
  // Acc_base = 90, Acc_SM = 85, T = (2, 4), E_cum = (10, 30),
  // N = (600, 200) of 1000.
  const std::vector<double> t = {2.0, 4.0};
  const std::vector<double> e = {10.0, 30.0};
  const std::vector<double> a = {70.0, 85.0};
  const auto exits = make_exits({600, 200}, 1000);
  core::objective_inputs in;
  in.base_accuracy_pct = 90.0;
  in.stage_latency_ms = t;
  in.cumulative_energy_mj = e;
  in.stage_accuracy_pct = a;
  in.exits = &exits;
  const double t_term = 2.0 * 0.6 + 4.0 * 0.2;
  const double e_term = 10.0 * 0.6 + 30.0 * 0.2;
  EXPECT_NEAR(core::objective_value(in), (90.0 / 85.0) * t_term * e_term, 1e-12);
}

TEST(objective, lower_latency_lower_objective) {
  const std::vector<double> e = {10.0, 30.0};
  const std::vector<double> a = {70.0, 85.0};
  const auto exits = make_exits({600, 200}, 1000);
  core::objective_inputs in;
  in.base_accuracy_pct = 90.0;
  in.cumulative_energy_mj = e;
  in.stage_accuracy_pct = a;
  in.exits = &exits;
  const std::vector<double> fast = {1.0, 2.0};
  const std::vector<double> slow = {2.0, 4.0};
  in.stage_latency_ms = fast;
  const double obj_fast = core::objective_value(in);
  in.stage_latency_ms = slow;
  const double obj_slow = core::objective_value(in);
  EXPECT_LT(obj_fast, obj_slow);
}

TEST(objective, zero_last_accuracy_is_infeasible) {
  const std::vector<double> t = {1.0};
  const std::vector<double> e = {1.0};
  const std::vector<double> a = {0.0};
  const auto exits = make_exits({0}, 100);
  core::objective_inputs in;
  in.base_accuracy_pct = 90.0;
  in.stage_latency_ms = t;
  in.cumulative_energy_mj = e;
  in.stage_accuracy_pct = a;
  in.exits = &exits;
  EXPECT_TRUE(std::isinf(core::objective_value(in)));
}

TEST(objective, nothing_correct_is_infeasible) {
  const std::vector<double> t = {1.0, 1.0};
  const std::vector<double> e = {1.0, 2.0};
  const std::vector<double> a = {10.0, 20.0};
  const auto exits = make_exits({0, 0}, 100);
  core::objective_inputs in;
  in.base_accuracy_pct = 90.0;
  in.stage_latency_ms = t;
  in.cumulative_energy_mj = e;
  in.stage_accuracy_pct = a;
  in.exits = &exits;
  EXPECT_TRUE(std::isinf(core::objective_value(in)));
}

TEST(objective, rejects_mismatched_spans) {
  const std::vector<double> t = {1.0};
  const std::vector<double> e = {1.0, 2.0};
  const std::vector<double> a = {50.0};
  const auto exits = make_exits({10}, 100);
  core::objective_inputs in;
  in.base_accuracy_pct = 90.0;
  in.stage_latency_ms = t;
  in.cumulative_energy_mj = e;
  in.stage_accuracy_pct = a;
  in.exits = &exits;
  EXPECT_THROW((void)core::objective_value(in), std::invalid_argument);
  in.exits = nullptr;
  EXPECT_THROW((void)core::objective_value(in), std::invalid_argument);
}

TEST(pareto, dominates_cases) {
  EXPECT_TRUE(dominates(std::vector<double>{1.0, 2.0}, std::vector<double>{2.0, 2.0}));
  EXPECT_TRUE(dominates(std::vector<double>{1.0, 1.0}, std::vector<double>{2.0, 2.0}));
  EXPECT_FALSE(dominates(std::vector<double>{1.0, 3.0}, std::vector<double>{2.0, 2.0}));
  EXPECT_FALSE(dominates(std::vector<double>{2.0, 2.0}, std::vector<double>{2.0, 2.0}));
  EXPECT_THROW((void)dominates(std::vector<double>{1.0}, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(pareto, simple_front) {
  const std::vector<std::vector<double>> pts = {
      {1.0, 5.0}, {2.0, 3.0}, {4.0, 1.0}, {3.0, 4.0}, {5.0, 5.0}};
  const auto front = pareto_front(pts);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(pareto, identical_points_all_on_front) {
  const std::vector<std::vector<double>> pts = {{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}};
  EXPECT_EQ(pareto_front(pts).size(), 3u);
}

TEST(pareto, single_point) {
  EXPECT_EQ(pareto_front({{3.0, 4.0}}).size(), 1u);
}

TEST(pareto, empty_input_empty_front) {
  EXPECT_TRUE(pareto_front({}).empty());
}

TEST(pareto, rejects_bad_shapes) {
  EXPECT_THROW((void)pareto_front({{}, {}}), std::invalid_argument);
  EXPECT_THROW((void)pareto_front({{1.0, 2.0, 3.0, 4.0}}), std::invalid_argument);
  EXPECT_THROW((void)pareto_front({{1.0, 2.0}, {1.0}}), std::invalid_argument);
  EXPECT_THROW((void)pareto_front({{1.0, 2.0}, {0.5, std::nan("")}}), std::invalid_argument);
}

/// The definition, verbatim: a row is on the front unless another row is
/// <= in every component and < in one.
std::vector<std::size_t> pairwise_front(const std::vector<std::vector<double>>& pts) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < pts.size() && !dominated; ++j) {
      bool no_worse = true;
      bool better = false;
      for (std::size_t k = 0; k < pts[i].size(); ++k) {
        no_worse = no_worse && pts[j][k] <= pts[i][k];
        better = better || pts[j][k] < pts[i][k];
      }
      dominated = no_worse && better;
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

// Differential test against the pairwise definition: random, tie-heavy
// (few distinct levels per axis, so many rows share coordinates) and
// duplicate-heavy (exact copies of earlier rows) sets of width 1 to 3.
TEST(pareto, sweep_matches_pairwise_definition) {
  util::rng gen{2023};
  for (int set = 0; set < 1200; ++set) {
    const auto width = static_cast<std::size_t>(1 + set % 3);
    const int kind = (set / 3) % 3;  // 0 random, 1 tie-heavy, 2 duplicate-heavy
    const auto n = static_cast<std::size_t>(gen.uniform_int(0, 300));
    const auto levels = gen.uniform_int(3, 8);
    std::vector<std::vector<double>> pts;
    pts.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (kind == 2 && !pts.empty() && gen.bernoulli(0.3)) {
        pts.push_back(pts[static_cast<std::size_t>(
            gen.uniform_int(0, static_cast<std::int64_t>(pts.size()) - 1))]);
        continue;
      }
      std::vector<double> p(width);
      for (double& v : p)
        v = kind == 1 ? static_cast<double>(gen.uniform_int(0, levels - 1)) : gen.uniform(-5, 5);
      pts.push_back(std::move(p));
    }
    ASSERT_EQ(pareto_front(pts), pairwise_front(pts))
        << "set " << set << ": width " << width << ", kind " << kind << ", n " << n;
  }
}

TEST(hypervolume, matches_hand_computed_rectangles) {
  // One box: [1,2] x [1,2] relative to ref (2,2).
  EXPECT_DOUBLE_EQ(core::hypervolume({{1.0, 1.0}}, {2.0, 2.0}), 1.0);
  // Two overlapping boxes: 3 + 3 - 1 (see the union of (1,3) and (3,1)).
  EXPECT_DOUBLE_EQ(core::hypervolume({{1.0, 3.0}, {3.0, 1.0}}, {4.0, 4.0}), 5.0);
  // A dominated point adds nothing.
  EXPECT_DOUBLE_EQ(core::hypervolume({{1.0, 3.0}, {3.0, 1.0}, {3.0, 3.0}}, {4.0, 4.0}), 5.0);
  // 3-D unit cube corner.
  EXPECT_DOUBLE_EQ(core::hypervolume({{0.0, 0.0, 0.0}}, {1.0, 1.0, 1.0}), 1.0);
  // Two disjoint 3-D boxes: 1x1x2 and 1x1x1 stacked along distinct axes.
  EXPECT_DOUBLE_EQ(
      core::hypervolume({{0.0, 2.0, 1.0}, {2.0, 0.0, 2.0}}, {3.0, 3.0, 3.0}), 6.0 + 3.0 - 1.0);
}

TEST(hypervolume, points_outside_the_reference_contribute_nothing) {
  EXPECT_DOUBLE_EQ(core::hypervolume({{2.0, 2.0}}, {2.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(core::hypervolume({{5.0, 0.0}}, {2.0, 2.0}), 0.0);
  EXPECT_DOUBLE_EQ(core::hypervolume({}, {2.0, 2.0}), 0.0);
}

TEST(hypervolume, rejects_bad_shapes) {
  EXPECT_THROW((void)core::hypervolume({{1.0, 2.0}}, {}), std::invalid_argument);
  EXPECT_THROW((void)core::hypervolume({{1.0, 2.0, 3.0}}, {4.0, 4.0}), std::invalid_argument);
}

TEST(hypervolume, monotone_under_added_points_and_front_sufficient) {
  util::rng gen{7};
  std::vector<std::vector<double>> pts;
  const std::vector<double> ref = {1.0, 1.0, 1.0};
  double prev = 0.0;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({gen.uniform(), gen.uniform(), gen.uniform()});
    const double hv = core::hypervolume(pts, ref);
    EXPECT_GE(hv, prev - 1e-12);  // adding a point never shrinks the measure
    prev = hv;
  }
  // The dominated region is fully described by the non-dominated subset.
  std::vector<std::vector<double>> front_pts;
  for (const std::size_t i : pareto_front(pts)) front_pts.push_back(pts[i]);
  EXPECT_NEAR(core::hypervolume(front_pts, ref), prev, 1e-12);
}

// Property: every front member is pairwise non-dominated; every non-member
// is dominated by someone.
class pareto_property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(pareto_property, front_definition_holds) {
  util::rng gen{GetParam()};
  std::vector<std::vector<double>> pts(60);
  for (auto& p : pts) p = {gen.uniform(0, 10), gen.uniform(0, 10), gen.uniform(0, 10)};
  const auto front = pareto_front(pts);
  ASSERT_FALSE(front.empty());

  std::vector<bool> on_front(pts.size(), false);
  for (const std::size_t i : front) on_front[i] = true;

  for (const std::size_t i : front) {
    for (const std::size_t j : front) {
      if (i != j) {
        EXPECT_FALSE(dominates(pts[j], pts[i]));
      }
    }
  }

  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (on_front[i]) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < pts.size() && !dominated; ++j)
      if (j != i && dominates(pts[j], pts[i])) dominated = true;
    EXPECT_TRUE(dominated) << "non-front point " << i << " undominated";
  }
}

INSTANTIATE_TEST_SUITE_P(seeds, pareto_property, ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace

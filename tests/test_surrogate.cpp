// Features, dataset generation, regression trees, GBT ensemble (including
// its flat node table, differential-tested against the per-tree sum), the
// deployed hardware predictor (and its row memo, differential-tested
// against the kernel) and the evaluator's batched cost grid.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "core/evaluator.h"
#include "core/search_space.h"
#include "core/serialization.h"
#include "nn/models.h"
#include "perf/calibration.h"
#include "perf/latency_model.h"
#include "serving/session_snapshot.h"
#include "soc/platform.h"
#include "surrogate/dataset.h"
#include "surrogate/decision_tree.h"
#include "surrogate/features.h"
#include "surrogate/gbt.h"
#include "surrogate/predictor.h"
#include "surrogate/trainer.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using namespace mapcq;
using namespace mapcq::surrogate;

TEST(features, layout_and_names) {
  EXPECT_EQ(feature_names().size(), feature_count);
  const auto plat = soc::agx_xavier();
  perf::sublayer_cost c;
  c.kind = nn::layer_kind::attention;
  c.flops = 1e6;
  c.width_frac = 0.5;
  const auto f = featurize(c, plat.unit(0), 0, 2);
  EXPECT_NEAR(f[0], std::log1p(1e6), 1e-12);
  EXPECT_DOUBLE_EQ(f[4], 0.5);
  EXPECT_DOUBLE_EQ(f[6], 1.0);  // matmul class
  EXPECT_DOUBLE_EQ(f[7], 1.0);  // gpu one-hot
  EXPECT_DOUBLE_EQ(f[8], 0.0);
  EXPECT_DOUBLE_EQ(f[15], 2.0);  // concurrency
}

TEST(dataset, generation_is_deterministic) {
  const auto vis = nn::build_visformer();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 200;
  const auto a = generate_benchmark({&vis}, plat, opt);
  const auto b = generate_benchmark({&vis}, plat, opt);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.latency_ms, b.latency_ms);
}

TEST(dataset, different_seed_differs) {
  const auto vis = nn::build_visformer();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 100;
  const auto a = generate_benchmark({&vis}, plat, opt);
  opt.seed = 999;
  const auto b = generate_benchmark({&vis}, plat, opt);
  EXPECT_NE(a.latency_ms, b.latency_ms);
}

TEST(dataset, labels_positive) {
  const auto vgg = nn::build_vgg19();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 500;
  const auto ds = generate_benchmark({&vgg}, plat, opt);
  for (const double v : ds.latency_ms) EXPECT_GT(v, 0.0);
  for (const double v : ds.energy_mj) EXPECT_GT(v, 0.0);
}

TEST(dataset, split_is_disjoint_and_proportional) {
  const auto vis = nn::build_visformer();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 1000;
  const auto ds = generate_benchmark({&vis}, plat, opt);
  const auto parts = split(ds, 0.8, 1);
  EXPECT_EQ(parts.train.size() + parts.test.size(), 1000u);
  EXPECT_NEAR(static_cast<double>(parts.train.size()), 800.0, 1.0);
  EXPECT_THROW((void)split(ds, 0.0, 1), std::invalid_argument);
  EXPECT_THROW((void)split(ds, 1.0, 1), std::invalid_argument);
}

TEST(dataset, rejects_empty_networks) {
  const auto plat = soc::agx_xavier();
  EXPECT_THROW((void)generate_benchmark({}, plat), std::invalid_argument);
  EXPECT_THROW((void)generate_benchmark({nullptr}, plat), std::invalid_argument);
}

std::vector<std::vector<double>> grid_rows(std::size_t n, util::rng& gen) {
  std::vector<std::vector<double>> x(n);
  for (auto& r : x) r = {gen.uniform(0, 10), gen.uniform(0, 10)};
  return x;
}

TEST(decision_tree, fits_a_step_function) {
  util::rng gen{5};
  const auto x = grid_rows(500, gen);
  std::vector<double> y(500);
  for (std::size_t i = 0; i < 500; ++i) y[i] = x[i][0] > 5.0 ? 10.0 : -10.0;
  std::vector<std::size_t> rows(500);
  for (std::size_t i = 0; i < 500; ++i) rows[i] = i;
  const regression_tree t{x, y, rows, tree_params{}};
  EXPECT_NEAR(t.predict(std::vector<double>{7.0, 3.0}), 10.0, 0.5);
  EXPECT_NEAR(t.predict(std::vector<double>{2.0, 3.0}), -10.0, 0.5);
}

TEST(decision_tree, respects_depth_limit) {
  util::rng gen{6};
  const auto x = grid_rows(400, gen);
  std::vector<double> y(400);
  for (std::size_t i = 0; i < 400; ++i) y[i] = x[i][0] * x[i][1];
  std::vector<std::size_t> rows(400);
  for (std::size_t i = 0; i < 400; ++i) rows[i] = i;
  tree_params p;
  p.max_depth = 2;
  const regression_tree t{x, y, rows, p};
  EXPECT_LE(t.depth(), 2);
  EXPECT_LE(t.node_count(), 7u);
}

TEST(decision_tree, constant_target_single_leaf) {
  util::rng gen{7};
  const auto x = grid_rows(100, gen);
  const std::vector<double> y(100, 3.0);
  std::vector<std::size_t> rows(100);
  for (std::size_t i = 0; i < 100; ++i) rows[i] = i;
  const regression_tree t{x, y, rows, tree_params{}};
  EXPECT_EQ(t.node_count(), 1u);
}

TEST(decision_tree, feature_gain_identifies_informative_feature) {
  util::rng gen{8};
  const auto x = grid_rows(600, gen);
  std::vector<double> y(600);
  for (std::size_t i = 0; i < 600; ++i) y[i] = 5.0 * x[i][1];  // only feature 1 matters
  std::vector<std::size_t> rows(600);
  for (std::size_t i = 0; i < 600; ++i) rows[i] = i;
  const regression_tree t{x, y, rows, tree_params{}};
  std::vector<double> gain(2, 0.0);
  t.add_feature_gain(gain);
  EXPECT_GT(gain[1], 10.0 * gain[0]);
}

TEST(decision_tree, rejects_bad_input) {
  const std::vector<std::vector<double>> x = {{1.0}};
  const std::vector<double> y = {1.0, 2.0};
  const std::vector<std::size_t> rows = {0};
  EXPECT_THROW((regression_tree{x, y, rows, tree_params{}}), std::invalid_argument);
}

TEST(decision_tree, rejects_ragged_rows) {
  const std::vector<std::vector<double>> x = {{1.0, 2.0}, {3.0}, {5.0, 6.0}};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  const std::vector<std::size_t> rows = {0, 1, 2};
  EXPECT_THROW((regression_tree{x, y, rows, tree_params{}}), std::invalid_argument);
  EXPECT_THROW((presorted_columns{x}), std::invalid_argument);
}

TEST(decision_tree, rejects_out_of_range_row) {
  const std::vector<std::vector<double>> x = {{1.0}, {2.0}, {3.0}};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  const std::vector<std::size_t> rows = {0, 3};
  EXPECT_THROW((regression_tree{x, y, rows, tree_params{}}), std::invalid_argument);
}

TEST(decision_tree, rejects_duplicate_row) {
  const std::vector<std::vector<double>> x = {{1.0}, {2.0}, {3.0}};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  const std::vector<std::size_t> rows = {2, 0, 2};
  EXPECT_THROW((regression_tree{x, y, rows, tree_params{}}), std::invalid_argument);
}

regression_tree::node split_node(std::size_t feature, double threshold, std::size_t left,
                                 std::size_t right) {
  regression_tree::node n;
  n.leaf = false;
  n.feature = feature;
  n.threshold = threshold;
  n.left = left;
  n.right = right;
  return n;
}

regression_tree::node leaf_node(double value) {
  regression_tree::node n;
  n.value = value;
  return n;
}

TEST(decision_tree, restore_rejects_links_that_do_not_go_forward) {
  // The root's left child is the root itself: a walk that goes left would
  // never end.
  EXPECT_THROW((regression_tree{{split_node(0, 0.5, 0, 1), leaf_node(1.0)}, 1}),
               std::invalid_argument);
  // A right link back to an earlier node.
  EXPECT_THROW((regression_tree{{split_node(0, 0.5, 1, 2), split_node(0, 0.2, 3, 0),
                                 leaf_node(1.0), leaf_node(2.0)},
                                2}),
               std::invalid_argument);
  // Forward links, but node 3 has two parents.
  EXPECT_THROW((regression_tree{{split_node(0, 0.5, 1, 2), split_node(0, 0.2, 3, 4),
                                 split_node(0, 0.8, 3, 4), leaf_node(1.0), leaf_node(2.0)},
                                2}),
               std::invalid_argument);
  // Both links of one node to the same child.
  EXPECT_THROW((regression_tree{{split_node(0, 0.5, 1, 1), leaf_node(1.0)}, 1}),
               std::invalid_argument);
  // The preorder layout grow() emits is accepted.
  const regression_tree ok{{split_node(0, 0.5, 1, 4), split_node(1, 0.2, 2, 3), leaf_node(1.0),
                            leaf_node(2.0), leaf_node(3.0)},
                           2};
  EXPECT_EQ(ok.predict(std::vector<double>{0.0, 0.0}), 1.0);
  EXPECT_EQ(ok.predict(std::vector<double>{0.0, 1.0}), 2.0);
  EXPECT_EQ(ok.predict(std::vector<double>{1.0, 0.0}), 3.0);
}

// --- presorted builder vs per-node sort --------------------------------------

/// The per-node-sort exact greedy grower the presorted builder replaced,
/// with ties in a feature ordered by row id (the old std::sort left that
/// order unspecified). Same gain/leaf arithmetic, same node numbering.
class reference_grower {
 public:
  reference_grower(const std::vector<std::vector<double>>& x, const std::vector<double>& y,
                   const tree_params& p)
      : x_(x), y_(y), p_(p) {}

  std::size_t grow(std::vector<std::size_t> rows, int depth) {
    depth_reached = std::max(depth_reached, depth);
    double grad_sum = 0.0;
    for (const std::size_t r : rows) grad_sum += y_[r];
    const std::size_t me = nodes.size();
    nodes.push_back({});
    nodes[me].value = grad_sum / (static_cast<double>(rows.size()) + p_.lambda);
    if (depth >= p_.max_depth || rows.size() < 2 * p_.min_samples_leaf) return me;

    const auto score = [&](double g, std::size_t n) {
      return g * g / (static_cast<double>(n) + p_.lambda);
    };
    const double parent = score(grad_sum, rows.size());
    double best_gain = 0.0;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    std::vector<std::size_t> sorted = rows;
    for (std::size_t f = 0; f < x_.front().size(); ++f) {
      std::stable_sort(sorted.begin(), sorted.end(), [&](std::size_t a, std::size_t b) {
        return x_[a][f] < x_[b][f] || (x_[a][f] == x_[b][f] && a < b);
      });
      double left_sum = 0.0;
      for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        left_sum += y_[sorted[i]];
        const double v = x_[sorted[i]][f];
        const double v_next = x_[sorted[i + 1]][f];
        if (v == v_next) continue;
        const std::size_t n_left = i + 1;
        const std::size_t n_right = sorted.size() - n_left;
        if (n_left < p_.min_samples_leaf || n_right < p_.min_samples_leaf) continue;
        const double gain = score(left_sum, n_left) + score(grad_sum - left_sum, n_right) - parent;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = 0.5 * (v + v_next);
        }
      }
    }
    if (best_gain <= p_.min_gain) return me;

    std::vector<std::size_t> left_rows;
    std::vector<std::size_t> right_rows;
    for (const std::size_t r : rows)
      (x_[r][best_feature] <= best_threshold ? left_rows : right_rows).push_back(r);
    if (left_rows.empty() || right_rows.empty()) return me;

    nodes[me].leaf = false;
    nodes[me].feature = best_feature;
    nodes[me].threshold = best_threshold;
    nodes[me].gain = best_gain;
    const std::size_t left_id = grow(std::move(left_rows), depth + 1);
    nodes[me].left = left_id;
    const std::size_t right_id = grow(std::move(right_rows), depth + 1);
    nodes[me].right = right_id;
    return me;
  }

  std::vector<regression_tree::node> nodes;
  int depth_reached = 0;

 private:
  const std::vector<std::vector<double>>& x_;
  const std::vector<double>& y_;
  tree_params p_;
};

/// Every node field at %.17g, one line per node, plus the depth.
std::vector<std::string> node_text(const std::vector<regression_tree::node>& nodes, int depth) {
  std::vector<std::string> out{"depth " + std::to_string(depth)};
  for (const regression_tree::node& n : nodes) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%d %zu %.17g %.17g %.17g %zu %zu", n.leaf ? 1 : 0, n.feature,
                  n.threshold, n.value, n.gain, n.left, n.right);
    out.emplace_back(buf);
  }
  return out;
}

/// Rows mixing the column shapes of features.cpp: tie-free continuous
/// values, low-cardinality levels (theta, static/dynamic watts), one-hot
/// groups (the CU one-hot), skewed binaries (op_matmul) and continuous
/// values drawn from a small pool (heavy ties).
std::vector<std::vector<double>> mixed_rows(std::size_t n, std::size_t features, util::rng& gen) {
  std::vector<double> pool(6);
  for (double& v : pool) v = gen.uniform(-2.0, 2.0);
  std::vector<std::vector<double>> x(n, std::vector<double>(features));
  for (auto& row : x) {
    const auto hot = static_cast<std::size_t>(gen.uniform_int(0, 2));
    for (std::size_t f = 0; f < features; ++f) {
      switch (f % 5) {
        case 0: row[f] = gen.uniform(0.0, 10.0); break;
        case 1: row[f] = 0.25 * static_cast<double>(gen.uniform_int(0, 3)); break;
        case 2: row[f] = hot == (f / 5) % 3 ? 1.0 : 0.0; break;
        case 3: row[f] = gen.bernoulli(0.2) ? 1.0 : 0.0; break;
        default: row[f] = pool[static_cast<std::size_t>(gen.uniform_int(0, 5))]; break;
      }
    }
  }
  return x;
}

TEST(decision_tree, presorted_builder_matches_per_node_sort) {
  constexpr int kCases = 160;
  int trees_compared = 0;
  for (int c = 0; c < kCases; ++c) {
    util::rng gen{static_cast<std::uint64_t>(4000 + c)};
    const auto n = static_cast<std::size_t>(gen.uniform_int(2, 320));
    const auto features = static_cast<std::size_t>(gen.uniform_int(1, 8));
    // Shift the column shapes so every shape also appears as feature 0.
    auto x = mixed_rows(n, features + static_cast<std::size_t>(c % 5), gen);
    for (auto& row : x) row.erase(row.begin(), row.begin() + c % 5);

    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i)
      y[i] = c % 7 == 0 ? 1.5 : gen.normal() + 2.0 * x[i][0] - x[i].back();

    tree_params p;
    p.max_depth = 1 + c % 8;
    const std::size_t leaf_choices[] = {1, 4, n / 2, n / 2 + 1, 0, 2};
    p.min_samples_leaf = leaf_choices[c % 6];
    p.lambda = c % 3 == 0 ? 0.5 : 1.0;
    p.min_gain = c % 4 == 0 ? 0.0 : 1e-9;

    // Subsamples: every row ascending, every row descending, and a
    // Bernoulli subset in shuffled order.
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    std::vector<std::size_t> reversed(all.rbegin(), all.rend());
    std::vector<std::size_t> subset;
    for (std::size_t i = 0; i < n; ++i)
      if (gen.bernoulli(0.7)) subset.push_back(i);
    if (subset.empty()) subset.push_back(n - 1);
    gen.shuffle(subset);

    const presorted_columns block{x};
    for (const auto* rows : {&all, &reversed, &subset}) {
      reference_grower ref{x, y, p};
      ref.grow(*rows, 0);
      const regression_tree shared{block, y, *rows, p};
      const regression_tree own{x, y, *rows, p};
      const auto want = node_text(ref.nodes, ref.depth_reached);
      ASSERT_EQ(node_text(shared.nodes(), shared.depth()), want) << "case " << c;
      ASSERT_EQ(node_text(own.nodes(), own.depth()), want) << "case " << c;
      ++trees_compared;
    }
  }
  EXPECT_EQ(trees_compared, 3 * kCases);
}

TEST(gbt, fits_smooth_function_well) {
  util::rng gen{9};
  const auto x = grid_rows(1500, gen);
  std::vector<double> y(1500);
  for (std::size_t i = 0; i < 1500; ++i)
    y[i] = 2.0 + x[i][0] * 1.5 + std::sin(x[i][1]) * 3.0 + 20.0;
  gbt_params p;
  p.log_target = false;
  const gbt_regressor model{x, y, p};
  std::vector<double> pred(1500);
  for (std::size_t i = 0; i < 1500; ++i) pred[i] = model.predict(x[i]);
  EXPECT_GT(util::r_squared(pred, y), 0.97);
}

TEST(gbt, log_target_keeps_predictions_positive) {
  util::rng gen{10};
  const auto x = grid_rows(500, gen);
  std::vector<double> y(500);
  for (std::size_t i = 0; i < 500; ++i) y[i] = 1e-3 + x[i][0] * x[i][0];
  const gbt_regressor model{x, y, gbt_params{}};
  for (int i = 0; i < 50; ++i) {
    const double v = model.predict(std::vector<double>{gen.uniform(0, 10), gen.uniform(0, 10)});
    EXPECT_GT(v, 0.0);
  }
}

TEST(gbt, deterministic) {
  util::rng gen{11};
  const auto x = grid_rows(300, gen);
  std::vector<double> y(300);
  for (std::size_t i = 0; i < 300; ++i) y[i] = x[i][0] + 1.0;
  gbt_params p;
  p.log_target = false;
  const gbt_regressor a{x, y, p};
  const gbt_regressor b{x, y, p};
  const std::vector<double> probe = {3.3, 4.4};
  EXPECT_DOUBLE_EQ(a.predict(probe), b.predict(probe));
}

TEST(gbt, feature_importance_normalized) {
  util::rng gen{12};
  const auto x = grid_rows(400, gen);
  std::vector<double> y(400);
  for (std::size_t i = 0; i < 400; ++i) y[i] = x[i][0] * 2.0 + 1.0;
  gbt_params p;
  p.log_target = false;
  const gbt_regressor model{x, y, p};
  const auto imp = model.feature_importance(2);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
  EXPECT_GT(imp[0], imp[1]);
}

TEST(gbt, rejects_bad_input) {
  const std::vector<std::vector<double>> x = {{1.0}, {2.0}};
  EXPECT_THROW((gbt_regressor{x, std::vector<double>{1.0}, gbt_params{}}),
               std::invalid_argument);
  EXPECT_THROW((gbt_regressor{x, std::vector<double>{1.0, -1.0}, gbt_params{}}),
               std::invalid_argument);  // log target needs positive y
  gbt_params p;
  p.n_trees = 0;
  EXPECT_THROW((gbt_regressor{x, std::vector<double>{1.0, 2.0}, p}), std::invalid_argument);
}

TEST(gbt, rejects_ragged_rows) {
  const std::vector<std::vector<double>> x = {{1.0, 2.0}, {2.0, 3.0}, {3.0}};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)gbt_trainer{gbt_params{}}.fit(x, y), std::invalid_argument);
}

/// One hand-built tree as a no-transform ensemble (base 0, rate 1).
gbt_regressor single_tree(std::vector<regression_tree::node> nodes, int depth) {
  fitted_ensemble parts;
  parts.trees.emplace_back(std::move(nodes), depth);
  return gbt_regressor{std::move(parts), 1.0, false};
}

TEST(gbt, flat_walk_sends_ties_left_and_nan_right) {
  const gbt_regressor model = single_tree(
      {split_node(0, 0.5, 1, 2), leaf_node(-1.0), leaf_node(2.0)}, 1);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(model.predict(std::vector<double>{0.5}), -1.0);  // x == threshold: left
  EXPECT_EQ(model.predict(std::vector<double>{std::nextafter(0.5, 1.0)}), 2.0);
  EXPECT_EQ(model.predict(std::vector<double>{-inf}), -1.0);
  EXPECT_EQ(model.predict(std::vector<double>{inf}), 2.0);
  EXPECT_EQ(model.predict(std::vector<double>{std::nan("")}), 2.0);
}

TEST(gbt, row_width_is_checked_once_up_front) {
  // Only the right branch reads feature 2, so a walk alone would accept a
  // one-wide row that goes left and reject one that goes right.
  const gbt_regressor model = single_tree({split_node(0, 0.5, 1, 2), leaf_node(1.0),
                                           split_node(2, 0.5, 3, 4), leaf_node(2.0),
                                           leaf_node(3.0)},
                                          2);
  EXPECT_EQ(model.min_width(), 3u);
  EXPECT_THROW((void)model.predict(std::vector<double>{0.0}), std::invalid_argument);
  EXPECT_THROW((void)model.predict(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_EQ(model.predict(std::vector<double>{0.0, 9.0, 9.0}), 1.0);
  EXPECT_EQ(model.predict(std::vector<double>{1.0, 9.0, 0.0, 9.0}), 2.0);  // wider is fine

  const std::vector<std::vector<double>> narrow = {{0.0, 0.0}, {1.0, 0.0}};
  EXPECT_THROW((void)model.predict(narrow), std::invalid_argument);
  std::vector<double> out(2);
  const std::vector<double> flat = {0.0, 0.0, 1.0, 0.0};
  EXPECT_THROW(model.predict(flat, 2, out), std::invalid_argument);
}

TEST(gbt, ragged_batches_throw) {
  const gbt_regressor model = single_tree(
      {split_node(0, 0.5, 1, 2), leaf_node(-1.0), leaf_node(2.0)}, 1);
  const std::vector<std::vector<double>> shorter = {{0.0, 1.0}, {1.0}};
  const std::vector<std::vector<double>> longer = {{0.0}, {1.0, 2.0}};
  EXPECT_THROW((void)model.predict(shorter), std::invalid_argument);
  EXPECT_THROW((void)model.predict(longer), std::invalid_argument);
  EXPECT_TRUE(model.predict(std::vector<std::vector<double>>{}).empty());

  // Flat blocks must hold exactly width x count values.
  const std::vector<double> five = {0.0, 1.0, 2.0, 3.0, 4.0};
  std::vector<double> out(2);
  EXPECT_THROW(model.predict(five, 2, out), std::invalid_argument);
  EXPECT_THROW(model.predict(five, 3, out), std::invalid_argument);
  EXPECT_THROW(model.predict(five, 1, std::span<double>{}), std::invalid_argument);
  model.predict(std::span<const double>{five}.first(4), 2, out);
  EXPECT_EQ(out, (std::vector<double>{-1.0, 2.0}));
}

/// The per-tree sum the flat table replaced: base + sum(rate * tree(row)),
/// then exp under log_target.
double per_tree_sum(const gbt_regressor& model, std::span<const double> row) {
  double acc = model.base();
  for (const regression_tree& t : model.trees()) acc += model.learning_rate() * t.predict(row);
  return model.log_target() ? std::exp(acc) : acc;
}

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(gbt, flat_table_matches_per_tree_sum) {
  constexpr int kCases = 120;
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t rows_compared = 0;
  std::size_t ties = 0;
  std::size_t specials = 0;
  for (int c = 0; c < kCases; ++c) {
    util::rng gen{static_cast<std::uint64_t>(9000 + c)};
    const auto n = static_cast<std::size_t>(gen.uniform_int(30, 160));
    const auto features = static_cast<std::size_t>(gen.uniform_int(1, 6));
    const auto x = mixed_rows(n, features, gen);

    gbt_params p;
    const std::size_t tree_choices[] = {1, 2, 120};
    p.n_trees = tree_choices[c % 3];
    p.tree.max_depth = 1 + c % 8;
    p.tree.min_samples_leaf = 1 + static_cast<std::size_t>(c % 4);
    p.log_target = (c / 8) % 2 == 0;
    p.seed = static_cast<std::uint64_t>(c);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double v = gen.normal() + 2.0 * x[i][0] - x[i].back();
      y[i] = p.log_target ? std::exp(v) : v;
    }

    // The same fit, used directly and restored from mapcq-snapshot-v1 text.
    const gbt_regressor fitted{x, y, p};
    serving::session_snapshot snap;
    snap.session_key = "flat-table";
    snap.surrogate.emplace();
    snap.surrogate->gbt = p;
    snap.surrogate->latency = fitted_ensemble{fitted.trees(), fitted.base(), fitted.train_rmse()};
    snap.surrogate->energy = snap.surrogate->latency;
    const serving::session_snapshot back = serving::snapshot_from_text(serving::to_text(snap));
    const gbt_regressor restored{back.surrogate->latency, p.learning_rate, p.log_target};

    // Probe values: training values, exact split thresholds (must go
    // left), +-inf and NaN (must go right).
    std::vector<std::vector<double>> thresholds(features);
    for (const regression_tree& t : fitted.trees())
      for (const regression_tree::node& nd : t.nodes())
        if (!nd.leaf) thresholds[nd.feature].push_back(nd.threshold);
    const std::size_t batch_choices[] = {0, 1, 3, 17, 2 * static_cast<std::size_t>(c) + 1};
    const std::size_t batch = batch_choices[c % 5];
    const auto pick = [&gen](std::size_t count) {
      return static_cast<std::size_t>(gen.uniform_int(0, static_cast<std::int64_t>(count) - 1));
    };
    std::vector<std::vector<double>> probe(batch, std::vector<double>(features));
    for (auto& row : probe) {
      for (std::size_t f = 0; f < features; ++f) {
        const double u = gen.uniform();
        if (u < 0.35 && !thresholds[f].empty()) {
          row[f] = thresholds[f][pick(thresholds[f].size())];
          ++ties;
        } else if (u < 0.45) {
          row[f] = u < 0.4 ? inf : -inf;
          ++specials;
        } else if (u < 0.5) {
          row[f] = std::nan("");
          ++specials;
        } else {
          row[f] = x[pick(n)][f];
        }
      }
    }

    std::vector<std::string> want;
    for (const auto& row : probe) want.push_back(g17(per_tree_sum(fitted, row)));

    // Flat blocks with a stride wider than the rows: padding is never read.
    const std::size_t stride = features + static_cast<std::size_t>(c % 3);
    std::vector<double> flat;
    for (const auto& row : probe) {
      flat.insert(flat.end(), row.begin(), row.end());
      flat.insert(flat.end(), stride - features, std::nan(""));
    }

    for (const gbt_regressor* model : {&fitted, &restored}) {
      const std::vector<double> rows_out = model->predict(probe);
      std::vector<double> flat_out(batch);
      model->predict(flat, stride, flat_out);
      ASSERT_EQ(rows_out.size(), batch);
      for (std::size_t r = 0; r < batch; ++r) {
        ASSERT_EQ(g17(model->predict(probe[r])), want[r]) << "case " << c << " row " << r;
        ASSERT_EQ(g17(rows_out[r]), want[r]) << "case " << c << " row " << r;
        ASSERT_EQ(g17(flat_out[r]), want[r]) << "case " << c << " row " << r;
        ++rows_compared;
      }
    }
  }
  EXPECT_GT(rows_compared, 2000u);
  EXPECT_GT(ties, 500u);
  EXPECT_GT(specials, 500u);
}

TEST(gbt, snapshot_round_trip_predicts_bit_identically) {
  const auto vis = nn::build_visformer();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 600;
  const auto ds = generate_benchmark({&vis}, plat, opt);
  gbt_params p;
  p.n_trees = 40;
  serving::session_snapshot snap;
  snap.session_key = "round-trip";
  snap.surrogate.emplace();
  snap.surrogate->gbt = p;
  snap.surrogate->latency = gbt_trainer{p}.fit(ds.x, ds.latency_ms);
  snap.surrogate->energy = gbt_trainer{p}.fit(ds.x, ds.energy_mj);

  const serving::session_snapshot back = serving::snapshot_from_text(serving::to_text(snap));
  ASSERT_TRUE(back.surrogate.has_value());
  const hw_predictor fitted{gbt_regressor{snap.surrogate->latency, p.learning_rate, p.log_target},
                            gbt_regressor{snap.surrogate->energy, p.learning_rate, p.log_target}};
  const hw_predictor restored{
      gbt_regressor{back.surrogate->latency, p.learning_rate, p.log_target},
      gbt_regressor{back.surrogate->energy, p.learning_rate, p.log_target}};
  for (const auto& row : ds.x) {
    const double lat = fitted.latency_model().predict(row);
    const double en = fitted.energy_model().predict(row);
    const double lat_back = restored.latency_model().predict(row);
    const double en_back = restored.energy_model().predict(row);
    ASSERT_EQ(std::memcmp(&lat, &lat_back, sizeof lat), 0);
    ASSERT_EQ(std::memcmp(&en, &en_back, sizeof en), 0);
  }
}

TEST(predictor, fidelity_on_heldout_is_good) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 3000;
  const auto ds = generate_benchmark({&vis, &vgg}, plat, opt);
  const auto parts = split(ds, 0.8, 3);
  const hw_predictor pred{parts.train};
  const auto fid = pred.evaluate(parts.test);
  EXPECT_LT(fid.latency_mape, 15.0);
  EXPECT_LT(fid.energy_mape, 15.0);
  EXPECT_GT(fid.latency_r2, 0.9);
  EXPECT_GT(fid.energy_r2, 0.9);
}

// Pins the surrogate's rank-fidelity contract: on the split a serving
// session trains on, held-out Kendall tau must not regress.
TEST(predictor, heldout_rank_fidelity_guard) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto plat = perf::calibrated_xavier(vis, vgg).plat;
  const benchmark_options opt;
  const auto ds = generate_benchmark({&vis, &vgg}, plat, opt);
  const auto parts = split(ds, 0.8, opt.seed ^ 0x5eed);
  const hw_predictor pred{parts.train};
  const rank_fidelity fid = score_predictor(pred, parts.test);
  EXPECT_GE(fid.latency_tau, 0.95);
  EXPECT_GE(fid.energy_tau, 0.97);
}

TEST(predictor, batch_rejects_mismatched_sizes) {
  const auto vis = nn::build_visformer();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 200;
  const hw_predictor pred{generate_benchmark({&vis}, plat, opt)};
  const std::vector<double> rows(2 * feature_count, 1.0);
  std::vector<double> lat(2);
  std::vector<double> en(2);
  std::vector<double> short_en(1);
  // Checked before the memo is first used...
  EXPECT_THROW(pred.predict(rows, lat, short_en), std::invalid_argument);
  pred.predict(rows, lat, en);
  // ...and after.
  EXPECT_THROW(pred.predict(rows, lat, short_en), std::invalid_argument);
  EXPECT_THROW(pred.predict(std::span<const double>{rows}.first(feature_count + 1), lat, en),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The row memo inside hw_predictor::predict: every result must carry the
// kernel's bits for the exact row, whatever the memo holds.
// ---------------------------------------------------------------------------

struct memo_fixture : ::testing::Test {
  nn::network vis = nn::build_visformer();
  soc::platform plat = soc::agx_xavier();
  dataset data = generate_benchmark({&vis}, plat, [] {
    benchmark_options opt;
    opt.samples = 300;
    return opt;
  }());
  hw_predictor pred{data, [] {
                      gbt_params p;
                      p.n_trees = 20;
                      return p;
                    }()};

  /// `n` distinct rows back to back: benchmark rows with every feature
  /// jittered by up to 5%, so they spread over the trees' branches.
  std::vector<double> jittered_rows(std::size_t n, std::uint64_t seed) const {
    util::rng gen{seed};
    std::vector<double> rows;
    rows.reserve(n * feature_count);
    for (std::size_t i = 0; i < n; ++i)
      for (const double v : data.x[i % data.size()]) rows.push_back(v * gen.uniform(0.95, 1.05));
    return rows;
  }

  /// Scores `rows` through the memo and checks each result's bits against
  /// both heads' kernels on the same rows.
  void expect_kernel_bits(std::span<const double> rows) const {
    const std::size_t n = rows.size() / feature_count;
    std::vector<double> lat(n), en(n), want_lat(n), want_en(n);
    pred.predict(rows, lat, en);
    pred.latency_model().predict(rows, feature_count, want_lat);
    pred.energy_model().predict(rows, feature_count, want_en);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(lat[k]), std::bit_cast<std::uint64_t>(want_lat[k]))
          << "row " << k;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(en[k]), std::bit_cast<std::uint64_t>(want_en[k]))
          << "row " << k;
    }
  }
};

TEST_F(memo_fixture, repeats_in_a_batch_and_across_calls_carry_the_kernels_bits) {
  const std::vector<double> fresh = jittered_rows(64, 1);
  // Each row twice in one batch, the second copy in reverse order.
  std::vector<double> batch = fresh;
  for (std::size_t k = 64; k-- > 0;)
    batch.insert(batch.end(), fresh.begin() + k * feature_count,
                 fresh.begin() + (k + 1) * feature_count);
  expect_kernel_bits(batch);  // cold: misses, then in-batch repeats
  expect_kernel_bits(batch);  // warm: all served by the memo
  // Half known, half new, interleaved.
  const std::vector<double> other = jittered_rows(64, 2);
  std::vector<double> mixed;
  for (std::size_t k = 0; k < 64; ++k) {
    const auto& src = k % 2 == 0 ? fresh : other;
    mixed.insert(mixed.end(), src.begin() + k * feature_count,
                 src.begin() + (k + 1) * feature_count);
  }
  expect_kernel_bits(mixed);
  expect_kernel_bits(std::span<const double>{fresh}.first(feature_count));  // a single row
}

TEST_F(memo_fixture, rows_beyond_its_capacity_replace_entries_without_changing_a_bit) {
  constexpr std::size_t n = 3 * hw_predictor::memo_capacity;
  const std::vector<double> rows = jittered_rows(n, 3);
  constexpr std::size_t batch = 57;  // a Visformer configuration's worth of cells
  const auto chunk = [&](std::size_t first) {
    const std::size_t count = std::min(batch, n - first);
    return std::span<const double>{rows}.subspan(first * feature_count, count * feature_count);
  };
  for (std::size_t first = 0; first < n; first += batch) expect_kernel_bits(chunk(first));
  // A second pass in shuffled chunk order meets the survivors of
  // replacement beside rows that were evicted.
  std::vector<std::size_t> order;
  for (std::size_t first = 0; first < n; first += batch) order.push_back(first);
  util::rng gen{4};
  gen.shuffle(order);
  for (const std::size_t first : order) expect_kernel_bits(chunk(first));
}

TEST_F(memo_fixture, signed_zeros_and_nan_payloads_are_distinct_rows) {
  // Rows that differ only in the sign of a zero or in a NaN's payload are
  // distinct keys. The kernel walks them alike (-0.0 <= t iff +0.0 <= t;
  // every NaN goes right), so each must get the same bits it would alone.
  const std::vector<double> base = jittered_rows(1, 5);
  const double payloads[] = {0.0, -0.0, std::bit_cast<double>(0x7ff8000000000001ULL),
                             std::bit_cast<double>(0x7ff8000000000002ULL),
                             std::bit_cast<double>(0xfff8000000000000ULL)};
  std::vector<double> rows;
  for (const std::size_t feature : {std::size_t{4}, std::size_t{13}})
    for (const double v : payloads) {
      std::vector<double> row = base;
      row[feature] = v;
      rows.insert(rows.end(), row.begin(), row.end());
    }
  expect_kernel_bits(rows);
  std::vector<double> reversed;
  for (std::size_t k = rows.size() / feature_count; k-- > 0;)
    reversed.insert(reversed.end(), rows.begin() + k * feature_count,
                    rows.begin() + (k + 1) * feature_count);
  expect_kernel_bits(reversed);
  expect_kernel_bits(rows);
}

// Engine workers share one const predictor: overlapping batches scored from
// four threads (under TSan in CI) must each get the kernel's bits.
TEST_F(memo_fixture, threads_sharing_one_predictor_get_the_kernels_bits) {
  constexpr std::size_t pool = 2 * hw_predictor::memo_capacity;
  const std::vector<double> rows = jittered_rows(pool, 6);
  std::vector<double> want_lat(pool), want_en(pool);
  pred.latency_model().predict(rows, feature_count, want_lat);
  pred.energy_model().predict(rows, feature_count, want_en);

  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      // Each thread draws from a window that overlaps its neighbours'.
      util::rng gen{100 + t};
      const auto lo = static_cast<std::int64_t>(t * pool / 8);
      const auto hi = static_cast<std::int64_t>(lo + pool / 2 - 1);
      std::vector<std::size_t> picks(57);
      std::vector<double> batch, lat(picks.size()), en(picks.size());
      for (int b = 0; b < 150; ++b) {
        batch.clear();
        for (std::size_t& i : picks) {
          i = static_cast<std::size_t>(gen.uniform_int(lo, hi));
          batch.insert(batch.end(), rows.begin() + i * feature_count,
                       rows.begin() + (i + 1) * feature_count);
        }
        pred.predict(batch, lat, en);
        for (std::size_t k = 0; k < picks.size(); ++k)
          if (std::bit_cast<std::uint64_t>(lat[k]) !=
                  std::bit_cast<std::uint64_t>(want_lat[picks[k]]) ||
              std::bit_cast<std::uint64_t>(en[k]) != std::bit_cast<std::uint64_t>(want_en[picks[k]]))
            wrong.fetch_add(1);
      }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
}

std::string eval_text(const core::evaluation& e) {
  std::ostringstream os;
  core::write_evaluation(os, e);
  return os.str();
}

/// The per-cell grid predict_costs replaced: every non-empty cell
/// featurized and scored alone by the per-tree sum, empty cells 0.
perf::step_costs per_cell_costs(const perf::stage_plan& plan, const soc::platform& plat,
                                const hw_predictor& pred) {
  perf::step_costs costs;
  costs.tau_ms.assign(plan.stages(), std::vector<double>(plan.groups(), 0.0));
  costs.energy_mj.assign(plan.stages(), std::vector<double>(plan.groups(), 0.0));
  for (std::size_t i = 0; i < plan.stages(); ++i) {
    const std::size_t unit = plan.cu_of_stage[i];
    for (std::size_t j = 0; j < plan.groups(); ++j) {
      const perf::sublayer_cost& cost = plan.steps[i][j].cost;
      if (cost.empty()) continue;
      const auto row = featurize(cost, plat.unit(unit), plan.dvfs_level[unit],
                                 plan.active_stages());
      costs.tau_ms[i][j] = per_tree_sum(pred.latency_model(), row);
      costs.energy_mj[i][j] = per_tree_sum(pred.energy_model(), row);
    }
  }
  return costs;
}

void expect_same_grid(const perf::step_costs& got, const perf::step_costs& want) {
  ASSERT_EQ(got.tau_ms.size(), want.tau_ms.size());
  ASSERT_EQ(got.energy_mj.size(), want.energy_mj.size());
  for (std::size_t i = 0; i < want.tau_ms.size(); ++i) {
    ASSERT_EQ(got.tau_ms[i].size(), want.tau_ms[i].size());
    ASSERT_EQ(got.energy_mj[i].size(), want.energy_mj[i].size());
    for (std::size_t j = 0; j < want.tau_ms[i].size(); ++j) {
      EXPECT_EQ(g17(got.tau_ms[i][j]), g17(want.tau_ms[i][j])) << "cell " << i << "," << j;
      EXPECT_EQ(g17(got.energy_mj[i][j]), g17(want.energy_mj[i][j])) << "cell " << i << "," << j;
    }
  }
}

// The batched grid (gather, one call per head, scatter) against the
// per-cell reference, on random configurations of both paper networks.
TEST(predictor, batched_cost_grid_matches_per_cell_reference) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const soc::platform plat = perf::calibrated_xavier(vis, vgg).plat;
  benchmark_options bopt;
  bopt.samples = 1500;
  const hw_predictor pred{generate_benchmark({&vis, &vgg}, plat, bopt)};
  core::evaluator_options opt;
  opt.predictor = &pred;

  std::size_t cells = 0;
  for (const nn::network* net : {&vis, &vgg}) {
    const core::evaluator ev{*net, plat, opt};
    const core::search_space space{*net, plat};
    util::rng gen{net->name.size()};
    std::vector<core::configuration> configs;
    for (int i = 0; i < 24; ++i) configs.push_back(space.decode(space.random(gen)));

    for (const core::configuration& config : configs) {
      const core::dynamic_network dyn =
          core::transform(*net, ev.groups(), ev.ranking(), config, plat);
      expect_same_grid(core::predict_costs(dyn.plan, plat, pred),
                       per_cell_costs(dyn.plan, plat, pred));
      cells += dyn.plan.stages() * dyn.plan.groups();
    }

    // Surrogate evaluate_batch is a loop over evaluate.
    std::vector<const core::configuration*> ptrs;
    for (const core::configuration& c : configs) ptrs.push_back(&c);
    const std::vector<core::evaluation> batch = ev.evaluate_batch(ptrs);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t k = 0; k < configs.size(); ++k)
      EXPECT_EQ(eval_text(batch[k]), eval_text(ev.evaluate(configs[k])));
  }
  EXPECT_GT(cells, 1000u);
}

// Empty cells get 0 and are never queried: emptying cells leaves them at
// exactly 0 and every other cell's prediction unchanged.
TEST(predictor, empty_cells_cost_zero) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const soc::platform plat = perf::calibrated_xavier(vis, vgg).plat;
  benchmark_options bopt;
  bopt.samples = 400;
  const hw_predictor pred{generate_benchmark({&vis}, plat, bopt)};
  const core::evaluator ev{vis, plat};
  const core::search_space space{vis, plat};
  util::rng gen{3};
  perf::stage_plan plan =
      core::transform(vis, ev.groups(), ev.ranking(), space.decode(space.random(gen)), plat).plan;
  const perf::step_costs full = core::predict_costs(plan, plat, pred);

  // Empty every second non-empty cell of each stage, keeping the first, so
  // the concurrency feature stays the same.
  const std::size_t active = plan.active_stages();
  std::size_t emptied = 0;
  for (auto& stage : plan.steps) {
    std::size_t kept = 0;
    for (perf::stage_step& step : stage)
      if (!step.cost.empty() && kept++ % 2 == 1) {
        step.cost = {};
        ++emptied;
      }
  }
  ASSERT_GT(emptied, 0u);
  ASSERT_EQ(plan.active_stages(), active);
  const perf::step_costs sparse = core::predict_costs(plan, plat, pred);
  for (std::size_t i = 0; i < plan.stages(); ++i)
    for (std::size_t j = 0; j < plan.groups(); ++j) {
      const bool empty = plan.steps[i][j].cost.empty();
      EXPECT_EQ(sparse.tau_ms[i][j], empty ? 0.0 : full.tau_ms[i][j]);
      EXPECT_EQ(sparse.energy_mj[i][j], empty ? 0.0 : full.energy_mj[i][j]);
    }

  // A plan with no work at all makes no query and costs nothing.
  for (auto& stage : plan.steps)
    for (perf::stage_step& step : stage) step.cost = {};
  const perf::step_costs none = core::predict_costs(plan, plat, pred);
  for (const auto& stage : none.tau_ms)
    for (const double v : stage) EXPECT_EQ(v, 0.0);
}

TEST(predictor, rejects_empty_training) {
  EXPECT_THROW((hw_predictor{dataset{}}), std::invalid_argument);
}

}  // namespace

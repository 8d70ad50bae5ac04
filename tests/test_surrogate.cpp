// Features, dataset generation, regression trees, GBT ensemble and the
// deployed hardware predictor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

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

TEST(predictor, empty_cost_predicts_zero) {
  const auto vis = nn::build_visformer();
  const auto plat = soc::agx_xavier();
  benchmark_options opt;
  opt.samples = 200;
  const auto ds = generate_benchmark({&vis}, plat, opt);
  const hw_predictor pred{ds};
  EXPECT_DOUBLE_EQ(pred.latency_ms({}, plat.unit(0), 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(pred.energy_mj({}, plat.unit(0), 0, 1), 0.0);
}

TEST(predictor, rejects_empty_training) {
  EXPECT_THROW((hw_predictor{dataset{}}), std::invalid_argument);
}

}  // namespace

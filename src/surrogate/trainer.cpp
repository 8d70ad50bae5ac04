#include "surrogate/trainer.h"

#include <cmath>
#include <stdexcept>

#include "surrogate/predictor.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mapcq::surrogate {

fitted_ensemble gbt_trainer::fit(std::span<const std::vector<double>> x,
                                 std::span<const double> y) const {
  if (x.size() != y.size() || x.empty())
    throw std::invalid_argument("gbt_trainer: bad training data");
  if (params_.n_trees == 0) throw std::invalid_argument("gbt_trainer: n_trees must be > 0");
  if (params_.subsample <= 0.0 || params_.subsample > 1.0)
    throw std::invalid_argument("gbt_trainer: subsample out of (0,1]");

  // Sorted once here; every tree below only filters and partitions it.
  const presorted_columns block{x};
  const std::size_t n = x.size();
  std::vector<double> target(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (params_.log_target) {
      if (y[i] <= 0.0)
        throw std::invalid_argument("gbt_trainer: non-positive target with log_target");
      target[i] = std::log(y[i]);
    } else {
      target[i] = y[i];
    }
  }

  fitted_ensemble out;
  out.base = util::mean(target);
  std::vector<double> pred(n, out.base);
  std::vector<double> residual(n);

  util::rng gen{params_.seed};
  std::vector<std::size_t> all_rows(n);
  for (std::size_t i = 0; i < n; ++i) all_rows[i] = i;

  out.trees.reserve(params_.n_trees);
  for (std::size_t t = 0; t < params_.n_trees; ++t) {
    for (std::size_t i = 0; i < n; ++i) residual[i] = target[i] - pred[i];

    std::vector<std::size_t> rows;
    if (params_.subsample < 1.0) {
      rows.reserve(static_cast<std::size_t>(params_.subsample * static_cast<double>(n)) + 1);
      for (std::size_t i = 0; i < n; ++i)
        if (gen.bernoulli(params_.subsample)) rows.push_back(i);
      if (rows.size() < 2 * params_.tree.min_samples_leaf) rows = all_rows;
    } else {
      rows = all_rows;
    }

    out.trees.emplace_back(block, residual, rows, params_.tree);
    for (std::size_t i = 0; i < n; ++i)
      pred[i] += params_.learning_rate * out.trees.back().predict(x[i]);
  }

  // Final training error in the original target space.
  std::vector<double> final_pred(n);
  std::vector<double> final_truth(n);
  for (std::size_t i = 0; i < n; ++i) {
    final_pred[i] = params_.log_target ? std::exp(pred[i]) : pred[i];
    final_truth[i] = y[i];
  }
  out.train_rmse = util::rmse(final_pred, final_truth);
  return out;
}

rank_fidelity score_predictor(const hw_predictor& predictor, const dataset& holdout) {
  if (holdout.size() == 0) throw std::invalid_argument("score_predictor: empty holdout");
  const std::span<const std::vector<double>> rows{holdout.x};
  const std::vector<double> lat = predictor.latency_model().predict(rows);
  const std::vector<double> en = predictor.energy_model().predict(rows);
  rank_fidelity f;
  f.latency_tau = util::kendall_tau(lat, holdout.latency_ms);
  f.energy_tau = util::kendall_tau(en, holdout.energy_mj);
  f.latency_mae = util::mae(lat, holdout.latency_ms);
  f.energy_mae = util::mae(en, holdout.energy_mj);
  return f;
}

}  // namespace mapcq::surrogate

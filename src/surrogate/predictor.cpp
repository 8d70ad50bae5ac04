#include "surrogate/predictor.h"

#include <stdexcept>

#include "util/stats.h"

namespace mapcq::surrogate {

hw_predictor::hw_predictor(const dataset& train_set, const gbt_params& params) {
  if (train_set.size() == 0) throw std::invalid_argument("hw_predictor: empty training set");
  latency_ = std::make_unique<gbt_regressor>(std::span<const std::vector<double>>(train_set.x),
                                             std::span<const double>(train_set.latency_ms),
                                             params);
  energy_ = std::make_unique<gbt_regressor>(std::span<const std::vector<double>>(train_set.x),
                                            std::span<const double>(train_set.energy_mj), params);
}

hw_predictor::hw_predictor(gbt_regressor latency, gbt_regressor energy)
    : latency_(std::make_unique<gbt_regressor>(std::move(latency))),
      energy_(std::make_unique<gbt_regressor>(std::move(energy))) {}

void hw_predictor::predict(std::span<const double> rows, std::span<double> latency_ms,
                           std::span<double> energy_mj) const {
  if (latency_ms.size() != energy_mj.size())
    throw std::invalid_argument("hw_predictor::predict: output sizes differ");
  latency_->predict(rows, feature_count, latency_ms);
  energy_->predict(rows, feature_count, energy_mj);
}

hw_predictor::fidelity hw_predictor::evaluate(const dataset& test_set) const {
  if (test_set.size() == 0) throw std::invalid_argument("hw_predictor::evaluate: empty test set");
  const auto lat_pred = latency_->predict(std::span<const std::vector<double>>(test_set.x));
  const auto en_pred = energy_->predict(std::span<const std::vector<double>>(test_set.x));
  fidelity f;
  f.latency_rmse = util::rmse(lat_pred, test_set.latency_ms);
  f.latency_mape = util::mape(lat_pred, test_set.latency_ms);
  f.latency_r2 = util::r_squared(lat_pred, test_set.latency_ms);
  f.energy_rmse = util::rmse(en_pred, test_set.energy_mj);
  f.energy_mape = util::mape(en_pred, test_set.energy_mj);
  f.energy_r2 = util::r_squared(en_pred, test_set.energy_mj);
  return f;
}

}  // namespace mapcq::surrogate

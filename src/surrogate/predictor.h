#pragma once
// The deployed hardware-cost predictor: two boosted ensembles (latency,
// energy) that score featurized sublayer cells in place of the analytic
// models, so the GA evaluator can swap between measured-model and
// surrogate (paper Fig. 5, "HW Performance Characterization").

#include <memory>
#include <span>

#include "surrogate/dataset.h"
#include "surrogate/features.h"
#include "surrogate/gbt.h"

namespace mapcq::surrogate {

/// Fitted latency + energy predictor.
///
/// Ownership: owns both fitted ensembles outright; the training dataset is
/// only borrowed during construction. A `core::evaluator_options::predictor`
/// pointing at an hw_predictor borrows it — the owner (e.g. a serving
/// session) must keep it alive for the evaluator's lifetime.
///
/// Thread-safety: immutable once constructed — every member is const and
/// safe to call concurrently from any thread (the GA's parallel evaluation
/// workers all share one predictor).
///
/// Blocking: construction trains both GBT ensembles (seconds at paper-scale
/// benchmark sizes); predictions never block. A block of rows is scored in
/// one tree-major pass per head over the heads' flat node tables (see
/// gbt_regressor), a few microseconds per row.
class hw_predictor {
 public:
  /// Trains both ensembles on the benchmark dataset (blocking; see class
  /// comment). Throws std::invalid_argument on an empty or ragged dataset.
  hw_predictor(const dataset& train_set, const gbt_params& params = {});

  /// Adopts two already-fitted ensembles without training — the restore
  /// path of session snapshots (serving/session_snapshot.h). Predictions
  /// are bit-identical to the predictor the ensembles came from.
  hw_predictor(gbt_regressor latency, gbt_regressor energy);

  /// Predicted latency (ms) and energy (mJ) of `latency_ms.size()`
  /// sublayer cells whose `featurize()` rows, `feature_count` values each,
  /// lie back to back in `rows`. Throws std::invalid_argument when the
  /// sizes disagree.
  void predict(std::span<const double> rows, std::span<double> latency_ms,
               std::span<double> energy_mj) const;

  /// Held-out quality metrics (RMSE in target units, MAPE in %, R² in
  /// [-inf, 1]); see `evaluate`.
  struct fidelity {
    double latency_rmse = 0.0;
    double latency_mape = 0.0;
    double latency_r2 = 0.0;
    double energy_rmse = 0.0;
    double energy_mape = 0.0;
    double energy_r2 = 0.0;
  };
  /// Scores both ensembles on a held-out set (pure; `test_set` borrowed
  /// for the call).
  [[nodiscard]] fidelity evaluate(const dataset& test_set) const;

  [[nodiscard]] const gbt_regressor& latency_model() const noexcept { return *latency_; }
  [[nodiscard]] const gbt_regressor& energy_model() const noexcept { return *energy_; }

 private:
  std::unique_ptr<gbt_regressor> latency_;
  std::unique_ptr<gbt_regressor> energy_;
};

}  // namespace mapcq::surrogate

#pragma once
// The deployed hardware-cost predictor: two boosted ensembles (latency,
// energy) that score featurized sublayer cells in place of the analytic
// models, so the GA evaluator can swap between measured-model and
// surrogate (paper Fig. 5, "HW Performance Characterization").

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>

#include "surrogate/dataset.h"
#include "surrogate/features.h"
#include "surrogate/gbt.h"

namespace mapcq::surrogate {

/// Fitted latency + energy predictor.
///
/// Ownership: owns both fitted ensembles and its row memo outright; the
/// training dataset is only borrowed during construction. A
/// `core::evaluator_options::predictor` pointing at an hw_predictor borrows
/// it — the owner (e.g. a serving session) must keep it alive for the
/// evaluator's lifetime. The memo lives and dies with the predictor: a
/// pooled predictor shares it with every session that adopted it, and a
/// new predictor (a refresh promotion, a snapshot restore) starts cold.
///
/// Thread-safety: logically const. Both ensembles are immutable once
/// constructed; the only mutable state is the bounded row memo behind
/// `predict`, whose sets are guarded by striped mutexes, so every member is
/// safe to call concurrently from any thread (the GA's parallel evaluation
/// workers all share one predictor). The memo never changes a result: it
/// serves a row only on an exact bitwise match, with the kernel's own bits.
///
/// Blocking: construction trains both GBT ensembles (seconds at paper-scale
/// benchmark sizes). `predict` takes one stripe mutex per row for a few
/// dozen nanoseconds and never waits on scoring; the first call allocates
/// the memo (~0.7 MB). Rows the memo misses are scored in one tree-major
/// pass per head over the heads' flat node tables (see gbt_regressor), a
/// few microseconds per row.
class hw_predictor {
 public:
  /// Rows the `predict` memo holds, fixed like
  /// `serving::predictor_pool::capacity`: 4 ways of 168 B entries in 1024
  /// sets, ~0.7 MB per predictor once it is first used.
  static constexpr std::size_t memo_capacity = 4096;

  /// Trains both ensembles on the benchmark dataset (blocking; see class
  /// comment). Throws std::invalid_argument on an empty or ragged dataset.
  hw_predictor(const dataset& train_set, const gbt_params& params = {});

  /// Adopts two already-fitted ensembles without training — the restore
  /// path of session snapshots (serving/session_snapshot.h). Predictions
  /// are bit-identical to the predictor the ensembles came from.
  hw_predictor(gbt_regressor latency, gbt_regressor energy);

  ~hw_predictor();

  /// Predicted latency (ms) and energy (mJ) of `latency_ms.size()`
  /// sublayer cells whose `featurize()` rows, `feature_count` values each,
  /// lie back to back in `rows`. Throws std::invalid_argument when the
  /// sizes disagree, before anything is scored.
  ///
  /// Each row is looked up by its exact bits in a fixed-size memo
  /// (`memo_capacity` rows, set-associative, oldest-first replacement
  /// within a set); the rows it misses are scored by both heads' kernels
  /// as one batch and stored. Results are bit-identical to
  /// `latency_model()`/`energy_model()` on the same rows, whatever the memo
  /// holds.
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
  struct row_memo;  // predictor.cpp

  std::unique_ptr<gbt_regressor> latency_;
  std::unique_ptr<gbt_regressor> energy_;
  mutable std::once_flag memo_once_;  ///< allocates memo_ on the first predict
  mutable std::unique_ptr<row_memo> memo_;
};

}  // namespace mapcq::surrogate

#pragma once
// Gradient-boosted tree ensemble for squared loss -- the XGBoost [20] stand-
// in used to predict per-sublayer latency and energy inside the GA loop
// (paper §V-E).

#include <cstdint>
#include <span>
#include <vector>

#include "surrogate/decision_tree.h"

namespace mapcq::surrogate {

struct fitted_ensemble;  // trainer.h; also the serialized form of a regressor

/// Boosting hyper-parameters.
struct gbt_params {
  std::size_t n_trees = 120;
  double learning_rate = 0.10;
  double subsample = 0.85;   ///< row subsample per tree, (0,1]
  tree_params tree;
  std::uint64_t seed = 7;
  /// Targets are strictly positive and span decades; fit in log space.
  bool log_target = true;

  [[nodiscard]] bool operator==(const gbt_params&) const = default;
};

/// A fitted ensemble.
///
/// Ownership: owns its trees; training inputs are borrowed only for the
/// constructor call.
///
/// Thread-safety: immutable after construction — all members are const and
/// callable concurrently.
///
/// Blocking: the constructor runs the whole boosting loop (the only
/// expensive operation); `predict` never blocks.
///
/// Both constructors compile the trees into one flat node table, 16 B per
/// node (~180 KB for a default-trained session head), kept beside the
/// `regression_tree` objects, which stay the serialized form. Every
/// `predict` runs one tree-major kernel over it: each tree walks every row
/// of the call before the next tree starts, so a tree stays in cache while
/// it is used. Per row the kernel performs the per-tree sum's IEEE
/// operations in the same order — `base`, then `+= learning_rate * leaf`
/// in tree order, then `exp` under log_target — so its results are
/// bit-identical to `base + sum(learning_rate * tree.predict(row))`,
/// whatever the batch size.
class gbt_regressor {
 public:
  /// Fits to rows `x` (equal widths) and targets `y`; throws
  /// std::invalid_argument on empty or mismatched input, or non-positive
  /// targets with log_target.
  gbt_regressor(std::span<const std::vector<double>> x, std::span<const double> y,
                const gbt_params& params = {});

  /// Rebuilds a fitted regressor from its serialized parts without
  /// retraining (see serving/session_snapshot.h): the trees/base/rmse of a
  /// prior fit plus the learning rate and target transform it was fitted
  /// under. Predictions are bit-identical to the original regressor's.
  gbt_regressor(fitted_ensemble parts, double learning_rate, bool log_target);

  /// Prediction for one feature row, at least `min_width()` wide. Throws
  /// std::invalid_argument on a narrower row.
  [[nodiscard]] double predict(std::span<const double> row) const;

  /// Predictions for rows of one width, at least `min_width()`. Throws
  /// std::invalid_argument on ragged or too narrow rows.
  [[nodiscard]] std::vector<double> predict(std::span<const std::vector<double>> rows) const;

  /// Predictions for `out.size()` rows of `width` values each, stored back
  /// to back in `rows` — the kernel the other overloads call. Throws
  /// std::invalid_argument when `width < min_width()` or when `rows` does
  /// not hold exactly `width * out.size()` values.
  void predict(std::span<const double> rows, std::size_t width, std::span<double> out) const;

  /// Narrowest row `predict` accepts: one past the highest feature any
  /// split reads.
  [[nodiscard]] std::size_t min_width() const noexcept { return width_; }

  /// Total split gain per feature, normalized to sum 1.
  [[nodiscard]] std::vector<double> feature_importance(std::size_t n_features) const;

  [[nodiscard]] std::size_t tree_count() const noexcept { return trees_.size(); }

  /// Training RMSE of the final model (in target space).
  [[nodiscard]] double train_rmse() const noexcept { return train_rmse_; }

  /// @name Serialized parts (the inverse of the restore constructor)
  /// @{
  [[nodiscard]] const std::vector<regression_tree>& trees() const noexcept { return trees_; }
  [[nodiscard]] double base() const noexcept { return base_; }
  [[nodiscard]] double learning_rate() const noexcept { return learning_rate_; }
  [[nodiscard]] bool log_target() const noexcept { return log_target_; }
  /// @}

 private:
  /// One compiled node. The two children of a node sit side by side, so a
  /// walk steps to `child + !(x <= split)`: left on `<=`, right otherwise,
  /// NaN included.
  struct flat_node {
    double split;           ///< threshold; the weight at a leaf
    std::uint32_t feature;  ///< feature index, or `leaf` at a leaf
    std::uint32_t child;    ///< left child; the right one is `child + 1`
  };
  static_assert(sizeof(flat_node) == 16);
  static constexpr std::uint32_t leaf = 0xFFFFFFFFu;

  /// Builds nodes_/roots_/width_ from trees_.
  void compile();

  std::vector<regression_tree> trees_;
  std::vector<flat_node> nodes_;     ///< every tree, breadth-first
  std::vector<std::uint32_t> roots_; ///< per tree, its root's index in nodes_
  std::size_t width_ = 0;
  double base_ = 0.0;
  double learning_rate_ = 0.1;
  bool log_target_ = true;
  double train_rmse_ = 0.0;
};

}  // namespace mapcq::surrogate

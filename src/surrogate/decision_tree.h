#pragma once
// Regression tree for gradient boosting: exact greedy splitting with the
// XGBoost gain criterion under squared loss (unit hessians):
//
//   gain = G_L^2/(n_L + lambda) + G_R^2/(n_R + lambda) - G^2/(n + lambda)
//
// where G is the sum of residuals in a node. Leaf weight = G/(n + lambda).
//
// Trees grow over a presorted column block, XGBoost's "column blocks"
// (Chen & Guestrin, KDD 2016): each feature column is sorted once per fit,
// by (value, row id), and shared by every tree of the fit. A tree filters
// those orders down to its subsample, and each node owns a [lo, hi)
// segment of them; a split scan walks its segment linearly, and a split
// stably partitions the node's segments so both children stay sorted. No
// node ever sorts. Ties within a feature are ordered by ascending row id,
// which fixes the order split sums accumulate in, so a fit is the same
// under every standard library.
//
// Memory: the block is a column-major copy of the rows plus one 4-byte row
// id per value, about 12 B x rows x features per fit. Each tree adds
// 4 B x features x subsample ids of segment scratch, plus O(rows) marks.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mapcq::surrogate {

/// Tree growth hyper-parameters.
struct tree_params {
  int max_depth = 6;
  std::size_t min_samples_leaf = 4;
  double lambda = 1.0;     ///< L2 regularization on leaf weights
  double min_gain = 1e-9;  ///< minimum split gain

  [[nodiscard]] bool operator==(const tree_params&) const = default;
};

/// Training rows stored column-major, with each feature's row ids sorted by
/// (value, row id). Built once per fit and shared by all of its trees.
/// Immutable after construction (thread-safe to share); owns copies of the
/// values, so the source rows may go away.
class presorted_columns {
 public:
  /// Copies and sorts `x`. Throws std::invalid_argument on no rows or on
  /// rows of unequal width.
  explicit presorted_columns(std::span<const std::vector<double>> x);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t features() const noexcept { return features_; }

  /// Feature `f` of every row, indexed by row id.
  [[nodiscard]] std::span<const double> column(std::size_t f) const noexcept {
    return {values_.data() + f * rows_, rows_};
  }

  /// All row ids, ordered by (column(f)[id], id).
  [[nodiscard]] std::span<const std::uint32_t> order(std::size_t f) const noexcept {
    return {order_.data() + f * rows_, rows_};
  }

 private:
  std::size_t rows_ = 0;
  std::size_t features_ = 0;
  std::vector<double> values_;        ///< features x rows
  std::vector<std::uint32_t> order_;  ///< features x rows
};

/// A fitted regression tree over fixed-width feature rows. Immutable after
/// construction (thread-safe to share); owns its node array; training
/// inputs are borrowed only inside the constructor, which does all the
/// work (exact greedy splits over every feature).
class regression_tree {
 public:
  /// One tree node, exposed as a plain value so fitted trees can be
  /// serialized and rebuilt (serving/session_snapshot.h). Internal nodes
  /// carry (feature, threshold, gain, children); leaves carry `value`.
  struct node {
    bool leaf = true;
    std::size_t feature = 0;
    double threshold = 0.0;
    double value = 0.0;  ///< leaf weight
    double gain = 0.0;   ///< split gain (internal nodes)
    std::size_t left = 0;
    std::size_t right = 0;
  };

  /// Fits to (block rows, residuals `y`) on the subsample `row_index`.
  /// Leaf sums accumulate in `row_index` order. Throws
  /// std::invalid_argument when `y` does not match the block, or when
  /// `row_index` is empty, names a row the block lacks, or repeats one.
  regression_tree(const presorted_columns& block, std::span<const double> y,
                  std::span<const std::size_t> row_index, const tree_params& params);

  /// Same, building a block from `x` for this one tree (a boosting loop
  /// builds one block for all of its trees instead). Also throws on empty
  /// or ragged `x`.
  regression_tree(std::span<const std::vector<double>> x, std::span<const double> y,
                  std::span<const std::size_t> row_index, const tree_params& params);

  /// Rebuilds a fitted tree from serialized parts — the restore half of
  /// `nodes()`. Throws std::invalid_argument on an empty node array or an
  /// internal node whose children are out of range, do not come after it,
  /// or already have a parent. Every tree that passes has the shape grow()
  /// emits (each child after its parent, one parent each), so every walk
  /// moves forward and ends: a corrupt snapshot fails here instead of
  /// crashing or hanging in predict().
  regression_tree(std::vector<node> nodes, int depth);

  /// Predicted value for one feature row.
  [[nodiscard]] double predict(std::span<const double> row) const;

  /// Number of internal + leaf nodes.
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Depth actually reached.
  [[nodiscard]] int depth() const noexcept { return depth_; }

  /// Accumulates per-feature total gain into `importance` (size = features).
  void add_feature_gain(std::vector<double>& importance) const;

  /// The fitted node array (root at index 0), for serialization.
  [[nodiscard]] const std::vector<node>& nodes() const noexcept { return nodes_; }

 private:
  struct growth;  // per-tree segment buffers (decision_tree.cpp)

  std::size_t grow(growth& g, std::size_t lo, std::size_t hi, int depth);

  std::vector<node> nodes_;
  int depth_ = 0;
};

}  // namespace mapcq::surrogate

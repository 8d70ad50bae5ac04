// Exact-greedy tree growth over a presorted column block: columns are
// sorted once per block by (value, row id); a tree only filters those
// orders to its subsample and partitions them stably at each split, so
// every node's segment of every feature stays in (value, row) order and a
// split scan is one linear pass. Leaf sums run in the caller's row order.

#include "surrogate/decision_tree.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace mapcq::surrogate {

namespace {

struct best_split {
  double gain = 0.0;
  std::size_t feature = 0;
  double threshold = 0.0;
};

double leaf_weight(double grad_sum, std::size_t n, double lambda) {
  return grad_sum / (static_cast<double>(n) + lambda);
}

double node_score(double grad_sum, std::size_t n, double lambda) {
  return grad_sum * grad_sum / (static_cast<double>(n) + lambda);
}

}  // namespace

presorted_columns::presorted_columns(std::span<const std::vector<double>> x)
    : rows_(x.size()) {
  if (x.empty()) throw std::invalid_argument("regression_tree: empty data");
  if (rows_ > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("regression_tree: too many rows");
  features_ = x.front().size();
  values_.resize(features_ * rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    if (x[r].size() != features_) throw std::invalid_argument("regression_tree: ragged rows");
    for (std::size_t f = 0; f < features_; ++f) values_[f * rows_ + r] = x[r][f];
  }
  // Ids start ascending, so a stable sort by value orders ties by row id.
  order_.resize(features_ * rows_);
  for (std::size_t f = 0; f < features_; ++f) {
    const auto first = order_.begin() + static_cast<std::ptrdiff_t>(f * rows_);
    const auto last = first + static_cast<std::ptrdiff_t>(rows_);
    std::iota(first, last, std::uint32_t{0});
    const double* col = values_.data() + f * rows_;
    std::stable_sort(first, last,
                     [col](std::uint32_t a, std::uint32_t b) { return col[a] < col[b]; });
  }
}

/// One tree's scratch. `rows` holds the subsample in the caller's order and
/// `sorted` holds it once per feature in (value, row) order; a node owns
/// the same [lo, hi) range of `rows` and of every feature's stretch of
/// `sorted`.
struct regression_tree::growth {
  growth(const presorted_columns& columns, std::span<const double> residuals,
         std::span<const std::size_t> row_index, const tree_params& tree);

  const presorted_columns& block;
  std::span<const double> y;
  const tree_params& params;
  std::size_t m;                      ///< subsample size: one feature's stretch
  std::vector<std::uint32_t> rows;    ///< m ids
  std::vector<std::uint32_t> sorted;  ///< features x m ids
  std::vector<std::uint8_t> left;     ///< per row id: goes left at the current split
  std::vector<std::uint32_t> spill;   ///< m ids, right side of a partition

  /// Stable in-place partition of `count` ids by `left`.
  void partition(std::uint32_t* ids, std::size_t count) {
    std::size_t n_left = 0;
    std::size_t n_right = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t id = ids[i];
      if (left[id])
        ids[n_left++] = id;
      else
        spill[n_right++] = id;
    }
    std::copy_n(spill.data(), n_right, ids + n_left);
  }
};

regression_tree::growth::growth(const presorted_columns& columns,
                               std::span<const double> residuals,
                               std::span<const std::size_t> row_index, const tree_params& tree)
    : block(columns), y(residuals), params(tree), m(row_index.size()) {
  // `left` first marks the subsample (catching bad ids) to filter the
  // presorted orders; splits overwrite each mark before reading it.
  left.assign(block.rows(), 0);
  rows.reserve(m);
  for (const std::size_t r : row_index) {
    if (r >= block.rows()) throw std::invalid_argument("regression_tree: row index out of range");
    if (left[r]) throw std::invalid_argument("regression_tree: duplicate row index");
    left[r] = 1;
    rows.push_back(static_cast<std::uint32_t>(r));
  }
  sorted.reserve(block.features() * m);
  for (std::size_t f = 0; f < block.features(); ++f)
    for (const std::uint32_t r : block.order(f))
      if (left[r]) sorted.push_back(r);
  spill.resize(m);
}

regression_tree::regression_tree(const presorted_columns& block, std::span<const double> y,
                                 std::span<const std::size_t> row_index,
                                 const tree_params& params) {
  if (block.rows() != y.size()) throw std::invalid_argument("regression_tree: size mismatch");
  if (row_index.empty()) throw std::invalid_argument("regression_tree: empty subsample");
  growth g{block, y, row_index, params};
  nodes_.reserve(64);
  grow(g, 0, g.m, 0);
}

regression_tree::regression_tree(std::span<const std::vector<double>> x,
                                 std::span<const double> y,
                                 std::span<const std::size_t> row_index,
                                 const tree_params& params)
    : regression_tree(presorted_columns{x}, y, row_index, params) {}

regression_tree::regression_tree(std::vector<node> nodes, int depth)
    : nodes_(std::move(nodes)), depth_(depth) {
  if (nodes_.empty()) throw std::invalid_argument("regression_tree: empty node array");
  std::vector<std::uint8_t> has_parent(nodes_.size(), 0);
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const node& n = nodes_[k];
    if (n.leaf) continue;
    if (n.left >= nodes_.size() || n.right >= nodes_.size())
      throw std::invalid_argument("regression_tree: child index out of range");
    if (n.left <= k || n.right <= k)
      throw std::invalid_argument("regression_tree: child index does not follow its parent");
    if (has_parent[n.left]++ != 0 || has_parent[n.right]++ != 0)
      throw std::invalid_argument("regression_tree: node has two parents");
  }
}

std::size_t regression_tree::grow(growth& g, std::size_t lo, std::size_t hi, int depth) {
  const tree_params& params = g.params;
  const std::size_t count = hi - lo;
  depth_ = std::max(depth_, depth);

  double grad_sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) grad_sum += g.y[g.rows[i]];

  const std::size_t me = nodes_.size();
  nodes_.push_back({});
  nodes_[me].value = leaf_weight(grad_sum, count, params.lambda);

  if (depth >= params.max_depth || count < 2 * params.min_samples_leaf) return me;

  const double parent_score = node_score(grad_sum, count, params.lambda);

  best_split best;
  // Exact greedy: each feature's segment is already in (value, row) order.
  for (std::size_t f = 0; f < g.block.features(); ++f) {
    const std::uint32_t* seg = g.sorted.data() + f * g.m + lo;
    const double* col = g.block.column(f).data();
    double left_sum = 0.0;
    double v = col[seg[0]];
    for (std::size_t i = 0; i + 1 < count; ++i) {
      left_sum += g.y[seg[i]];
      const double v_next = col[seg[i + 1]];
      const double v_here = v;
      v = v_next;
      if (v_here == v_next) continue;  // can't split between equal values
      const std::size_t n_left = i + 1;
      const std::size_t n_right = count - n_left;
      if (n_left < params.min_samples_leaf || n_right < params.min_samples_leaf) continue;
      const double gain = node_score(left_sum, n_left, params.lambda) +
                          node_score(grad_sum - left_sum, n_right, params.lambda) - parent_score;
      if (gain > best.gain) {
        best.gain = gain;
        best.feature = f;
        best.threshold = 0.5 * (v_here + v_next);
      }
    }
  }

  if (best.gain <= params.min_gain) return me;

  const double* split_col = g.block.column(best.feature).data();
  std::size_t n_left = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const bool goes_left = split_col[g.rows[i]] <= best.threshold;
    g.left[g.rows[i]] = goes_left ? 1 : 0;
    n_left += goes_left ? 1 : 0;
  }
  if (n_left == 0 || n_left == count) return me;  // numeric edge case

  g.partition(g.rows.data() + lo, count);
  if (depth + 1 < params.max_depth)  // children at max depth never scan
    for (std::size_t f = 0; f < g.block.features(); ++f)
      g.partition(g.sorted.data() + f * g.m + lo, count);

  nodes_[me].leaf = false;
  nodes_[me].feature = best.feature;
  nodes_[me].threshold = best.threshold;
  nodes_[me].gain = best.gain;
  const std::size_t left_id = grow(g, lo, lo + n_left, depth + 1);
  nodes_[me].left = left_id;
  const std::size_t right_id = grow(g, lo + n_left, hi, depth + 1);
  nodes_[me].right = right_id;
  return me;
}

double regression_tree::predict(std::span<const double> row) const {
  std::size_t cur = 0;
  while (!nodes_[cur].leaf) {
    if (nodes_[cur].feature >= row.size())
      throw std::invalid_argument("regression_tree::predict: row too narrow");
    cur = row[nodes_[cur].feature] <= nodes_[cur].threshold ? nodes_[cur].left
                                                            : nodes_[cur].right;
  }
  return nodes_[cur].value;
}

void regression_tree::add_feature_gain(std::vector<double>& importance) const {
  for (const auto& n : nodes_) {
    if (n.leaf) continue;
    if (n.feature < importance.size()) importance[n.feature] += n.gain;
  }
}

}  // namespace mapcq::surrogate

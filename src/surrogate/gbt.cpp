#include "surrogate/gbt.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "surrogate/trainer.h"

namespace mapcq::surrogate {

gbt_regressor::gbt_regressor(std::span<const std::vector<double>> x, std::span<const double> y,
                             const gbt_params& params)
    : learning_rate_(params.learning_rate), log_target_(params.log_target) {
  // The loop itself lives in gbt_trainer (shared with the online refresh
  // pipeline's candidate refits); this class wraps the fitted parts.
  fitted_ensemble fitted = gbt_trainer{params}.fit(x, y);
  trees_ = std::move(fitted.trees);
  base_ = fitted.base;
  train_rmse_ = fitted.train_rmse;
  compile();
}

gbt_regressor::gbt_regressor(fitted_ensemble parts, double learning_rate, bool log_target)
    : trees_(std::move(parts.trees)),
      base_(parts.base),
      learning_rate_(learning_rate),
      log_target_(log_target),
      train_rmse_(parts.train_rmse) {
  if (trees_.empty()) throw std::invalid_argument("gbt_regressor: empty restored ensemble");
  compile();
}

void gbt_regressor::compile() {
  std::size_t total = 0;
  for (const regression_tree& t : trees_) total += t.node_count();
  if (total >= leaf) throw std::invalid_argument("gbt_regressor: too many nodes");
  nodes_.reserve(total);
  roots_.reserve(trees_.size());
  std::vector<std::size_t> source;  // tree node index behind each slot of this tree
  for (const regression_tree& t : trees_) {
    const std::vector<regression_tree::node>& in = t.nodes();
    const auto root = static_cast<std::uint32_t>(nodes_.size());
    roots_.push_back(root);
    // Breadth-first, so each node's two children take adjacent slots. Each
    // node has one parent (grow() emits that shape and the restore
    // constructor enforces it), so this visits each node at most once.
    source.assign(1, 0);
    for (std::size_t k = 0; k < source.size(); ++k) {
      const regression_tree::node& n = in[source[k]];
      if (n.leaf) {
        nodes_.push_back({n.value, leaf, 0});
        continue;
      }
      if (n.feature >= leaf)
        throw std::invalid_argument("gbt_regressor: feature index out of range");
      nodes_.push_back({n.threshold, static_cast<std::uint32_t>(n.feature),
                        static_cast<std::uint32_t>(root + source.size())});
      source.push_back(n.left);
      source.push_back(n.right);
      width_ = std::max(width_, n.feature + 1);
    }
  }
}

void gbt_regressor::predict(std::span<const double> rows, std::size_t width,
                            std::span<double> out) const {
  if (width < width_) throw std::invalid_argument("gbt_regressor::predict: row too narrow");
  if (out.empty() ? !rows.empty()
                  : rows.size() % out.size() != 0 || rows.size() / out.size() != width)
    throw std::invalid_argument("gbt_regressor::predict: rows do not match width x count");
  std::fill(out.begin(), out.end(), base_);
  const flat_node* nodes = nodes_.data();
  for (const std::uint32_t root : roots_) {
    const double* row = rows.data();
    for (double& acc : out) {
      std::uint32_t i = root;
      while (nodes[i].feature != leaf)
        i = nodes[i].child + !(row[nodes[i].feature] <= nodes[i].split);
      acc += learning_rate_ * nodes[i].split;
      row += width;
    }
  }
  if (log_target_)
    for (double& acc : out) acc = std::exp(acc);
}

double gbt_regressor::predict(std::span<const double> row) const {
  double out = 0.0;
  predict(row, row.size(), {&out, 1});
  return out;
}

std::vector<double> gbt_regressor::predict(std::span<const std::vector<double>> rows) const {
  if (rows.empty()) return {};
  const std::size_t width = rows.front().size();
  std::vector<double> flat;
  flat.reserve(rows.size() * width);
  for (const std::vector<double>& r : rows) {
    if (r.size() != width) throw std::invalid_argument("gbt_regressor::predict: ragged rows");
    flat.insert(flat.end(), r.begin(), r.end());
  }
  std::vector<double> out(rows.size());
  predict(flat, width, out);
  return out;
}

std::vector<double> gbt_regressor::feature_importance(std::size_t n_features) const {
  std::vector<double> imp(n_features, 0.0);
  for (const auto& t : trees_) t.add_feature_gain(imp);
  double total = 0.0;
  for (const double g : imp) total += g;
  if (total > 0.0)
    for (double& g : imp) g /= total;
  return imp;
}

}  // namespace mapcq::surrogate

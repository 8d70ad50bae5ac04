#include "core/pareto.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <stdexcept>
#include <tuple>

namespace mapcq::core {

namespace {

// Recursive slicing: sort the surviving points by the last coordinate, then
// integrate slabs — between consecutive distinct last-coordinate values the
// dominated cross-section is the (d-1)-dimensional hypervolume of the
// points already passed, projected onto the remaining axes.
double hv_recursive(std::vector<std::vector<double>> pts, const std::vector<double>& ref) {
  const std::size_t d = ref.size();
  if (pts.empty()) return 0.0;
  if (d == 1) {
    double best = ref[0];
    for (const auto& p : pts) best = std::min(best, p[0]);
    return ref[0] - best;
  }
  std::sort(pts.begin(), pts.end(), [d](const std::vector<double>& a,
                                        const std::vector<double>& b) {
    return a[d - 1] < b[d - 1];
  });
  const std::vector<double> sub_ref(ref.begin(), ref.end() - 1);
  std::vector<std::vector<double>> passed;
  passed.reserve(pts.size());
  double total = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    passed.emplace_back(pts[i].begin(), pts[i].end() - 1);
    // Extend the slab to the next distinct last-coordinate (or the ref).
    if (i + 1 < pts.size() && pts[i + 1][d - 1] == pts[i][d - 1]) continue;
    const double hi = i + 1 < pts.size() ? pts[i + 1][d - 1] : ref[d - 1];
    if (hi > pts[i][d - 1]) total += hv_recursive(passed, sub_ref) * (hi - pts[i][d - 1]);
  }
  return total;
}

}  // namespace

bool dominates(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size() || a.empty())
    throw std::invalid_argument("dominates: size mismatch");
  bool strictly = false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k] > b[k]) return false;
    if (a[k] < b[k]) strictly = true;
  }
  return strictly;
}

std::vector<std::size_t> pareto_front(const std::vector<std::vector<double>>& points) {
  if (points.empty()) return {};
  const std::size_t width = points.front().size();
  if (width == 0 || width > 3)
    throw std::invalid_argument("pareto_front: rows must have 1 to 3 objectives");

  // Kung-Luccio-Preparata 3-D maxima: sweep rows in (x, y, z, index) order.
  // Every row that could dominate p precedes p's group of identical rows,
  // so p is dominated exactly when some earlier row has y <= p.y and
  // z <= p.z. `stair` holds the 2-D minima of the (y, z) seen so far, z
  // strictly decreasing in y: its last entry with y <= p.y has the least z.
  struct row {
    double x, y, z;
    std::size_t index;
  };
  std::vector<row> rows;
  rows.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::vector<double>& p = points[i];
    if (p.size() != width) throw std::invalid_argument("pareto_front: ragged rows");
    if (std::any_of(p.begin(), p.end(), [](double v) { return std::isnan(v); }))
      throw std::invalid_argument("pareto_front: NaN objective");
    rows.push_back({p[0], width > 1 ? p[1] : 0.0, width > 2 ? p[2] : 0.0, i});
  }
  std::sort(rows.begin(), rows.end(), [](const row& a, const row& b) {
    return std::tie(a.x, a.y, a.z, a.index) < std::tie(b.x, b.y, b.z, b.index);
  });

  std::vector<std::size_t> front;
  std::map<double, double> stair;
  for (std::size_t g = 0; g < rows.size();) {
    const row& p = rows[g];
    std::size_t end = g + 1;
    while (end < rows.size() && rows[end].x == p.x && rows[end].y == p.y && rows[end].z == p.z)
      ++end;
    auto above = stair.upper_bound(p.y);
    if (above == stair.begin() || std::prev(above)->second > p.z) {
      for (std::size_t k = g; k < end; ++k) front.push_back(rows[k].index);
      auto last = above;
      while (last != stair.end() && last->second >= p.z) ++last;
      stair.erase(stair.lower_bound(p.y), last);
      stair.emplace(p.y, p.z);
    }
    g = end;
  }
  std::sort(front.begin(), front.end());
  return front;
}

double hypervolume(const std::vector<std::vector<double>>& points,
                   const std::vector<double>& ref) {
  if (ref.empty()) throw std::invalid_argument("hypervolume: empty reference point");
  std::vector<std::vector<double>> contributing;
  contributing.reserve(points.size());
  for (const auto& p : points) {
    if (p.size() != ref.size()) throw std::invalid_argument("hypervolume: size mismatch");
    bool inside = true;
    for (std::size_t k = 0; k < ref.size() && inside; ++k) inside = p[k] < ref[k];
    if (inside) contributing.push_back(p);
  }
  return hv_recursive(std::move(contributing), ref);
}

}  // namespace mapcq::core

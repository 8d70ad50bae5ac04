#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t r = std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, v.size());
  return v[r - 1];
}

tail_stat tail(std::vector<double> v, std::size_t min_beyond) {
  tail_stat t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  // Below 2 * min_beyond samples that percentile would sit under the
  // median, which is no tail: report the maximum instead.
  if (v.size() < 2 * min_beyond) {
    t.value = v.back();
    t.percentile = 100.0;
    return t;
  }
  const std::size_t rank = v.size() - min_beyond;  // 1-based
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(v.size());
  t.beyond = min_beyond;
  return t;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

long tracer::open(std::string name, std::size_t request, long parent) {
  spans_.push_back(span{std::move(name), request, parent, steady::now(), {}});
  return static_cast<long>(spans_.size()) - 1;
}

void tracer::close(long id) { spans_.at(static_cast<std::size_t>(id)).end = steady::now(); }

double tracer::total_seconds(std::string_view name) const {
  double s = 0.0;
  for (const span& sp : spans_)
    if (sp.name == name) s += sp.seconds();
  return s;
}

std::size_t tracer::count(std::string_view name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(), [&](const span& sp) { return sp.name == name; }));
}

double tracer::children_seconds(std::string_view name) const {
  double s = 0.0;
  for (const span& sp : spans_)
    if (sp.parent >= 0 && spans_[static_cast<std::size_t>(sp.parent)].name == name)
      s += sp.seconds();
  return s;
}

bool tracer::write_jsonl(const std::string& path, const std::string& header) const {
  std::ofstream os{path};
  if (!os) return false;
  os << header << '\n';
  if (!spans_.empty()) {
    const steady::time_point t0 = spans_.front().start;
    const auto us = [&](steady::time_point t) {
      return std::chrono::duration<double, std::micro>(t - t0).count();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const span& sp = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf, "\"start_us\": %.3f, \"end_us\": %.3f}", us(sp.start),
                    us(sp.end));
      os << "{\"id\": " << i << ", \"parent\": " << sp.parent << ", \"request\": " << sp.request
         << ", \"name\": \"" << sp.name << "\", " << buf << '\n';
    }
  }
  return static_cast<bool>(os);
}

double unit_hypervolume3(std::vector<std::array<double, 3>> points) {
  std::erase_if(points, [](const std::array<double, 3>& p) {
    return !(p[0] < 1.0 && p[1] < 1.0 && p[2] < 1.0);
  });
  std::sort(points.begin(), points.end(),
            [](const auto& a, const auto& b) { return a[2] < b[2]; });
  // x -> y, x ascending and y strictly descending: the 2-D non-dominated
  // set of every point whose third coordinate is at most the current slab.
  std::map<double, double> stair;
  double volume = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double x = points[i][0];
    const double y = points[i][1];
    auto it = stair.upper_bound(x);
    const bool dominated = it != stair.begin() && std::prev(it)->second <= y;
    if (!dominated) {
      it = stair.lower_bound(x);
      while (it != stair.end() && it->second >= y) it = stair.erase(it);
      stair[x] = y;
    }
    double area = 0.0;
    for (auto s = stair.begin(); s != stair.end(); ++s) {
      const auto n = std::next(s);
      area += ((n == stair.end() ? 1.0 : n->first) - s->first) * (1.0 - s->second);
    }
    const double z_next = i + 1 < points.size() ? points[i + 1][2] : 1.0;
    volume += area * (z_next - points[i][2]);
  }
  return volume;
}

}  // namespace perfbench

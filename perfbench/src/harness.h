#pragma once
// Measurement pieces of the repository benchmark that know nothing about
// the mapping service: summary statistics and the tail-percentile rule,
// metric-name validation, an in-memory span recorder, a normalized 3-D
// hypervolume and the open-loop load generator.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

using steady = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(steady::time_point a, steady::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- statistics --------------------------------------------------------------

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile `p` in [0, 100] of `v`; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// A latency tail: the highest nearest-rank percentile that leaves at least
/// `min_beyond` samples strictly beyond it. With n samples that is the
/// (n - min_beyond)-th smallest value at percentile 100 * (n - min_beyond) / n.
/// With fewer than 2 * min_beyond samples that percentile would lie below
/// the median; the tail is then the maximum, reported at percentile 100.
struct tail_stat {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;  ///< samples strictly beyond `value`'s rank
};
[[nodiscard]] tail_stat tail(std::vector<double> v, std::size_t min_beyond = 10);

/// True when `name` is a non-empty run of [A-Za-z0-9_.-], at most 64 long,
/// starting with a letter or digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// 64-bit FNV-1a of `text` (report digests).
[[nodiscard]] std::uint64_t fnv1a(std::string_view text);

// --- tracing -----------------------------------------------------------------

/// One timed call: which layer (`name`), which request it served, and the
/// span that caused it (`parent`, -1 for a root).
struct span {
  std::string name;
  std::size_t request = 0;
  long parent = -1;
  steady::time_point start;
  steady::time_point end;

  [[nodiscard]] double seconds() const { return seconds_between(start, end); }
};

/// Spans kept in memory and written out once at the end of the run.
/// Single-threaded: the benchmark's traced pass runs on one thread.
class tracer {
 public:
  /// Opens a span and returns its id.
  long open(std::string name, std::size_t request, long parent = -1);
  void close(long id);

  /// Times `f()` as one span.
  template <typename F>
  decltype(auto) time(std::string name, std::size_t request, long parent, F&& f) {
    const long id = open(std::move(name), request, parent);
    struct closer {
      tracer& t;
      long id;
      ~closer() { t.close(id); }
    } guard{*this, id};
    return f();
  }

  [[nodiscard]] const std::vector<span>& spans() const noexcept { return spans_; }
  /// Summed duration and count of every span called `name`.
  [[nodiscard]] double total_seconds(std::string_view name) const;
  [[nodiscard]] std::size_t count(std::string_view name) const;
  /// Summed duration of the direct children of every span called `name`.
  [[nodiscard]] double children_seconds(std::string_view name) const;

  /// One JSON object per line: the `header` line verbatim, then the spans
  /// with start/end in microseconds since the first span opened. Returns
  /// false if the file could not be written.
  bool write_jsonl(const std::string& path, const std::string& header) const;

 private:
  std::vector<span> spans_;
};

// --- search quality ------------------------------------------------------------

/// Hypervolume of minimization points in the unit cube against the
/// reference point (1, 1, 1); points not strictly inside contribute
/// nothing. Exact: a sweep over the third axis that keeps the 2-D
/// non-dominated staircase of the points already passed. O(n^2).
[[nodiscard]] double unit_hypervolume3(std::vector<std::array<double, 3>> points);

// --- open-loop load generator ----------------------------------------------

/// Times of one open-loop arrival, in seconds since the run started.
struct arrival_times {
  double due = 0.0;     ///< when the schedule says it is sent
  double submit = 0.0;  ///< when the load thread actually sent it
  double done = 0.0;    ///< when the load thread saw its result ready

  /// Time the request took, counted from when it was due: a stall that
  /// delays later submits shows up in their sojourn, not only in lateness.
  [[nodiscard]] double sojourn() const { return done - due; }
  [[nodiscard]] double late() const { return submit - due; }
};

/// Sends arrival i at `due_s[i]` (ascending) through `submit(i)`, which
/// returns a std::shared_future, and polls the outstanding ones on the
/// calling thread. `done(i, future)` runs once per arrival when its result
/// is ready, after which the load thread drops its copy of the future. `sample()`
/// runs every `sample_every_s` while work is outstanding. Returns the
/// per-arrival times, index-aligned with `due_s`.
template <typename Submit, typename Done, typename Sample>
std::vector<arrival_times> run_open_loop(const std::vector<double>& due_s, Submit&& submit,
                                         Done&& done, Sample&& sample,
                                         double sample_every_s = 0.005) {
  using future_t = decltype(submit(std::size_t{0}));
  constexpr auto poll = std::chrono::microseconds(100);
  const steady::time_point start = steady::now();
  const auto now_s = [&] { return seconds_between(start, steady::now()); };
  std::vector<arrival_times> times(due_s.size());
  std::vector<future_t> futures(due_s.size());
  std::vector<std::size_t> outstanding;
  std::vector<std::size_t> ready;
  std::size_t next = 0;
  double next_sample = 0.0;
  while (next < due_s.size() || !outstanding.empty()) {
    while (next < due_s.size() && due_s[next] <= now_s()) {
      times[next].due = due_s[next];
      times[next].submit = now_s();
      futures[next] = submit(next);
      outstanding.push_back(next++);
    }
    // Stamp every ready result with one sweep time before running any
    // `done`, so slow bookkeeping never inflates another request's sojourn.
    const double seen = now_s();
    ready.clear();
    for (std::size_t k = 0; k < outstanding.size();) {
      const std::size_t i = outstanding[k];
      if (futures[i].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      times[i].done = seen;
      ready.push_back(i);
      outstanding[k] = outstanding.back();
      outstanding.pop_back();
    }
    for (const std::size_t i : ready) {
      done(i, futures[i]);
      futures[i] = future_t{};
    }
    if (now_s() >= next_sample) {
      sample();
      next_sample = now_s() + sample_every_s;
    }
    auto wait = poll;
    if (next < due_s.size()) {
      const auto until_due = std::chrono::duration<double>(due_s[next] - now_s());
      if (until_due < wait) wait = std::chrono::duration_cast<std::chrono::microseconds>(until_due);
    }
    if (wait.count() > 0) std::this_thread::sleep_for(wait);
  }
  return times;
}

}  // namespace perfbench

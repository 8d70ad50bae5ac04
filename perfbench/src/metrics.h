#pragma once
// Every metric the benchmark reports, with its unit. An untraced run emits
// the end-to-end list, a traced run the per-layer list, both in this order;
// BENCHMARK.json at the repository root declares the same names and units
// (perfbench/run.py refuses a run whose output disagrees with it).

#include <string_view>

namespace perfbench {

struct metric_def {
  std::string_view name;
  std::string_view unit;
};

inline constexpr metric_def kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"request_p50_s", "s"},
    {"request_tail_s", "s"},
    {"requests_per_s", "1/s"},
    {"within_limit_share", "share"},
    {"success_share", "share"},
    {"peak_rss_mb", "MB"},
    {"front_hypervolume", "share"},
    {"energy_gain_vs_gpu", "x"},
    {"latency_gain_vs_dla", "x"},
};

inline constexpr metric_def kPerLayerMetrics[] = {
    {"core.evaluator.scalar_us", "us"},
    {"core.evaluator.batch_us", "us"},
    {"core.engine.miss_us", "us"},
    {"core.engine.misses", "count"},
    {"core.evaluator.configs_per_s", "1/s"},
    {"core.engine.hit_us", "us"},
    {"core.engine.hits", "count"},
    {"core.engine.dedup", "count"},
    {"core.engine.inflight", "count"},
    {"core.engine.hit_rate", "share"},
    {"core.evolve.warm_s", "s"},
    {"core.pareto_front_s", "s"},
    {"surrogate.generate_benchmark_s", "s"},
    {"surrogate.fit_s", "s"},
    {"surrogate.predict_ns_per_row", "ns"},
    {"core.evaluator.surrogate_us", "us"},
    {"surrogate.fidelity_r2", "r2"},
    {"serving.map_s", "s"},
    {"serving.session_for_s", "s"},
    {"core.evolve_s", "s"},
    {"core.validate_s", "s"},
    {"serving.map.unaccounted_s", "s"},
    {"serving.submit_us", "us"},
    {"serving.scheduler.coalesced_share", "share"},
    {"serving.scheduler.queued_mean", "count"},
    {"serving.scheduler.queued_max", "count"},
    {"serving.scheduler.rejected", "count"},
    {"serving.scheduler.expired", "count"},
    {"serving.scheduler.failed", "count"},
    {"core.engine.cache_bytes", "bytes"},
    {"driver.late_p99_s", "s"},
    {"trace.overhead_share", "share"},
};

/// The catalog entry called `name`, or null.
inline const metric_def* find_metric(std::string_view name) {
  for (const metric_def& d : kEndToEndMetrics)
    if (d.name == name) return &d;
  for (const metric_def& d : kPerLayerMetrics)
    if (d.name == name) return &d;
  return nullptr;
}

}  // namespace perfbench

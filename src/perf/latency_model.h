#pragma once
// Per-sublayer latency model: a roofline over the CU's sustained compute
// rate and its memory bandwidth, plus a fixed kernel-launch overhead. This
// provides the tau^j_i terms of the paper's eq. 8 and stands in for the
// TensorRT layer-wise measurements of §V-E.

#include "perf/work.h"
#include "soc/compute_unit.h"

namespace mapcq::perf {

/// Options shared by the latency and energy models.
struct model_options {
  /// Derate memory bandwidth when `concurrent_stages` CUs contend for the
  /// shared DRAM: bw_eff = bw / (1 + contention * (stages - 1)).
  double bandwidth_contention = 0.10;
  bool enable_contention = true;

  [[nodiscard]] bool operator==(const model_options&) const = default;
};

/// Latency (ms) of executing `cost` on `cu` at DVFS `level` with
/// `concurrent_stages` total active stages on the MPSoC. Empty sublayers
/// cost nothing.
[[nodiscard]] double sublayer_latency_ms(const sublayer_cost& cost, const soc::compute_unit& cu,
                                         std::size_t level, std::size_t concurrent_stages = 1,
                                         const model_options& opt = {});

}  // namespace mapcq::perf

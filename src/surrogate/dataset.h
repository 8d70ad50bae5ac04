#pragma once
// Benchmark dataset of layer-wise hardware measurements. The paper builds
// this with TensorRT on the Xavier; here the calibrated analytic model plays
// the measurement rig, with multiplicative Gaussian noise standing in for
// run-to-run measurement jitter (DESIGN.md §2).

#include <cstdint>
#include <vector>

#include "nn/graph.h"
#include "perf/latency_model.h"
#include "soc/platform.h"
#include "surrogate/features.h"

namespace mapcq::surrogate {

/// Supervised regression dataset (row-major features). Plain value type:
/// owns its rows, copyable, no thread-affinity — share freely once built.
struct dataset {
  std::vector<std::vector<double>> x;
  std::vector<double> latency_ms;  ///< measured tau
  std::vector<double> energy_mj;   ///< measured e

  [[nodiscard]] std::size_t size() const noexcept { return x.size(); }

  /// Appends one labeled row.
  void add_row(std::vector<double> row, double lat_ms, double en_mj);

  /// Appends every row of `other` (copied). The refresh pipeline uses this
  /// to fold logged ground-truth traffic into the original training set.
  void append(const dataset& other);
};

/// Deterministic train/test partition of a dataset.
struct dataset_split {
  dataset train;
  dataset test;
};

/// Shuffles with `seed` and splits at `train_fraction` in (0,1). Pure and
/// deterministic (same seed, same split); copies rows into the result.
[[nodiscard]] dataset_split split(const dataset& ds, double train_fraction, std::uint64_t seed);

/// Generation options.
struct benchmark_options {
  std::size_t samples = 5000;        ///< rows to generate
  double noise_stddev = 0.03;        ///< multiplicative measurement noise
  std::uint64_t seed = 2023;         ///< RNG seed
  perf::model_options model;         ///< underlying analytic model options

  [[nodiscard]] bool operator==(const benchmark_options&) const = default;
};

/// Samples random (layer slice, CU, DVFS, concurrency) combinations from the
/// networks' layers and labels them with the analytic models + noise.
/// Deterministic per (nets, plat, opt). Borrows the networks/platform for
/// the call only. Blocking: runs `opt.samples` analytic evaluations on the
/// calling thread. Cheap next to the GBT fit that consumes it (a few ms
/// against hundreds of ms for the default 5000 rows); serving sessions
/// still do both once and reuse the predictor.
[[nodiscard]] dataset generate_benchmark(const std::vector<const nn::network*>& nets,
                                         const soc::platform& plat,
                                         const benchmark_options& opt = {});

}  // namespace mapcq::surrogate

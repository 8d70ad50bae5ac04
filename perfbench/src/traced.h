#pragma once
// The traced pass: mapping_service::map() re-executed as the public calls
// it is built from — session_for, the surrogate's generate_benchmark /
// split / hw_predictor, core::evolve and the analytic evaluate_batch of the
// picks — each timed as a span from the benchmark's own code, so no source
// outside the benchmark needs instrumenting. Its reports must digest
// identically to the untraced map() reports of the same requests.

#include <cstddef>
#include <cstdint>

#include "harness.h"
#include "serving/mapping_service.h"

namespace perfbench {

/// Digest of the fields a report's shippable summary (mapping_report::
/// summary) carries: names, pick indices, the scheduler note and every
/// front entry's configuration and scalars. Refresh and scenario notes are
/// left out; no workload here produces them. Without the scheduler note
/// (the default) a submit() report digests like the map() report of the
/// same request.
[[nodiscard]] std::uint64_t report_digest(const mapcq::serving::mapping_report& rep,
                                          bool with_scheduler = false);

/// Per-configuration costs of single layers, measured on one traced
/// request's own archive.
struct layer_probe {
  double scalar_us = 0.0;     ///< evaluator::evaluate
  double batch_us = 0.0;      ///< evaluator::evaluate_batch (SoA path)
  double miss_us = 0.0;       ///< evaluation_engine batch, every config a miss
  double hit_us = 0.0;        ///< the same batch again, every config a hit
  double surrogate_us = 0.0;  ///< surrogate-backed evaluator::evaluate (0 if analytic)
  double predict_ns_per_row = 0.0;  ///< gbt_regressor::predict on the held-out split
  double fidelity_r2 = 0.0;         ///< mean held-out R² of the two ensembles
};

struct traced_outcome {
  std::uint64_t digest = 0;
  /// The warm re-run of the search ran no evaluator and found the same front.
  bool warm_rerun_ok = true;
};

/// Serves `req` the way map() does, recording under request id `request`:
/// a `serving.map` root with children `serving.session_for`,
/// `surrogate.{generate_benchmark,split,fit,fidelity}` (surrogate requests),
/// `core.evolve` and `core.validate`; then, outside the root,
/// `core.evolve.warm` (the search again on the now-warm engine) and
/// `core.pareto_front` (the front extraction over the archive alone).
/// `engine` must be the service's engine options. When `probe` is non-null
/// it also measures the per-configuration layer costs.
[[nodiscard]] traced_outcome traced_map(mapcq::serving::mapping_service& svc,
                                        const mapcq::serving::mapping_request& req,
                                        const mapcq::core::engine_options& engine, tracer& tr,
                                        std::size_t request, layer_probe* probe);

}  // namespace perfbench

#pragma once
// Structured request/report pair of the serving front-end. A
// `mapping_request` names a *registered* network/platform and carries the
// search knobs; the `mapping_report` returns the analytically validated
// Pareto front, the Table-II picks, the per-phase evaluation-cache deltas
// and the fidelity of the session surrogate that served the search.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/evaluation_engine.h"
#include "core/evaluator.h"
#include "core/evolutionary.h"
#include "core/serialization.h"
#include "surrogate/dataset.h"
#include "surrogate/gbt.h"
#include "surrogate/predictor.h"
#include "surrogate/refresh.h"

namespace mapcq::serving {

/// Which pick `mapping_report::best()` returns.
enum class objective_orientation {
  balanced,  ///< minimum eq. 16 objective on the validated front
  latency,   ///< the Ours-L pick (Table II latency-oriented model)
  energy,    ///< the Ours-E pick (Table II energy-oriented model)
};

/// One mapping job against a `mapping_service`.
struct mapping_request {
  std::string network;   ///< name passed to `mapping_service::register_network`
  std::string platform;  ///< registered platform name; empty = service default

  /// Search budget/operators; per-request, never keyed. `ga.island`
  /// selects the island-model search (`{islands, migration_interval,
  /// migrants}`): the population is sharded across K islands that evolve
  /// concurrently against the session engine — K = 1 is the classic GA,
  /// bit-identical at equal seeds. Note `ga.threads` does not apply here:
  /// evaluation parallelism belongs to the session engine, fixed by
  /// `service_options::engine.threads` at service construction (the knob
  /// only drives the engine-less evolve() overload).
  core::ga_options ga;
  /// Evaluation knobs; together with (network, platform, ranking_seed,
  /// ratio_levels) these key the session. `eval.predictor` must stay null --
  /// sessions own their predictors -- and `eval.limits` carries the search
  /// constraints (paper eq. 15).
  core::evaluator_options eval;
  int ratio_levels = 8;  ///< paper §V-A: 8 channel partitioning ratios

  bool use_surrogate = true;  ///< search on the session GBT (paper flow)
  /// Surrogate training knobs. The first surrogate request of a session
  /// trains its predictor with these; later requests must match them.
  surrogate::benchmark_options bench;
  surrogate::gbt_params gbt;

  objective_orientation orientation = objective_orientation::balanced;
  /// Accuracy slack (points below the best validated accuracy) tolerated
  /// when picking the energy-/latency-oriented models.
  double ours_e_accuracy_slack = 0.75;
  double ours_l_accuracy_slack = 2.50;

  std::uint64_t ranking_seed = 0xC0FFEE;  ///< channel-ranking seed (keys the session)

  // --- scheduling-only knobs (submit() path; never keyed, never part of the
  // --- coalescing fingerprint, ignored by a direct map() call) -------------

  /// Dispatch lane: the scheduler always serves the highest non-empty
  /// priority before lower ones (fairness applies within a priority).
  int priority = 0;
  /// Time the request may spend *queued* before it is dropped with
  /// `admission_error::reason::deadline_expired`, measured from submit();
  /// zero = no deadline. Once dispatched a request always runs to
  /// completion. Coalescing keeps the shared run alive until the *latest*
  /// deadline of any joined request.
  std::chrono::milliseconds deadline{0};
};

/// Canonical identity of a request for service-level coalescing: a string
/// over every `mapping_request` field that can change the produced
/// `mapping_report` (network/platform names, GA knobs incl. islands and
/// seed, evaluator options, surrogate training knobs, orientation, slacks,
/// ranking seed). Scheduling-only knobs (`priority`, `deadline`) and
/// `ga.threads` (documented not to affect results) are excluded. Two
/// submits with equal fingerprints while one is queued or in flight share
/// one execution and one report.
///
/// Maintenance invariant: every new semantic `mapping_request` field must
/// be added here, or identical-looking requests with different behavior
/// would coalesce.
[[nodiscard]] std::string request_fingerprint(const mapping_request& req);

/// Snapshot of the service request scheduler's counters and gauges (see
/// serving::request_scheduler). Monotonic counters reconcile as
///   submitted == admitted + coalesced + rejected
///   admitted  == completed + failed + expired + queued + inflight
/// where `queued`/`inflight` are point-in-time gauges (both zero once the
/// scheduler is drained).
struct scheduler_stats {
  /// submit() calls whose admission has been decided. A caller currently
  /// blocked by backpressure is not counted yet — which is what keeps the
  /// reconciliation exact on *live* snapshots, not just after a drain.
  std::size_t submitted = 0;
  std::size_t admitted = 0;   ///< entered the queue as distinct work items
  std::size_t coalesced = 0;  ///< joined an identical queued/in-flight item
  std::size_t rejected = 0;   ///< turned away at admission (reject policy)
  std::size_t expired = 0;    ///< dropped from the queue past their deadline
  std::size_t completed = 0;  ///< executions that returned a report
  std::size_t failed = 0;     ///< executions that threw
  /// Always 0: the scheduler runs one request per pick. Kept, and still
  /// written in the report's 9-field `scheduler` row, only because the
  /// frozen repository benchmark (perfbench/) reads them; they go in the
  /// next benchmark change.
  std::size_t fused = 0;
  std::size_t fused_batches = 0;
  std::size_t queued = 0;    ///< gauge: items waiting for a worker
  std::size_t inflight = 0;  ///< gauge: items currently executing
  /// Gauge: executing items per session lane (key = the fairness lane,
  /// i.e. the session key the request resolves to).
  std::unordered_map<std::string, std::size_t> inflight_per_session;
};

/// What a request returns.
struct mapping_report {
  std::string network;
  std::string platform;
  std::string session_key;  ///< registry key of the session that served this

  /// Raw search output (archive, history, cache counters, island count).
  core::ga_result search;
  /// The search's Pareto picks re-evaluated on the analytic model
  /// ("hardware"), index-aligned with `search.pareto`.
  std::vector<core::evaluation> front;
  std::size_t ours_latency_index = 0;
  std::size_t ours_energy_index = 0;
  objective_orientation orientation = objective_orientation::balanced;

  /// Engine deltas per phase. `search_cache` equals `search.cache`; a warm
  /// session serves repeats from cache, so deltas shrink run over run.
  /// Validation runs on the session's analytic engine, so after an analytic
  /// search (`use_surrogate = false`) it is pure cross-phase hits.
  core::engine_stats search_cache;
  core::engine_stats validation_cache;

  /// Held-out fidelity of the session surrogate (set when use_surrogate).
  std::optional<surrogate::hw_predictor::fidelity> surrogate_fidelity;
  bool trained_surrogate = false;  ///< true when this request trained the session GBT

  /// Refresh-pipeline snapshot of the serving session, present only when
  /// the session runs with `service_options::refresh.enabled` and its
  /// surrogate has been trained (the pipeline exists from then on).
  std::optional<surrogate::refresh_stats> refresh;

  /// Scheduler snapshot taken when this report was produced, set on the
  /// submit() path only (a direct map() bypasses the scheduler and leaves
  /// it empty). Coalesced requests share their representative's snapshot.
  std::optional<scheduler_stats> scheduler;

  /// Co-location scenario the mapping was scored under, set only when the
  /// request carried a non-idle contention context (so idle reports — and
  /// their serialized text — stay byte-identical to pre-co-location ones).
  std::optional<core::scenario_note> scenario;

  /// The effective configuration that produced this report: the serving
  /// options of the service (post-normalization) plus the request's GA
  /// knobs, as one compact serving::service_config JSON document. Two
  /// reports from equally-configured deployments carry byte-identical
  /// stamps (the config bit-identity tests gate on this).
  std::string effective_config;

  [[nodiscard]] const core::evaluation& ours_latency() const {
    return front.at(ours_latency_index);
  }
  [[nodiscard]] const core::evaluation& ours_energy() const { return front.at(ours_energy_index); }
  /// The single pick selected by `orientation`.
  [[nodiscard]] const core::evaluation& best() const;

  /// Shippable summary (see core::serialization): the validated front with
  /// its headline scalars, entries labeled `front-<i>` plus `+ours-L` /
  /// `+ours-E` tags on the picks.
  [[nodiscard]] core::report_summary summary() const;
};

}  // namespace mapcq::serving

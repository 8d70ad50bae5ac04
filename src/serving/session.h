#pragma once
// One immutable serving session: the binding of (network, platform,
// evaluator options, ranking seed) to long-lived evaluator/engine state, so
// the memo cache persists across search, validation and repeated requests.
//
// A session owns a *paired* engine set over one shared cache policy:
//   * the analytic engine serves validation and analytic searches, which is
//     exactly what turns search -> validation into cache hits when the
//     search already ran on the analytic model;
//   * the surrogate engine (built on first use) serves surrogate searches,
//     so repeated requests skip both the GBT fit and re-runs.
// Sessions are immutable once created: the key never changes and the first
// surrogate request locks the training knobs in.
//
// Ownership: a session copies nothing per-request — it shares the
// registered network/platform snapshots with the service (shared_ptr) and
// owns its evaluators and engines outright. Its initial predictor is
// shared, not owned: the service's predictor_pool fits it once per
// (network, platform, bench, gbt) and every session with that key adopts
// the same immutable predictor. Refresh promotions replace the session's
// predictor only; the surrogate evaluator owns the predictor it was built
// on, and the engine owns each evaluator until the last batch planned
// against it is collected. Sessions are handed out as shared_ptr, so one evicted
// from the service registry (LRU cap or idle TTL) keeps serving whoever
// still holds it.
//
// Thread-safety: every member is safe to call concurrently. The engines do
// their own striped locking (and cross-thread in-flight dedup, so racing
// requests never evaluate a candidate twice); the lazy surrogate state is
// guarded by `surrogate_mu_` — concurrent first-callers block until the one
// pool acquire (a fit, or a wait on another session's fit) returns.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/evaluation_engine.h"
#include "core/evaluator.h"
#include "core/search_space.h"
#include "nn/graph.h"
#include "serving/predictor_pool.h"
#include "serving/session_snapshot.h"
#include "soc/platform.h"
#include "surrogate/dataset.h"
#include "surrogate/gbt.h"
#include "surrogate/predictor.h"
#include "surrogate/refresh.h"

namespace mapcq::serving {

class mapping_session {
 public:
  /// `eval_opt.predictor` is ignored (forced null); the session installs the
  /// predictor it takes from `pool` into the surrogate evaluator.
  /// `refresh_opt.enabled` turns on the online surrogate-refresh pipeline
  /// for this session (see surrogate::refresh_pipeline); disabled, the
  /// session behaves exactly as before the pipeline existed. Throws
  /// std::invalid_argument on a null pool.
  mapping_session(std::string key, std::shared_ptr<const nn::network> net,
                  std::shared_ptr<const soc::platform> plat, core::evaluator_options eval_opt,
                  int ratio_levels, std::uint64_t ranking_seed, core::engine_options engine_opt,
                  std::shared_ptr<predictor_pool> pool,
                  surrogate::refresh_options refresh_opt = {});

  /// Quiesces the ground-truth tap and drains any in-flight refit before
  /// the engines and predictors tear down.
  ~mapping_session();

  mapping_session(const mapping_session&) = delete;
  mapping_session& operator=(const mapping_session&) = delete;

  [[nodiscard]] const std::string& key() const noexcept { return key_; }
  [[nodiscard]] const nn::network& net() const noexcept { return *net_; }
  [[nodiscard]] const soc::platform& plat() const noexcept { return *plat_; }
  [[nodiscard]] const core::search_space& space() const noexcept { return space_; }
  [[nodiscard]] std::uint64_t ranking_seed() const noexcept { return ranking_seed_; }

  /// The analytic ("hardware") engine. Never blocks; the reference stays
  /// valid for the session's lifetime.
  [[nodiscard]] core::evaluation_engine& analytic_engine() noexcept { return analytic_engine_; }

  /// The surrogate engine. The first caller takes the predictor for
  /// (network, platform, `bench`, `gbt`) from the pool, blocking through
  /// the fit when no session has run it yet (thread-safe; concurrent
  /// first-callers block on the one acquire). A fit that throws leaves the
  /// session without a surrogate, and the next call tries again. Later
  /// callers must pass the same knobs or get std::invalid_argument —
  /// sessions are immutable, fork one via the evaluator options or ranking
  /// seed instead. `trained_now` (optional out) reports whether this call
  /// ran the fit: false when the session already had its predictor or
  /// adopted one the pool had fitted for another session.
  [[nodiscard]] core::evaluation_engine& surrogate_engine(
      const surrogate::benchmark_options& bench, const surrogate::gbt_params& gbt,
      bool* trained_now = nullptr);

  /// Whether the session holds a predictor (fitted, pooled or restored).
  [[nodiscard]] bool surrogate_trained() const;
  /// Held-out fidelity of the *initial* session GBT (the refresh pipeline
  /// reports promoted models through `refresh_stats`); nullopt until the
  /// session holds a predictor.
  [[nodiscard]] std::optional<surrogate::hw_predictor::fidelity> surrogate_fidelity() const;

  /// Refresh-pipeline counters; nullopt while no pipeline exists (refresh
  /// disabled, or the surrogate has not been trained yet).
  [[nodiscard]] std::optional<surrogate::refresh_stats> refresh_stats() const;
  /// Forces one refresh attempt now (deterministic driver for tests and
  /// benches); false when no pipeline exists or the log is empty, else
  /// whether a candidate was promoted.
  bool refresh_now();

  /// Whole-lifetime counters across every request served by this session.
  [[nodiscard]] core::engine_stats analytic_cache_stats() const noexcept {
    return analytic_engine_.stats();
  }
  [[nodiscard]] core::engine_stats surrogate_cache_stats() const;

  /// Captures the session's warm state — both memo caches' current-epoch
  /// entries, the fitted GBT ensembles (when trained) and the refresh
  /// reservoir (when enabled) — as a `session_snapshot` (see
  /// serving/session_snapshot.h). The predictor, its engine epoch and its
  /// cache entries are captured under one lock acquisition (the same mutex
  /// a refresh promotion takes), so a snapshot racing a promotion always
  /// sees a consistent (model, epoch, entries) triple. Non-const: the
  /// reservoir export drains any in-flight background refit first.
  ///
  /// Blocking: through an in-flight refit (refresh sessions) and through
  /// surrogate training if a first-caller holds the lock.
  [[nodiscard]] session_snapshot snapshot();

  /// Warm-starts this session from a snapshot taken by `snapshot()`:
  /// imports both caches, adopts the snapshot's own fitted ensembles without
  /// retraining and without consulting the predictor pool (predictions
  /// bit-identical to the snapshotted model), and resumes the
  /// refresh reservoir. Only valid on a *fresh* session — same key, no
  /// surrogate trained, no traffic served; throws snapshot_error on a key
  /// mismatch and std::logic_error on a non-fresh session. The surrogate
  /// engine restarts at cache epoch 0 with the snapshot's epoch-N model as
  /// its base; refresh attempt/promotion counters restart with the
  /// pipeline (reservoir retention probabilities are preserved — see
  /// surrogate::training_log::restore).
  ///
  /// A snapshot whose refresh state is absent leaves a refresh-enabled
  /// session without a pipeline (it cannot be rebuilt without the original
  /// training slice); the session still serves, it just never refreshes.
  void restore(const session_snapshot& snap);

 private:
  /// Refresh promotion target: binds `next`. Batches planned on the old
  /// evaluator keep it, and its predictor, alive until they are collected.
  void promote(std::shared_ptr<const surrogate::hw_predictor> next);
  /// Makes `next` the session predictor and binds a fresh surrogate
  /// evaluator, which owns a reference to it: the surrogate engine is built
  /// on that evaluator, or, once it exists, advances its cache epoch to it.
  /// Caller holds surrogate_mu_.
  void bind_locked(std::shared_ptr<const surrogate::hw_predictor> next);
  /// Builds the refresh pipeline over `base_train`, refitting with `gbt_`
  /// and promoting through promote(). Caller holds surrogate_mu_: the
  /// pipeline exists before the tap is installed, which is what lets the
  /// tap use `refresh_` without taking surrogate_mu_.
  void start_refresh_locked(surrogate::dataset base_train);
  /// Feeds every analytic evaluator run to the refresh pipeline. Called
  /// with surrogate_mu_ released: a firing tap holds the engine's tap lock
  /// while a synchronous refit's promotion callback re-takes surrogate_mu_,
  /// so registering under surrogate_mu_ would invert that order (a lock
  /// cycle, a potential deadlock).
  void install_tap();
  /// restore() body under surrogate_mu_; returns whether the caller must
  /// install the ground-truth tap (outside the lock, see install_tap).
  bool restore_locked(const session_snapshot& snap);
  /// Expands one analytically evaluated configuration into per-sublayer
  /// (features, latency, energy) ground-truth rows for the refresh log.
  [[nodiscard]] surrogate::dataset ground_truth_rows(const core::configuration& config) const;

  std::string key_;
  std::shared_ptr<const nn::network> net_;
  std::shared_ptr<const soc::platform> plat_;
  core::evaluator_options eval_opt_;  ///< predictor forced to nullptr
  std::uint64_t ranking_seed_;
  core::engine_options engine_opt_;
  std::shared_ptr<predictor_pool> pool_;
  surrogate::refresh_options refresh_opt_;
  core::search_space space_;
  core::evaluator analytic_eval_;
  core::evaluation_engine analytic_engine_;

  mutable std::mutex surrogate_mu_;  ///< guards the lazy surrogate members
  surrogate::benchmark_options bench_;
  surrogate::gbt_params gbt_;
  std::shared_ptr<const surrogate::hw_predictor> predictor_;
  std::optional<surrogate::hw_predictor::fidelity> fidelity_;
  std::unique_ptr<core::evaluation_engine> surrogate_engine_;
  /// Declared last: destroyed first, draining any in-flight refit while
  /// the predictors and engines above are still alive. Created at
  /// most once (first surrogate training), before the tap is installed,
  /// and never reassigned — so the tap may use it without surrogate_mu_.
  std::unique_ptr<surrogate::refresh_pipeline> refresh_;
};

}  // namespace mapcq::serving

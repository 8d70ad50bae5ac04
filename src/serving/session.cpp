#include "serving/session.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/dynamic_transform.h"
#include "perf/energy_model.h"
#include "perf/latency_model.h"
#include "surrogate/features.h"

namespace mapcq::serving {

namespace {

core::evaluator_options strip_predictor(core::evaluator_options opt) {
  opt.predictor = nullptr;
  return opt;
}

std::shared_ptr<predictor_pool> require_pool(std::shared_ptr<predictor_pool> pool) {
  if (!pool) throw std::invalid_argument("mapping_session: null predictor pool");
  return pool;
}

}  // namespace

mapping_session::mapping_session(std::string key, std::shared_ptr<const nn::network> net,
                                 std::shared_ptr<const soc::platform> plat,
                                 core::evaluator_options eval_opt, int ratio_levels,
                                 std::uint64_t ranking_seed, core::engine_options engine_opt,
                                 std::shared_ptr<predictor_pool> pool,
                                 surrogate::refresh_options refresh_opt)
    : key_(std::move(key)),
      net_(std::move(net)),
      plat_(std::move(plat)),
      eval_opt_(strip_predictor(std::move(eval_opt))),
      ranking_seed_(ranking_seed),
      engine_opt_(engine_opt),
      pool_(require_pool(std::move(pool))),
      refresh_opt_(refresh_opt),
      // CUs reserved by co-residents leave the mapping permutation entirely:
      // the search proposes only mappings this session may actually run.
      space_(*net_, *plat_, ratio_levels, eval_opt_.contention.reserved_units()),
      analytic_eval_(*net_, *plat_, eval_opt_, ranking_seed_),
      analytic_engine_(analytic_eval_, engine_opt_) {}

mapping_session::~mapping_session() {
  // Quiesce the ground-truth tap before members destruct: the setter
  // blocks until in-flight tap invocations return, so after this line no
  // engine worker can call into the refresh pipeline (whose destructor —
  // refresh_ is declared last — then drains any pending refit while the
  // predictors and engines are all still alive).
  if (refresh_) analytic_engine_.set_ground_truth_tap(nullptr);
}

surrogate::dataset mapping_session::ground_truth_rows(const core::configuration& config) const {
  // Re-derive the plan the analytic evaluator just executed and label every
  // scheduled sublayer with the analytic models directly — no measurement
  // noise: these are the exact (features -> cost) pairs the surrogate
  // should have predicted for this candidate. The repeated transform
  // roughly doubles the cost of an analytic miss while refresh is enabled;
  // the alternative — carrying the stage_plan inside every `evaluation` —
  // would bloat each memo-cache entry for a default-off feature, so the
  // recompute is the deliberate trade (refresh is off by default).
  const core::dynamic_network dyn =
      core::transform(*net_, analytic_eval_.groups(), analytic_eval_.ranking(), config, *plat_,
                      eval_opt_.reorder);
  const perf::stage_plan& plan = dyn.plan;
  // Shared definition with the evaluator's surrogate query path, so logged
  // features line up with the ones the predictor is queried with.
  const std::size_t concurrency = plan.active_stages();
  surrogate::dataset rows;
  for (std::size_t i = 0; i < plan.stages(); ++i) {
    const soc::compute_unit& cu = plat_->unit(plan.cu_of_stage[i]);
    const std::size_t level = plan.dvfs_level[plan.cu_of_stage[i]];
    for (std::size_t j = 0; j < plan.groups(); ++j) {
      const auto& cost = plan.steps[i][j].cost;
      if (cost.empty()) continue;
      const auto feats = surrogate::featurize(cost, cu, level, concurrency);
      rows.add_row({feats.begin(), feats.end()},
                   perf::sublayer_latency_ms(cost, cu, level, concurrency, eval_opt_.model),
                   perf::sublayer_energy_mj(cost, cu, level, concurrency, eval_opt_.model));
    }
  }
  return rows;
}

void mapping_session::bind_locked(std::shared_ptr<const surrogate::hw_predictor> next) {
  predictor_ = std::move(next);
  core::evaluator_options opt = eval_opt_;
  opt.predictor = predictor_.get();
  // The deleter holds the predictor: the evaluator cannot outlive it.
  std::shared_ptr<const core::evaluator> eval{
      new core::evaluator(*net_, *plat_, opt, ranking_seed_),
      [predictor = predictor_](const core::evaluator* e) { delete e; }};
  if (surrogate_engine_)
    surrogate_engine_->advance_epoch(std::move(eval));
  else
    surrogate_engine_ = std::make_unique<core::evaluation_engine>(std::move(eval), engine_opt_);
}

void mapping_session::start_refresh_locked(surrogate::dataset base_train) {
  refresh_ = std::make_unique<surrogate::refresh_pipeline>(
      refresh_opt_, gbt_, std::move(base_train), predictor_,
      [this](std::shared_ptr<const surrogate::hw_predictor> cand) { promote(std::move(cand)); });
}

void mapping_session::install_tap() {
  analytic_engine_.set_ground_truth_tap(
      [this](const core::configuration& config, const core::evaluation&) {
        refresh_->observe(ground_truth_rows(config));
      });
}

void mapping_session::promote(std::shared_ptr<const surrogate::hw_predictor> next) {
  const std::lock_guard<std::mutex> lock{surrogate_mu_};
  if (!surrogate_engine_) return;  // cannot happen: the pipeline requires a trained session
  bind_locked(std::move(next));
}

core::evaluation_engine& mapping_session::surrogate_engine(
    const surrogate::benchmark_options& bench, const surrogate::gbt_params& gbt,
    bool* trained_now) {
  bool tap = false;
  core::evaluation_engine* engine = nullptr;
  {
    const std::lock_guard<std::mutex> lock{surrogate_mu_};
    if (!predictor_) {
      // Fit once per (network, platform, bench, gbt) per service (paper
      // §V-E): the pool runs the fit for the first session and hands later
      // ones the same immutable predictor. Then pin an evaluator/engine
      // pair to it so every later surrogate request reuses both the model
      // and the memo cache. A throwing fit leaves predictor_ null.
      bool fitted = false;
      pooled_fit fit = pool_->acquire(net_, plat_, bench, gbt, &fitted);
      fidelity_ = fit.fidelity;
      bench_ = bench;
      gbt_ = gbt;
      bind_locked(std::move(fit.predictor));
      if (refresh_opt_.enabled) {
        // The pipeline learns from the *analytic* engine's ground-truth
        // traffic (cache misses during analytic searches and validation).
        // The pool keeps predictors, not datasets, so the training split
        // the candidates refit on is regenerated (a few ms next to a fit).
        start_refresh_locked(surrogate_split(*net_, *plat_, bench).train);
        tap = true;
      }
      if (trained_now) *trained_now = fitted;
    } else {
      if (bench_ != bench || gbt_ != gbt)
        throw std::invalid_argument(
            "mapping_session: surrogate knobs differ from the session's trained predictor "
            "(sessions are immutable; change the evaluator options or ranking seed to fork one)");
      if (trained_now) *trained_now = false;
    }
    engine = surrogate_engine_.get();
  }
  // The tap goes in after surrogate_mu_ is released (see install_tap).
  // Racing callers are safe — `refresh_` is already set, training is
  // serialized above, and analytic traffic in the gap merely goes
  // unobserved.
  if (tap) install_tap();
  return *engine;
}

bool mapping_session::surrogate_trained() const {
  const std::lock_guard<std::mutex> lock{surrogate_mu_};
  return predictor_ != nullptr;
}

std::optional<surrogate::hw_predictor::fidelity> mapping_session::surrogate_fidelity() const {
  const std::lock_guard<std::mutex> lock{surrogate_mu_};
  return fidelity_;
}

std::optional<surrogate::refresh_stats> mapping_session::refresh_stats() const {
  const std::lock_guard<std::mutex> lock{surrogate_mu_};
  if (!refresh_) return std::nullopt;
  return refresh_->stats();
}

bool mapping_session::refresh_now() {
  surrogate::refresh_pipeline* pipeline = nullptr;
  {
    // Drop surrogate_mu_ before the attempt: a promotion re-takes it.
    const std::lock_guard<std::mutex> lock{surrogate_mu_};
    pipeline = refresh_.get();
  }
  return pipeline ? pipeline->refresh_now() : false;
}

core::engine_stats mapping_session::surrogate_cache_stats() const {
  const std::lock_guard<std::mutex> lock{surrogate_mu_};
  return surrogate_engine_ ? surrogate_engine_->stats() : core::engine_stats{};
}

session_snapshot mapping_session::snapshot() {
  session_snapshot snap;
  snap.session_key = key_;
  snap.analytic_entries = analytic_engine_.export_cache();

  // Export the reservoir BEFORE taking surrogate_mu_: export_log drains the
  // background refit worker, and a refit's promotion callback re-takes
  // surrogate_mu_ — draining under the lock would deadlock. The reservoir
  // is its own consistent unit; the (predictor, epoch, entries) triple
  // below is captured atomically regardless.
  surrogate::refresh_pipeline* pipeline = nullptr;
  {
    const std::lock_guard<std::mutex> lock{surrogate_mu_};
    pipeline = refresh_.get();
  }
  std::optional<session_snapshot::refresh_state> reservoir;
  if (pipeline) {
    surrogate::refresh_pipeline::log_state st = pipeline->export_log();
    reservoir =
        session_snapshot::refresh_state{pipeline->base_training_set(), std::move(st.rows), st.seen};
  }

  const std::lock_guard<std::mutex> lock{surrogate_mu_};
  if (predictor_) {
    session_snapshot::surrogate_state ss;
    ss.bench = bench_;
    ss.gbt = gbt_;
    ss.fidelity = *fidelity_;
    const surrogate::gbt_regressor& lat = predictor_->latency_model();
    ss.latency = surrogate::fitted_ensemble{lat.trees(), lat.base(), lat.train_rmse()};
    const surrogate::gbt_regressor& en = predictor_->energy_model();
    ss.energy = surrogate::fitted_ensemble{en.trees(), en.base(), en.train_rmse()};
    ss.predictor_epoch = surrogate_engine_->epoch();
    ss.entries = surrogate_engine_->export_cache();
    snap.surrogate = std::move(ss);
    snap.refresh = std::move(reservoir);
  }
  return snap;
}

void mapping_session::restore(const session_snapshot& snap) {
  if (snap.session_key != key_)
    throw snapshot_error("session key mismatch (snapshot is for '" + snap.session_key + "')");
  bool tap = false;
  {
    const std::lock_guard<std::mutex> lock{surrogate_mu_};
    tap = restore_locked(snap);
  }
  if (tap) install_tap();
}

bool mapping_session::restore_locked(const session_snapshot& snap) {
  if (predictor_ || analytic_engine_.stats().lookups() != 0 || analytic_engine_.size() != 0)
    throw std::logic_error("mapping_session::restore: session is not fresh");
  analytic_engine_.import_cache(snap.analytic_entries);
  if (!snap.surrogate) return false;

  const session_snapshot::surrogate_state& ss = *snap.surrogate;
  // Adopt the fitted ensembles directly — no benchmark generation, no
  // boosting loop; the restored predictor is bit-identical to the
  // snapshotted one, so imported cache entries and fresh predictions agree.
  fidelity_ = ss.fidelity;
  bench_ = ss.bench;
  gbt_ = ss.gbt;
  bind_locked(std::make_shared<const surrogate::hw_predictor>(
      surrogate::gbt_regressor(ss.latency, ss.gbt.learning_rate, ss.gbt.log_target),
      surrogate::gbt_regressor(ss.energy, ss.gbt.learning_rate, ss.gbt.log_target)));
  surrogate_engine_->import_cache(ss.entries);

  if (refresh_opt_.enabled && snap.refresh) {
    // Same order as the training path; the caller installs the tap.
    start_refresh_locked(snap.refresh->base_train);
    refresh_->restore_log({snap.refresh->log_rows, snap.refresh->log_seen});
    return true;
  }
  return false;
}

}  // namespace mapcq::serving

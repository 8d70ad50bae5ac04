#pragma once
// Candidate evaluation pipeline (paper Fig. 5, "Evaluate" + "Const. Filter"
// boxes): configuration -> dynamic transform -> hardware simulation
// (analytic model or GBT surrogate) -> accuracy/exit simulation ->
// objective (eq. 16) + constraint verdict (eq. 15).

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/configuration.h"
#include "core/dynamic_transform.h"
#include "data/accuracy_model.h"
#include "data/exit_simulator.h"
#include "nn/channel_ranking.h"
#include "nn/graph.h"
#include "nn/partition_groups.h"
#include <optional>

#include "perf/characterizer.h"
#include "perf/concurrent_executor.h"
#include "soc/contention.h"
#include "soc/platform.h"
#include "soc/thermal.h"
#include "surrogate/predictor.h"

namespace mapcq::core {

/// Search constraints (paper eq. 15). Defaults are unconstrained except the
/// shared-memory budget, which always applies (it is physical).
struct constraints {
  double latency_target_ms = std::numeric_limits<double>::infinity();  ///< T_TRG
  double energy_target_mj = std::numeric_limits<double>::infinity();   ///< E_TRG
  double fmap_reuse_cap = 1.0;  ///< §VI-B: 0.75 / 0.50 reuse regimes
};

/// Evaluation pipeline options.
struct evaluator_options {
  std::size_t population = 10000;  ///< synthetic validation set size
  bool reorder = true;             ///< channel reordering (§V-D); off = ablation
  bool dynamic_exits = true;       ///< false = single exit at the last stage
  /// Count the gated-idle energy of CUs during the inference window
  /// (board-level accounting, matching the calibration anchors).
  bool count_idle_power = true;
  perf::model_options model;       ///< analytic model knobs
  /// Non-null switches sublayer costs to the trained surrogate (§V-E).
  const surrogate::hw_predictor* predictor = nullptr;
  constraints limits;
  /// When set, mappings whose sustained power would trip the package
  /// throttle are rejected (extension; see soc::thermal_model).
  std::optional<soc::thermal_model> thermal;
  /// Co-location scenario: co-resident traffic derates the platform, DVFS
  /// caps clamp per-CU levels, reserved CUs and over-budget/over-thermal
  /// mappings are rejected. The default (idle) context changes nothing —
  /// evaluation stays bit-identical to the contention-free path.
  soc::contention_context contention;
};

/// Everything measured about one candidate.
struct evaluation {
  configuration config;

  bool feasible = true;
  std::string reject_reason;

  double objective = std::numeric_limits<double>::infinity();  ///< eq. 16

  double avg_latency_ms = 0.0;   ///< exit-weighted (Table II "Avg. Lat.")
  double avg_energy_mj = 0.0;    ///< exit-weighted (Table II "Avg. Enrg.")
  double worst_latency_ms = 0.0; ///< all stages instantiated (eq. 13)
  double worst_energy_mj = 0.0;  ///< all stages instantiated (eq. 14)

  double accuracy_pct = 0.0;            ///< dynamic top-1 (Table II "TOP-1 Acc")
  double last_stage_accuracy_pct = 0.0; ///< Acc_SM of eq. 16

  double fmap_reuse_pct = 0.0;     ///< Table II "Fmap. reuse. (%)"
  double stored_fmap_bytes = 0.0;  ///< size_Pi(F, I)
  double fmap_traffic_bytes = 0.0; ///< total inter-CU fmap movement

  std::vector<double> stage_latency_ms;   ///< T_Si
  std::vector<double> stage_energy_mj;    ///< E_Si
  std::vector<double> stage_accuracy_pct; ///< A_i
  std::vector<double> exit_fractions;     ///< per-stage exit shares
};

/// Surrogate cost grid of one resolved plan (paper §V-E): featurizes every
/// non-empty (stage, group) cell once, scores them all in one batched
/// `hw_predictor::predict`, and scatters the results into the grid. Empty
/// cells are 0 and never queried. This is what `evaluator::evaluate` feeds
/// `perf::simulate_costed` when a predictor is set.
[[nodiscard]] perf::step_costs predict_costs(const perf::stage_plan& plan,
                                             const soc::platform& plat,
                                             const surrogate::hw_predictor& predictor);

/// Reusable, thread-safe (const) evaluator bound to one network + platform.
class evaluator {
 public:
  evaluator(const nn::network& net, const soc::platform& plat, evaluator_options opt = {},
            std::uint64_t ranking_seed = 0xC0FFEE);

  /// Runs the full pipeline on one configuration.
  [[nodiscard]] evaluation evaluate(const configuration& config) const;

  /// `evaluate` over each element, in order. Kept only because the frozen
  /// repository benchmark (perfbench/) calls it; it goes in the next
  /// benchmark change. Throws whatever the first failing `evaluate` throws.
  [[nodiscard]] std::vector<evaluation> evaluate_batch(
      std::span<const configuration* const> configs) const;

  [[nodiscard]] const nn::network& net() const noexcept { return *net_; }
  [[nodiscard]] const soc::platform& plat() const noexcept { return *plat_; }
  [[nodiscard]] const std::vector<nn::partition_group>& groups() const noexcept {
    return groups_;
  }
  [[nodiscard]] const nn::ranked_network& ranking() const noexcept { return ranking_; }
  [[nodiscard]] const evaluator_options& options() const noexcept { return opt_; }

 private:
  /// Everything downstream of the hardware simulation: per-stage copies,
  /// accuracy + exits, objective, constraint filter.
  [[nodiscard]] evaluation finish(const configuration& config, const dynamic_network& dyn,
                                  const perf::execution_result& exec,
                                  const perf::dynamic_profile& profile) const;

  /// Platform the hardware simulation runs against: the contention-derated
  /// copy when residents exist, the pristine platform otherwise.
  [[nodiscard]] const soc::platform& sim_plat() const noexcept {
    return contended_plat_ ? *contended_plat_ : *plat_;
  }
  /// Contention context for characterize_system, or null on the idle path.
  [[nodiscard]] const soc::contention_context* scenario_ctx() const noexcept {
    return opt_.contention.residents.empty() ? nullptr : &opt_.contention;
  }
  /// Clamps per-CU DVFS levels to the scenario caps (no-op when uncapped).
  void apply_dvfs_caps(perf::stage_plan& plan) const;

  const nn::network* net_;
  const soc::platform* plat_;
  evaluator_options opt_;
  /// apply_contention(*plat_, opt_.contention) when residents exist.
  std::optional<soc::platform> contended_plat_;
  std::vector<nn::partition_group> groups_;
  nn::ranked_network ranking_;
  data::accuracy_params acc_params_;
};

}  // namespace mapcq::core

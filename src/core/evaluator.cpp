#include "core/evaluator.h"

#include <algorithm>
#include <cmath>

#include "core/objective.h"
#include "perf/characterizer.h"
#include "util/strings.h"

namespace mapcq::core {

namespace {

std::vector<std::int64_t> widths_of(const std::vector<nn::partition_group>& groups) {
  std::vector<std::int64_t> w;
  w.reserve(groups.size());
  for (const auto& g : groups) w.push_back(g.width);
  return w;
}

/// Exit outcome of a static (single-exit) deployment: every sample runs all
/// stages; the last exit classifies.
data::exit_outcome static_exits(double last_acc_pct, std::size_t stages,
                                std::size_t population) {
  data::exit_outcome out;
  out.population = population;
  out.correct_counts.assign(stages, 0);
  out.exit_fractions.assign(stages, 0.0);
  out.exit_fractions.back() = 1.0;
  out.correct_counts.back() = static_cast<std::size_t>(
      std::llround(last_acc_pct / 100.0 * static_cast<double>(population)));
  out.dynamic_accuracy_pct = last_acc_pct;
  return out;
}

}  // namespace

perf::step_costs predict_costs(const perf::stage_plan& plan, const soc::platform& plat,
                               const surrogate::hw_predictor& predictor) {
  const std::size_t concurrency = plan.active_stages();
  perf::step_costs costs;
  costs.tau_ms.assign(plan.stages(), std::vector<double>(plan.groups(), 0.0));
  costs.energy_mj.assign(plan.stages(), std::vector<double>(plan.groups(), 0.0));

  // Gather: one feature row per non-empty cell, in (stage, group) order.
  std::vector<double> rows;
  rows.reserve(plan.stages() * plan.groups() * surrogate::feature_count);
  for (std::size_t i = 0; i < plan.stages(); ++i) {
    const soc::compute_unit& cu = plat.unit(plan.cu_of_stage[i]);
    const std::size_t level = plan.dvfs_level[plan.cu_of_stage[i]];
    for (std::size_t j = 0; j < plan.groups(); ++j) {
      const perf::sublayer_cost& cost = plan.steps[i][j].cost;
      if (cost.empty()) continue;
      const auto f = surrogate::featurize(cost, cu, level, concurrency);
      rows.insert(rows.end(), f.begin(), f.end());
    }
  }

  // Score: one batched call fills both heads.
  const std::size_t n = rows.size() / surrogate::feature_count;
  std::vector<double> tau(n);
  std::vector<double> energy(n);
  predictor.predict(rows, tau, energy);

  // Scatter, walking the cells in the same order.
  std::size_t k = 0;
  for (std::size_t i = 0; i < plan.stages(); ++i)
    for (std::size_t j = 0; j < plan.groups(); ++j) {
      if (plan.steps[i][j].cost.empty()) continue;
      costs.tau_ms[i][j] = tau[k];
      costs.energy_mj[i][j] = energy[k];
      ++k;
    }
  return costs;
}

evaluator::evaluator(const nn::network& net, const soc::platform& plat, evaluator_options opt,
                     std::uint64_t ranking_seed)
    : net_(&net),
      plat_(&plat),
      opt_(opt),
      groups_(nn::make_partition_groups(net)),
      ranking_(net, widths_of(groups_), ranking_seed),
      acc_params_(data::accuracy_params::from(net)) {
  net.validate();
  plat.validate();
  if (opt_.population == 0) throw std::invalid_argument("evaluator: empty population");
  if (opt_.limits.fmap_reuse_cap < 0.0 || opt_.limits.fmap_reuse_cap > 1.0)
    throw std::invalid_argument("evaluator: fmap_reuse_cap out of [0,1]");
  opt_.contention.validate(plat);
  if (!opt_.contention.residents.empty())
    contended_plat_ = soc::apply_contention(plat, opt_.contention);
}

void evaluator::apply_dvfs_caps(perf::stage_plan& plan) const {
  const std::vector<std::size_t>& cap = opt_.contention.dvfs_cap;
  if (cap.empty()) return;
  const std::size_t n = std::min(cap.size(), plan.dvfs_level.size());
  for (std::size_t u = 0; u < n; ++u)
    plan.dvfs_level[u] = std::min(plan.dvfs_level[u], cap[u]);
}

evaluation evaluator::evaluate(const configuration& config) const {
  dynamic_network dyn = transform(*net_, groups_, ranking_, config, *plat_, opt_.reorder);
  apply_dvfs_caps(dyn.plan);
  const soc::platform& plat = sim_plat();

  // --- hardware simulation (analytic or surrogate) ------------------------
  const perf::execution_result exec =
      opt_.predictor != nullptr
          ? perf::simulate_costed(plat, dyn.plan,
                                  predict_costs(dyn.plan, plat, *opt_.predictor))
          : perf::simulate(plat, dyn.plan, opt_.model);
  const perf::dynamic_profile profile =
      opt_.count_idle_power ? perf::characterize_system(exec, dyn.plan, plat, scenario_ctx())
                            : perf::characterize(exec);
  return finish(config, dyn, exec, profile);
}

std::vector<evaluation> evaluator::evaluate_batch(
    std::span<const configuration* const> configs) const {
  std::vector<evaluation> out;
  out.reserve(configs.size());
  for (const configuration* config : configs) out.push_back(evaluate(*config));
  return out;
}

evaluation evaluator::finish(const configuration& config, const dynamic_network& dyn,
                             const perf::execution_result& exec,
                             const perf::dynamic_profile& profile) const {
  evaluation ev;
  ev.config = config;
  ev.fmap_reuse_pct = 100.0 * dyn.fmap_reuse_ratio;
  ev.stored_fmap_bytes = dyn.stored_fmap_bytes;
  ev.fmap_traffic_bytes = exec.fmap_traffic_bytes;

  const std::size_t m = exec.stages.size();
  ev.stage_latency_ms.resize(m);
  ev.stage_energy_mj.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    ev.stage_latency_ms[i] = exec.stages[i].latency_ms;
    ev.stage_energy_mj[i] = exec.stages[i].energy_mj;
  }

  // --- accuracy + exits ----------------------------------------------------
  ev.stage_accuracy_pct = data::stage_accuracies_pct(acc_params_, dyn.stage_quality);
  ev.last_stage_accuracy_pct = ev.stage_accuracy_pct.back();

  const data::exit_outcome exits =
      opt_.dynamic_exits
          ? data::simulate_ideal(ev.stage_accuracy_pct, opt_.population)
          : static_exits(ev.last_stage_accuracy_pct, m, opt_.population);
  ev.exit_fractions = exits.exit_fractions;
  ev.accuracy_pct = exits.dynamic_accuracy_pct;

  ev.avg_latency_ms = profile.avg_latency_ms(ev.exit_fractions);
  ev.avg_energy_mj = profile.avg_energy_mj(ev.exit_fractions);
  ev.worst_latency_ms = profile.worst_latency_ms();
  ev.worst_energy_mj = profile.worst_energy_mj();

  // --- objective (eq. 16) ---------------------------------------------------
  objective_inputs in;
  in.base_accuracy_pct = net_->base_accuracy;
  in.stage_latency_ms = ev.stage_latency_ms;
  in.cumulative_energy_mj = profile.energy_upto;
  in.stage_accuracy_pct = ev.stage_accuracy_pct;
  in.exits = &exits;
  ev.objective = objective_value(in);

  // --- constraint filter (eq. 15) -------------------------------------------
  const auto reject = [&](const std::string& why) {
    ev.feasible = false;
    if (!ev.reject_reason.empty()) ev.reject_reason += "; ";
    ev.reject_reason += why;
  };
  if (dyn.fmap_reuse_ratio > opt_.limits.fmap_reuse_cap + 1e-9)
    reject(util::format("fmap reuse %.1f%% exceeds cap %.1f%%", 100.0 * dyn.fmap_reuse_ratio,
                        100.0 * opt_.limits.fmap_reuse_cap));
  if (dyn.stored_fmap_bytes > plat_->shared_memory_bytes)
    reject(util::format("stored fmaps %.0f B exceed shared memory %.0f B",
                        dyn.stored_fmap_bytes, plat_->shared_memory_bytes));
  if (ev.avg_latency_ms >= opt_.limits.latency_target_ms)
    reject(util::format("latency %.2f ms exceeds target", ev.avg_latency_ms));
  if (ev.avg_energy_mj >= opt_.limits.energy_target_mj)
    reject(util::format("energy %.2f mJ exceeds target", ev.avg_energy_mj));
  if (opt_.thermal && ev.avg_latency_ms > 0.0) {
    const double sustained_w = ev.avg_energy_mj / ev.avg_latency_ms;  // mJ/ms = W
    if (opt_.thermal->throttles(sustained_w))
      reject(util::format("sustained %.2f W trips the %.0f C throttle", sustained_w,
                          opt_.thermal->throttle_c));
  }
  // --- co-location scenario constraints (idle context: branch-only skip) ----
  const soc::contention_context& scen = opt_.contention;
  if (!scen.idle()) {
    for (std::size_t i = 0; i < dyn.plan.cu_of_stage.size(); ++i) {
      const std::size_t u = dyn.plan.cu_of_stage[i];
      if (!scen.unit_reserved(u)) continue;
      // A stage owning no work never executes, so it may nominally sit on
      // a reserved CU (the M permutation always covers every unit).
      const bool active = std::any_of(dyn.plan.steps[i].begin(), dyn.plan.steps[i].end(),
                                      [](const perf::stage_step& s) { return !s.cost.empty(); });
      if (active)
        reject(util::format("stage %u mapped to CU %u reserved by a co-resident",
                            static_cast<unsigned>(i), static_cast<unsigned>(u)));
    }
    const double resident_bytes = scen.total_shared_memory_bytes();
    if (resident_bytes > 0.0 &&
        dyn.stored_fmap_bytes > plat_->shared_memory_bytes - resident_bytes)
      reject(util::format("stored fmaps %.0f B exceed the %.0f B left by co-residents",
                          dyn.stored_fmap_bytes, plat_->shared_memory_bytes - resident_bytes));
    if (scen.thermal && ev.avg_latency_ms > 0.0) {
      const double sustained_w = ev.avg_energy_mj / ev.avg_latency_ms + scen.total_power_w();
      if (scen.thermal->throttles(sustained_w))
        reject(util::format("sustained %.2f W (with co-residents) trips the %.0f C throttle",
                            sustained_w, scen.thermal->throttle_c));
    }
  }
  if (!std::isfinite(ev.objective)) reject("degenerate objective");

  return ev;
}

}  // namespace mapcq::core

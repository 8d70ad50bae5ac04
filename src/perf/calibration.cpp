#include "perf/calibration.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mapcq::perf {

namespace {

constexpr double eff_lo = 1e-6;
constexpr double eff_hi = 1.0;
constexpr double act_lo = 0.01;
constexpr double act_hi = 1.0;

double run_latency(const soc::compute_unit& cu, const nn::network& net,
                   const model_options& model) {
  return single_cu_run(net, cu, cu.dvfs.max_level(), model).latency_ms;
}

double run_energy(const soc::compute_unit& cu, const nn::network& net,
                  const model_options& model, double external_idle_w) {
  const single_cu_result r = single_cu_run(net, cu, cu.dvfs.max_level(), model);
  return r.energy_mj + external_idle_w * r.latency_ms;
}

/// Bisection for the efficiency of `cls` matching the anchor's latency.
/// Latency decreases monotonically with efficiency.
void solve_efficiency(soc::compute_unit& cu, soc::op_class cls, const reference_point& ref,
                      const model_options& model) {
  double lo = eff_lo;
  double hi = eff_hi;
  // If even eff_hi is too slow the target is compute-unreachable; if eff_lo
  // is too fast it is overhead-bound below the target.
  cu.set_efficiency(cls, hi);
  if (run_latency(cu, *ref.net, model) > ref.latency_ms)
    throw std::runtime_error("calibration: latency target unreachable (too slow at max eff)");
  cu.set_efficiency(cls, lo);
  if (run_latency(cu, *ref.net, model) < ref.latency_ms)
    throw std::runtime_error("calibration: latency target unreachable (overhead-bound)");
  for (int it = 0; it < 100; ++it) {
    const double mid = std::sqrt(lo * hi);  // log-scale bisection
    cu.set_efficiency(cls, mid);
    // Too slow -> need more efficiency. Each step is a function of (lo, hi)
    // alone, so once the bracket stops moving every later step would repeat
    // this one: stop at that fixed point.
    double& bound = run_latency(cu, *ref.net, model) > ref.latency_ms ? lo : hi;
    if (bound == mid) break;
    bound = mid;
  }
  cu.set_efficiency(cls, std::sqrt(lo * hi));
}

/// Bisection for the activity of `cls` matching the anchor's energy.
/// Energy increases monotonically with activity. Scales dynamic_power_w up
/// if the target exceeds the reachable range.
void solve_activity(soc::compute_unit& cu, soc::op_class cls, const reference_point& ref,
                    const model_options& model, double external_idle_w) {
  cu.set_activity(cls, act_hi);
  if (run_energy(cu, *ref.net, model, external_idle_w) < ref.energy_mj) {
    // Even full activity draws too little power: raise beta and re-enter.
    cu.dynamic_power_w *= 1.5;
    solve_activity(cu, cls, ref, model, external_idle_w);
    return;
  }
  cu.set_activity(cls, act_lo);
  if (run_energy(cu, *ref.net, model, external_idle_w) > ref.energy_mj)
    throw std::runtime_error("calibration: energy target below static floor");
  double lo = act_lo;
  double hi = act_hi;
  for (int it = 0; it < 100; ++it) {
    const double mid = 0.5 * (lo + hi);
    cu.set_activity(cls, mid);
    double& bound = run_energy(cu, *ref.net, model, external_idle_w) > ref.energy_mj ? hi : lo;
    if (bound == mid) break;  // fixed point, as in solve_efficiency
    bound = mid;
  }
  cu.set_activity(cls, 0.5 * (lo + hi));
}

}  // namespace

calibration_report calibrate_unit(soc::compute_unit& cu,
                                  std::span<const reference_point> anchors,
                                  const calibration_options& opt) {
  if (anchors.empty()) throw std::invalid_argument("calibrate_unit: no anchors");
  for (const auto& a : anchors) {
    if (a.net == nullptr) throw std::invalid_argument("calibrate_unit: null network");
    if (a.latency_ms <= 0.0 || a.energy_mj <= 0.0)
      throw std::invalid_argument("calibrate_unit: non-positive target");
  }

  // Alternate the per-class solves; each anchor perturbs the other's class
  // slightly (every network mixes both classes), so iterate to joint
  // convergence.
  for (int round = 0; round < opt.max_rounds; ++round) {
    for (const auto& a : anchors) solve_efficiency(cu, a.pins, a, opt.model);
    double worst = 0.0;
    for (const auto& a : anchors) {
      const double err =
          std::abs(run_latency(cu, *a.net, opt.model) - a.latency_ms) / a.latency_ms;
      worst = std::max(worst, err);
    }
    if (worst < opt.tolerance) break;
  }
  for (int round = 0; round < opt.max_rounds; ++round) {
    for (const auto& a : anchors) solve_activity(cu, a.pins, a, opt.model, opt.external_idle_w);
    double worst = 0.0;
    for (const auto& a : anchors) {
      const double err =
          std::abs(run_energy(cu, *a.net, opt.model, opt.external_idle_w) - a.energy_mj) /
          a.energy_mj;
      worst = std::max(worst, err);
    }
    if (worst < opt.tolerance) break;
  }

  calibration_report rep;
  rep.unit = cu.name;
  for (const auto& a : anchors) {
    rep.latency_error.push_back(
        (run_latency(cu, *a.net, opt.model) - a.latency_ms) / a.latency_ms);
    rep.energy_error.push_back(
        (run_energy(cu, *a.net, opt.model, opt.external_idle_w) - a.energy_mj) / a.energy_mj);
  }
  cu.validate();
  return rep;
}

calibrated_platform calibrated_xavier(const nn::network& visformer, const nn::network& vgg19,
                                      const calibration_options& opt) {
  calibrated_platform out;
  out.plat = soc::agx_xavier();

  // Paper Table II baselines ("None" rows).
  const reference_point gpu_anchors[] = {
      {&vgg19, 25.23, 630.11, soc::op_class::spatial},
      {&visformer, 15.01, 197.35, soc::op_class::matmul},
  };
  const reference_point dla_anchors[] = {
      {&vgg19, 114.41, 164.89, soc::op_class::spatial},
      {&visformer, 69.22, 53.71, soc::op_class::matmul},
  };

  for (std::size_t idx = 0; idx < out.plat.units.size(); ++idx) {
    soc::compute_unit& unit = out.plat.units[idx];
    const auto span = unit.kind == soc::cu_kind::gpu
                          ? std::span<const reference_point>(gpu_anchors)
                          : std::span<const reference_point>(dla_anchors);
    calibration_options unit_opt = opt;
    for (std::size_t other = 0; other < out.plat.units.size(); ++other)
      if (other != idx) unit_opt.external_idle_w += out.plat.units[other].idle_power_w();
    out.reports.push_back(calibrate_unit(unit, span, unit_opt));
  }
  out.plat.validate();
  return out;
}

}  // namespace mapcq::perf

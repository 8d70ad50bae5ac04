#include "traced.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/pareto.h"
#include "surrogate/dataset.h"
#include "surrogate/predictor.h"

namespace perfbench {

namespace {

using namespace mapcq;

constexpr std::size_t kProbeConfigs = 1024;
constexpr std::size_t kSurrogateProbeConfigs = 256;
constexpr int kProbeRepeats = 3;

/// map()'s Ours-L / Ours-E rule: the cheapest pick within `slack` accuracy
/// points of the best validated accuracy.
template <typename Metric>
std::size_t pick_within_slack(const std::vector<core::evaluation>& front, double slack,
                              Metric metric) {
  double best_acc = 0.0;
  for (const auto& e : front) best_acc = std::max(best_acc, e.accuracy_pct);
  std::size_t best = front.size();
  double best_v = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < front.size(); ++i) {
    if (front[i].accuracy_pct < best_acc - slack) continue;
    const double v = metric(front[i]);
    if (v < best_v) {
      best_v = v;
      best = i;
    }
  }
  return best;
}

/// Median over `kProbeRepeats` runs of `f()`, in microseconds per item.
template <typename F>
double per_item_us(std::size_t items, F&& f) {
  std::vector<double> us;
  for (int r = 0; r < kProbeRepeats; ++r) {
    const steady::time_point t0 = steady::now();
    f();
    us.push_back(1e6 * seconds_between(t0, steady::now()) / static_cast<double>(items));
  }
  return median(us);
}

std::vector<core::configuration> distinct_configs(const std::vector<core::evaluation>& archive,
                                                  std::size_t limit) {
  std::vector<core::configuration> out;
  std::unordered_set<std::size_t> seen;
  for (const core::evaluation& e : archive) {
    if (out.size() == limit) break;
    if (seen.insert(e.config.hash()).second) out.push_back(e.config);
  }
  return out;
}

void probe_analytic(const core::evaluator& eval, const core::engine_options& engine,
                    const std::vector<core::configuration>& configs, layer_probe& probe) {
  const std::size_t n = configs.size();
  probe.scalar_us = per_item_us(n, [&] {
    for (const core::configuration& c : configs) (void)eval.evaluate(c);
  });
  std::vector<const core::configuration*> ptrs;
  for (const core::configuration& c : configs) ptrs.push_back(&c);
  probe.batch_us = per_item_us(n, [&] { (void)eval.evaluate_batch(ptrs); });
  std::vector<double> miss, hit;
  for (int r = 0; r < kProbeRepeats; ++r) {
    core::evaluation_engine fresh{eval, engine};
    steady::time_point t0 = steady::now();
    (void)fresh.evaluate_batch(configs);
    miss.push_back(1e6 * seconds_between(t0, steady::now()) / static_cast<double>(n));
    t0 = steady::now();
    (void)fresh.evaluate_batch(configs);
    hit.push_back(1e6 * seconds_between(t0, steady::now()) / static_cast<double>(n));
  }
  probe.miss_us = median(miss);
  probe.hit_us = median(hit);
}

}  // namespace

std::uint64_t report_digest(const serving::mapping_report& rep, bool with_scheduler) {
  // The fields core::report_summary ships, hashed as raw bytes: formatting
  // the summary as text costs milliseconds per report, which would stall
  // the open-loop load generator that digests every completion.
  std::string bytes = rep.network + '\n' + rep.platform + '\n';
  const auto put = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(rep.ours_latency_index);
  put(rep.ours_energy_index);
  if (with_scheduler && rep.scheduler) {
    const serving::scheduler_stats& s = *rep.scheduler;
    for (const std::size_t v : {s.submitted, s.admitted, s.coalesced, s.rejected, s.expired,
                                s.completed, s.failed, s.fused, s.fused_batches})
      put(v);
  }
  for (const core::evaluation& e : rep.front) {
    put(e.config.hash());
    put(e.feasible);
    for (const double v : {e.objective, e.avg_latency_ms, e.avg_energy_mj, e.accuracy_pct,
                           e.fmap_reuse_pct})
      put(v);
  }
  return fnv1a(bytes);
}

traced_outcome traced_map(serving::mapping_service& svc, const serving::mapping_request& req,
                          const core::engine_options& engine, tracer& tr, std::size_t request,
                          layer_probe* probe) {
  serving::mapping_report rep;
  std::shared_ptr<const surrogate::hw_predictor> predictor;
  std::unique_ptr<core::evaluator> surrogate_eval;
  std::unique_ptr<core::evaluation_engine> surrogate_engine;
  surrogate::dataset_split parts;

  const long root = tr.open("serving.map", request);
  const std::shared_ptr<serving::mapping_session> session =
      tr.time("serving.session_for", request, root, [&] { return svc.session_for(req); });
  rep.network = req.network;
  rep.platform = session->plat().name;
  core::evaluation_engine* search_engine = &session->analytic_engine();
  if (req.use_surrogate) {
    // The session's lazy training, spelled out: same benchmark, same split
    // seed, same GBT knobs, so the predictor is bit-identical to the one
    // map() would train.
    const std::vector<const nn::network*> nets = {&session->net()};
    const surrogate::dataset data = tr.time("surrogate.generate_benchmark", request, root, [&] {
      return surrogate::generate_benchmark(nets, session->plat(), req.bench);
    });
    parts = tr.time("surrogate.split", request, root,
                    [&] { return surrogate::split(data, 0.8, req.bench.seed ^ 0x5eed); });
    predictor = tr.time("surrogate.fit", request, root, [&] {
      return std::make_shared<const surrogate::hw_predictor>(parts.train, req.gbt);
    });
    const surrogate::hw_predictor::fidelity fid = tr.time(
        "surrogate.fidelity", request, root, [&] { return predictor->evaluate(parts.test); });
    if (probe) probe->fidelity_r2 = 0.5 * (fid.latency_r2 + fid.energy_r2);
    core::evaluator_options opt = req.eval;
    opt.predictor = predictor.get();
    surrogate_eval = std::make_unique<core::evaluator>(session->net(), session->plat(), opt,
                                                       req.ranking_seed);
    surrogate_engine = std::make_unique<core::evaluation_engine>(*surrogate_eval, engine);
    search_engine = surrogate_engine.get();
  }
  rep.search = tr.time("core.evolve", request, root,
                       [&] { return core::evolve(session->space(), *search_engine, req.ga); });
  rep.search_cache = rep.search.cache;
  std::vector<core::configuration> picks;
  for (const std::size_t idx : rep.search.pareto) picks.push_back(rep.search.archive[idx].config);
  core::evaluation_engine& validator = session->analytic_engine();
  const core::engine_stats before = validator.stats();
  rep.front = tr.time("core.validate", request, root,
                      [&] { return validator.evaluate_batch(picks); });
  rep.validation_cache = validator.stats() - before;
  rep.ours_energy_index = pick_within_slack(rep.front, req.ours_e_accuracy_slack,
                                            [](const auto& e) { return e.avg_energy_mj; });
  rep.ours_latency_index = pick_within_slack(rep.front, req.ours_l_accuracy_slack,
                                             [](const auto& e) { return e.avg_latency_ms; });
  tr.close(root);

  traced_outcome out;
  out.digest = report_digest(rep);
  const core::ga_result warm = tr.time("core.evolve.warm", request, -1, [&] {
    return core::evolve(session->space(), *search_engine, req.ga);
  });
  out.warm_rerun_ok = warm.cache.misses == 0 && warm.pareto == rep.search.pareto;
  std::vector<std::vector<double>> points;
  points.reserve(rep.search.archive.size());
  for (const core::evaluation& e : rep.search.archive)
    points.push_back({e.avg_latency_ms, e.avg_energy_mj, -e.accuracy_pct});
  const std::vector<std::size_t> front =
      tr.time("core.pareto_front", request, -1, [&] { return core::pareto_front(points); });
  out.warm_rerun_ok = out.warm_rerun_ok && front == rep.search.pareto;

  if (probe) {
    const std::vector<core::configuration> configs =
        distinct_configs(rep.search.archive, kProbeConfigs);
    probe_analytic(session->analytic_engine().base(), engine, configs, *probe);
    if (surrogate_eval) {
      const std::size_t n = std::min(configs.size(), kSurrogateProbeConfigs);
      probe->surrogate_us = per_item_us(n, [&] {
        for (std::size_t i = 0; i < n; ++i) (void)surrogate_eval->evaluate(configs[i]);
      });
      probe->predict_ns_per_row =
          1e3 * per_item_us(parts.test.size(),
                            [&] { (void)predictor->latency_model().predict(parts.test.x); });
    }
  }
  return out;
}

}  // namespace perfbench

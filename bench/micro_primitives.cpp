// google-benchmark micro-benchmarks of the framework's primitives: the
// costs behind one GA evaluation (transform, simulate, accuracy, surrogate
// predict) and the search itself. These bound the wall-clock of the
// paper-scale 12k-evaluation search. A custom main() additionally times one
// cold surrogate fit and the surrogate-backed evaluate, and emits the fit's
// milliseconds and microseconds per surrogate evaluation into BENCH.json
// (informational, not gated).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/evaluator.h"
#include "core/evolutionary.h"
#include "core/search_space.h"
#include "nn/models.h"
#include "perf/calibration.h"
#include "surrogate/dataset.h"
#include "surrogate/predictor.h"

namespace {

using namespace mapcq;

struct fixture {
  nn::network net = nn::build_visformer();
  nn::network vgg = nn::build_vgg19();
  soc::platform plat = perf::calibrated_xavier(net, vgg).plat;
  std::vector<nn::partition_group> groups = nn::make_partition_groups(net);
  nn::ranked_network ranking{net, widths(), 1};
  core::configuration cfg = core::make_static_configuration(net, plat);

  std::vector<std::int64_t> widths() const {
    std::vector<std::int64_t> w;
    for (const auto& g : groups) w.push_back(g.width);
    return w;
  }
};

fixture& fx() {
  static fixture f;
  return f;
}

void bm_dynamic_transform(benchmark::State& state) {
  auto& f = fx();
  for (auto _ : state)
    benchmark::DoNotOptimize(core::transform(f.net, f.groups, f.ranking, f.cfg, f.plat));
}
BENCHMARK(bm_dynamic_transform);

void bm_concurrent_simulate(benchmark::State& state) {
  auto& f = fx();
  const auto dyn = core::transform(f.net, f.groups, f.ranking, f.cfg, f.plat);
  for (auto _ : state) benchmark::DoNotOptimize(perf::simulate(f.plat, dyn.plan));
}
BENCHMARK(bm_concurrent_simulate);

void bm_full_evaluation_analytic(benchmark::State& state) {
  auto& f = fx();
  const core::evaluator ev{f.net, f.plat, {}};
  for (auto _ : state) benchmark::DoNotOptimize(ev.evaluate(f.cfg));
}
BENCHMARK(bm_full_evaluation_analytic);

/// Each iteration scores a configuration this run's predictor has never
/// scored: its row memo serves only the rows those configurations share,
/// as in a cold search, not a repeat of the last iteration.
void bm_full_evaluation_surrogate(benchmark::State& state) {
  auto& f = fx();
  static const surrogate::dataset ds = surrogate::generate_benchmark({&f.net}, f.plat, {});
  static const surrogate::hw_predictor fitted{ds};
  const surrogate::hw_predictor pred{fitted.latency_model(), fitted.energy_model()};
  core::evaluator_options opt;
  opt.predictor = &pred;
  const core::evaluator ev{f.net, f.plat, opt};
  const core::search_space space{f.net, f.plat};
  util::rng gen{29};
  std::vector<core::configuration> configs;
  for (benchmark::IterationCount i = 0; i < state.max_iterations; ++i)
    configs.push_back(space.decode(space.random(gen)));
  std::size_t next = 0;
  for (auto _ : state) benchmark::DoNotOptimize(ev.evaluate(configs[next++]));
}
BENCHMARK(bm_full_evaluation_surrogate);

void bm_surrogate_train(benchmark::State& state) {
  auto& f = fx();
  surrogate::benchmark_options bopt;
  bopt.samples = static_cast<std::size_t>(state.range(0));
  const auto ds = surrogate::generate_benchmark({&f.net}, f.plat, bopt);
  surrogate::gbt_params params;
  params.n_trees = 60;
  for (auto _ : state) benchmark::DoNotOptimize(surrogate::hw_predictor{ds, params});
}
BENCHMARK(bm_surrogate_train)->Arg(1000)->Arg(4000)->Unit(benchmark::kMillisecond);

void bm_ga_generation(benchmark::State& state) {
  auto& f = fx();
  const core::search_space space{f.net, f.plat};
  const core::evaluator ev{f.net, f.plat, {}};
  core::ga_options ga;
  ga.generations = 1;
  ga.population = static_cast<std::size_t>(state.range(0));
  core::engine_options eopt;
  eopt.threads = 12;
  for (auto _ : state) {
    core::evaluation_engine engine{ev, eopt};
    benchmark::DoNotOptimize(core::evolve(space, engine, ga));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(bm_ga_generation)->Arg(60)->Unit(benchmark::kMillisecond);

void bm_exit_simulation(benchmark::State& state) {
  const std::vector<double> acc = {58.0, 74.0, 88.0};
  for (auto _ : state)
    benchmark::DoNotOptimize(data::simulate_ideal(acc, 10000));
}
BENCHMARK(bm_exit_simulation);

void bm_importance_profile(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(nn::importance_profile{512, 1.5, 7});
}
BENCHMARK(bm_importance_profile);

/// One cold session's training cost: a default-parameter `hw_predictor`
/// (two 120-tree GBT fits) over a 4000-row benchmark dataset, in ms. Then
/// what that predictor costs per surrogate-backed `evaluator::evaluate`
/// over a fixed seeded set of decoded configurations it has never scored,
/// in us: its row memo serves only the rows those configurations share.
void emit_surrogate_costs(bench::json_reporter& json) {
  auto& f = fx();
  surrogate::benchmark_options bopt;
  bopt.samples = 4000;
  const surrogate::dataset ds = surrogate::generate_benchmark({&f.net}, f.plat, bopt);
  const auto t0 = std::chrono::steady_clock::now();
  const surrogate::hw_predictor pred{ds};
  const double fit_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  benchmark::DoNotOptimize(pred);
  std::printf("surrogate fit (4000 rows, default gbt_params): %.1f ms\n", fit_ms);
  json.metric("surrogate_fit_ms", fit_ms);

  core::evaluator_options opt;
  opt.predictor = &pred;
  const core::evaluator ev{f.net, f.plat, opt};
  const core::search_space space{f.net, f.plat};
  util::rng gen{29};
  std::vector<core::configuration> configs;
  for (int i = 0; i < 320; ++i) configs.push_back(space.decode(space.random(gen)));
  const auto t1 = std::chrono::steady_clock::now();
  for (const core::configuration& c : configs) benchmark::DoNotOptimize(ev.evaluate(c));
  const double eval_us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t1).count() /
      static_cast<double>(configs.size());
  std::printf("surrogate-backed evaluate (%zu configurations): %.1f us\n", configs.size(),
              eval_us);
  json.metric("surrogate_eval_us", eval_us);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  bench::json_reporter json{"micro_primitives"};
  emit_surrogate_costs(json);
  return 0;
}

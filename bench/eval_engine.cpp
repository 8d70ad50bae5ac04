// Evaluation-engine microbench: how much generation-loop work the memoizing
// engine saves. Runs the same GA twice at the same seed -- once through the
// memoizing engine, once with the engine in pass-through mode (every
// candidate hits the evaluator, the pre-engine behavior) -- and checks the
// two searches land on bit-identical best objectives. Also times raw
// repeated-population batches at several duplication ratios.
//
// Scale via MAPCQ_GENERATIONS / MAPCQ_POPULATION / MAPCQ_THREADS.

#include <chrono>
#include <iostream>

#include "bench_common.h"
#include "core/evolutionary.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main() {
  using namespace mapcq;
  const bench::testbed tb;
  bench::scale s = bench::scale::from_env();
  s.generations = std::max<std::size_t>(10, s.generations / 4);

  const core::search_space space{tb.visformer, tb.xavier};
  const core::evaluator eval{tb.visformer, tb.xavier, {}};

  core::ga_options ga;
  ga.generations = s.generations;
  ga.population = s.population;
  ga.threads = s.threads;

  std::cout << "=== evaluation engine: generation-loop speedup from memoization ===\n";
  std::cout << util::format("GA scale: %zu generations x %zu population, %zu threads\n\n",
                            s.generations, s.population, s.threads);

  core::engine_options memo_opt;
  memo_opt.threads = s.threads;
  core::engine_options bypass_opt = memo_opt;
  bypass_opt.memoize = false;

  auto t0 = std::chrono::steady_clock::now();
  core::evaluation_engine bypass{eval, bypass_opt};
  const auto res_bypass = core::evolve(space, bypass, ga);
  const double bypass_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  core::evaluation_engine memo{eval, memo_opt};
  const auto res_memo = core::evolve(space, memo, ga);
  const double memo_s = seconds_since(t0);

  util::table t({"engine", "wall (s)", "evaluator runs", "cache served", "best objective"});
  t.add_row({"pass-through", bench::fmt(bypass_s), std::to_string(res_bypass.cache.misses), "0",
             util::format("%.6g", res_bypass.best().objective)});
  t.add_row({"memoizing", bench::fmt(memo_s), std::to_string(res_memo.cache.misses),
             util::format("%zu (%.1f%%)", res_memo.cache.hits + res_memo.cache.dedup,
                          100.0 * res_memo.cache.hit_rate()),
             util::format("%.6g", res_memo.best().objective)});
  std::cout << t.str();

  const bool identical = res_memo.best().objective == res_bypass.best().objective &&
                         res_memo.archive.size() == res_bypass.archive.size();
  std::cout << util::format(
      "\nGA wall-clock speedup: %.2fx | evaluator-run reduction: %.2fx | results %s\n\n",
      bypass_s / memo_s,
      static_cast<double>(res_bypass.cache.misses) /
          static_cast<double>(std::max<std::size_t>(1, res_memo.cache.misses)),
      identical ? "bit-identical" : "DIVERGED (bug!)");

  bench::json_reporter json{"eval_engine"};
  json.metric("wall_s_passthrough", bypass_s);
  json.metric("wall_s_memoizing", memo_s);
  json.metric("evaluator_runs", static_cast<double>(res_memo.cache.misses));
  json.metric("cache_hit_rate", res_memo.cache.hit_rate());
  json.metric("bit_identical", identical ? 1.0 : 0.0);

  // Raw batch view: a population where a fraction of the candidates repeat
  // (the steady-state GA shape: elites + recreated offspring).
  std::cout << "--- repeated-population batches (population " << s.population << ") ---\n";
  util::table b({"duplicate share", "evaluator runs", "batch time cold (ms)", "warm (ms)"});
  util::rng gen{7};
  for (const double dup_share : {0.0, 0.25, 0.5, 0.75}) {
    std::vector<core::configuration> batch;
    batch.reserve(s.population);
    const auto distinct =
        std::max<std::size_t>(1, static_cast<std::size_t>((1.0 - dup_share) * s.population));
    for (std::size_t i = 0; i < distinct; ++i) batch.push_back(space.decode(space.random(gen)));
    for (std::size_t i = batch.size(); i < s.population; ++i) batch.push_back(batch[i % distinct]);

    core::evaluation_engine engine{eval, memo_opt};
    auto b0 = std::chrono::steady_clock::now();
    (void)engine.evaluate_batch(batch);
    const double cold_ms = 1e3 * seconds_since(b0);
    b0 = std::chrono::steady_clock::now();
    (void)engine.evaluate_batch(batch);  // steady state: everything cached
    const double warm_ms = 1e3 * seconds_since(b0);
    b.add_row({util::format("%.0f%%", 100.0 * dup_share), std::to_string(engine.stats().misses),
               bench::fmt(cold_ms), bench::fmt(warm_ms, 3)});
  }
  std::cout << b.str();

  return 0;
}

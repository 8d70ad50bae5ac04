#include "core/evolutionary.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/pareto.h"
#include "core/search_strategy.h"

namespace mapcq::core {

namespace {

/// One island slot driven by the coordinator: the strategy plus the engine
/// batch currently in flight and its pre-filter bookkeeping.
struct island {
  std::unique_ptr<search_strategy> strategy;
  island_orientation orientation = island_orientation::balanced;
  std::future<std::vector<evaluation>> pending;
  engine_stats plan_delta;  ///< engine counters attributable to the pending batch
  bool filtered = false;    ///< pending batch went through the pre-filter
  std::vector<char> kept;   ///< per-candidate: advanced to the analytic engine
  std::vector<evaluation> predicted;  ///< surrogate scores, index-aligned with candidates
};

void validate_options(const ga_options& opt, std::size_t K, const candidate_prefilter* prefilter) {
  if (opt.population < 4) throw std::invalid_argument("evolve: population too small");
  if (opt.elite_fraction <= 0.0 || opt.elite_fraction >= 1.0)
    throw std::invalid_argument("evolve: elite_fraction out of (0,1)");
  if (K > 1 && opt.population / K < 4)
    throw std::invalid_argument("evolve: population too small for island count");
  const portfolio_options& pf = opt.portfolio;
  if (pf.islands.size() > K)
    throw std::invalid_argument("evolve: more portfolio assignments than islands");
  if (!(pf.sa.initial_temperature > 0.0))
    throw std::invalid_argument("evolve: sa.initial_temperature must be > 0");
  if (!(pf.sa.cooling > 0.0) || pf.sa.cooling > 1.0)
    throw std::invalid_argument("evolve: sa.cooling out of (0,1]");
  if (pf.prefilter.enabled) {
    if (prefilter == nullptr)
      throw std::invalid_argument("evolve: prefilter enabled but no scorer provided");
    if (!(pf.prefilter.quantile > 0.0) || pf.prefilter.quantile > 1.0)
      throw std::invalid_argument("evolve: prefilter.quantile out of (0,1]");
  }
}

}  // namespace

ga_result evolve(const search_space& space, const evaluator& eval, const ga_options& opt,
                 candidate_prefilter* prefilter) {
  engine_options eopt;
  // GA hits come from the previous generation's survivors, so a few
  // populations' worth of entries captures nearly all reuse; bounding the
  // cache keeps long large-population runs at constant memory.
  eopt.capacity = std::max<std::size_t>(4096, 8 * opt.population);
  evaluation_engine engine{eval, eopt};
  return evolve(space, engine, opt, prefilter);
}

ga_result evolve(const search_space& space, evaluation_engine& engine, const ga_options& opt,
                 candidate_prefilter* prefilter) {
  const std::size_t K = std::max<std::size_t>(1, opt.island.islands);
  validate_options(opt, K, prefilter);
  const std::size_t M = std::max<std::size_t>(1, opt.island.migration_interval);
  const std::size_t G = opt.generations;
  const prefilter_options& pf = opt.portfolio.prefilter;

  const engine_stats run_start = engine.stats();
  std::size_t evictions_seen = run_start.evictions;

  // --- split the population across islands -------------------------------
  // Each strategy owns its sub-population and decorrelated RNG stream; the
  // initialization (static-seed anchor, island-0 mapping rotations, random
  // fill) lives behind make_island_strategy and is identical across
  // algorithms.
  std::vector<island> isl(K);
  for (std::size_t i = 0; i < K; ++i) {
    const std::size_t size_i = opt.population / K + (i < opt.population % K ? 1 : 0);
    isl[i].strategy = make_island_strategy(space, opt, i, size_i, K);
    isl[i].orientation = island_plan(opt, i).orientation;
  }

  ga_result result;
  result.islands = K;
  result.history.resize(G);
  // Archive index of every configuration archived so far, by content hash;
  // the archive itself holds the only copy of each configuration.
  std::unordered_multimap<std::size_t, std::size_t> archived;
  const auto archive_once = [&](const evaluation& e) {
    const std::size_t h = e.config.hash();
    const auto [lo, hi] = archived.equal_range(h);
    for (auto it = lo; it != hi; ++it)
      if (result.archive[it->second].config == e.config) return;
    archived.emplace(h, result.archive.size());
    result.archive.push_back(e);
  };

  // --- coordinator helpers -----------------------------------------------
  // Decoding stays serial: it is O(groups x stages) arithmetic per genome,
  // orders of magnitude below one evaluator run. The async submit runs the
  // cache probe inline (so plan_delta is exact: only this coordinator
  // thread bumps hit/miss/dedup/inflight counters) and enqueues the
  // distinct misses on the engine pool.
  //
  // With the pre-filter active (past its warmup), the whole proposed batch
  // is scored on the surrogate first and only the promising quantile enters
  // the analytic engine; the skipped candidates carry their predicted
  // evaluation into breeding but never into the archive or history stats.
  const auto submit = [&](island& s, std::size_t gg) {
    const std::vector<genome>& pop = s.strategy->population();
    std::vector<configuration> configs;
    configs.reserve(pop.size());
    for (const genome& p : pop) configs.push_back(space.decode(p));
    s.filtered = false;
    s.kept.clear();
    s.predicted.clear();
    if (pf.enabled && gg >= pf.warmup_generations && configs.size() > 1) {
      s.predicted = prefilter->score(configs);
      if (s.predicted.size() != configs.size())
        throw std::runtime_error("evolve: prefilter returned wrong batch size");
      std::vector<std::size_t> order(configs.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (s.predicted[a].feasible != s.predicted[b].feasible) return s.predicted[a].feasible;
        return s.predicted[a].objective < s.predicted[b].objective;
      });
      const std::size_t keep = std::min<std::size_t>(
          configs.size(), std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(
                                 pf.quantile * static_cast<double>(configs.size())))));
      s.kept.assign(configs.size(), 0);
      for (std::size_t r = 0; r < keep; ++r) s.kept[order[r]] = 1;
      std::vector<configuration> advancing;
      advancing.reserve(keep);
      for (std::size_t i = 0; i < configs.size(); ++i)
        if (s.kept[i]) advancing.push_back(std::move(configs[i]));
      s.filtered = true;
      const engine_stats before = engine.stats();
      s.pending = engine.evaluate_batch_async(std::move(advancing));
      s.plan_delta = engine.stats() - before;
      return;
    }
    const engine_stats before = engine.stats();
    s.pending = engine.evaluate_batch_async(std::move(configs));
    s.plan_delta = engine.stats() - before;
  };

  // Waits out island i's generation `gg`, folds it into history/archive and
  // returns (evaluations, ranking) for the strategy to observe.
  const auto process = [&](std::size_t i, std::size_t gg) {
    island& s = isl[i];
    std::vector<evaluation> got = s.pending.get();

    generation_stats& hist = result.history[gg];
    hist.generation = gg;
    hist.cache_hits += s.plan_delta.hits;
    hist.cache_misses += s.plan_delta.misses;
    hist.cache_dedup += s.plan_delta.dedup;
    hist.cache_inflight += s.plan_delta.inflight;
    // Evictions happen on pool threads; attribute everything observed since
    // the previous processing step to this generation (exact for K = 1).
    const std::size_t ev_now = engine.stats().evictions;
    hist.cache_evictions += ev_now - evictions_seen;
    evictions_seen = ev_now;

    // Splice skipped candidates' predicted evaluations back in so `evals`
    // stays index-aligned with the strategy's population. `analytic[c]`
    // marks the ground-truth entries; only those feed archive and stats.
    std::vector<evaluation> evals;
    std::vector<char> analytic;
    if (s.filtered) {
      evals.reserve(s.kept.size());
      std::size_t next = 0;
      for (std::size_t c = 0; c < s.kept.size(); ++c)
        evals.push_back(s.kept[c] ? got[next++] : s.predicted[c]);
      analytic.assign(s.kept.begin(), s.kept.end());
      hist.prefiltered += got.size();
      hist.prefilter_skipped += s.kept.size() - got.size();
    } else {
      evals = std::move(got);
      analytic.assign(evals.size(), 1);
    }
    result.total_evaluations += evals.size();

    std::vector<std::size_t> order = rank_candidates(evals, opt, s.orientation);

    std::size_t feasible = 0;
    double sum = 0.0;
    for (std::size_t c = 0; c < evals.size(); ++c) {
      if (!analytic[c] || !evals[c].feasible) continue;
      ++feasible;
      sum += evals[c].objective;
      archive_once(evals[c]);
    }
    if (feasible > 0) {
      // The generation's "best" is the top-ranked ground-truth entry (for an
      // unfiltered batch that is exactly order.front(), as it always was).
      double best = 0.0;
      for (const std::size_t r : order) {
        if (!analytic[r] || !evals[r].feasible) continue;
        best = evals[r].objective;
        break;
      }
      if (hist.feasible == 0 || best < hist.best_objective) hist.best_objective = best;
      hist.mean_objective += sum;  // normalized to a mean after the run
      hist.feasible += feasible;
    }
    return std::make_pair(std::move(evals), std::move(order));
  };

  // --- generation loop, in rounds between migration boundaries ------------
  // Within a round, islands are pipelined: after island i's generation is
  // ranked and observed, its next batch enters the engine pool immediately —
  // while islands i+1..K-1 of the current generation are still evaluating.
  // The serial rank/observe segments therefore hide behind evaluation
  // instead of leaving the pool idle between generations.
  //
  // The final `polish_fraction` of the budget runs merged: the union of the
  // island populations evolves as one NSGA-ranked GA population. When island
  // 0 already is a GA it absorbs the rest and its RNG stream continues
  // (bit-identity with the pre-portfolio merge); otherwise a fresh polish GA
  // takes over on the stream one past the last island's.
  const double polish = std::clamp(opt.island.polish_fraction, 0.0, 1.0);
  const std::size_t merge_start =
      K > 1 ? G - std::min(G, static_cast<std::size_t>(polish * static_cast<double>(G))) : G;
  std::size_t g = 0;
  while (g < G) {
    if (isl.size() > 1 && g >= merge_start) {
      // Deterministic merge: concatenate the island populations in ring
      // order into one polish GA.
      if (island_plan(opt, 0).algorithm == island_algorithm::ga) {
        std::vector<genome> merged;
        for (std::size_t i = 1; i < isl.size(); ++i) {
          std::vector<genome> part = isl[i].strategy->take_population();
          merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                        std::make_move_iterator(part.end()));
        }
        isl[0].strategy->absorb(std::move(merged));
      } else {
        std::vector<genome> merged = isl[0].strategy->take_population();
        for (std::size_t i = 1; i < isl.size(); ++i) {
          std::vector<genome> part = isl[i].strategy->take_population();
          merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                        std::make_move_iterator(part.end()));
        }
        isl[0].strategy = make_polish_strategy(space, opt, std::move(merged),
                                               island_seed(opt.seed, K));
      }
      isl[0].orientation = island_orientation::balanced;
      isl.resize(1);
    }
    const std::size_t n_islands = isl.size();
    const std::size_t round_end =
        n_islands > 1 ? std::min({G, merge_start, (g / M + 1) * M}) : G;
    for (island& s : isl) submit(s, g);
    for (std::size_t gg = g; gg < round_end; ++gg) {
      for (std::size_t i = 0; i < n_islands; ++i) {
        const auto [evals, order] = process(i, gg);
        if (gg + 1 == G) continue;  // final generation: rank/archive only
        const bool last_of_round = gg + 1 == round_end;
        isl[i].strategy->observe(evals, order, /*capture_outbox=*/n_islands > 1 && last_of_round);
        if (!last_of_round) submit(isl[i], gg + 1);
      }
    }
    g = round_end;

    if (g < merge_start && isl.size() > 1) {
      // Ring migration: island i receives island (i-1)'s ranked elites.
      // Deterministic: outboxes are fixed by each island's private stream
      // and the exchange order is the ring.
      const std::size_t n_isl = isl.size();
      for (std::size_t i = 0; i < n_isl; ++i)
        isl[i].strategy->immigrate(isl[(i + n_isl - 1) % n_isl].strategy->outbox());
    }
  }

  for (generation_stats& hist : result.history) {
    if (hist.feasible > 0) hist.mean_objective /= static_cast<double>(hist.feasible);
    result.prefiltered += hist.prefiltered;
    result.prefilter_skipped += hist.prefilter_skipped;
  }

  result.cache = engine.stats() - run_start;
  if (result.archive.empty())
    throw std::runtime_error("evolve: no feasible configuration found");

  // --- best + Pareto over (latency, energy, -accuracy) ----------------------
  result.best_index = 0;
  for (std::size_t i = 1; i < result.archive.size(); ++i)
    if (result.archive[i].objective < result.archive[result.best_index].objective)
      result.best_index = i;

  std::vector<std::vector<double>> points;
  points.reserve(result.archive.size());
  for (const auto& e : result.archive)
    points.push_back({e.avg_latency_ms, e.avg_energy_mj, -e.accuracy_pct});
  result.pareto = pareto_front(points);
  return result;
}

}  // namespace mapcq::core

#pragma once
// Evolutionary search engine (paper §V-C, Fig. 5): per generation, evaluate
// the population in parallel, drop constraint violators, rank the rest by
// the eq. 16 objective, keep an elite set, and refill via crossover +
// mutation of tournament-selected parents. Every feasible configuration is
// archived once; the Pareto set over (avg latency, avg energy, -accuracy)
// is extracted at the end.
//
// The population can be split into K *islands* (island_options) that evolve
// independently against one shared `evaluation_engine` through its async
// batch API, with ring-topology elite migration every few generations and a
// deterministic merge into the final archive/front. K = 1 is exactly the
// classic single-population GA — same RNG stream, same candidate order,
// bit-identical results. See docs/ARCHITECTURE.md for the data flow.

#include <cstdint>
#include <vector>

#include "core/evaluation_engine.h"
#include "core/evaluator.h"
#include "core/search_space.h"

namespace mapcq::core {

/// Parent/elite ranking scheme.
///
/// The paper ranks candidates by the scalar objective P (eq. 16) and
/// extracts a Pareto set from all generated populations at the end. Taken
/// literally, eq. 16 rewards shrinking stage costs far more than it
/// penalizes accuracy loss, so a pure-P population abandons the
/// high-accuracy region that the paper's reported Pareto fronts (Fig. 6)
/// clearly cover. Since §IV explicitly leaves P "generic and tunable", the
/// default ranking is a hybrid: non-dominated front index over
/// (avg latency, avg energy, -accuracy) first, eq. 16 within a front.
/// `objective_only` is the literal paper ranking, kept for the ablation
/// bench.
enum class selection_mode { hybrid_nsga, objective_only };

/// Island-model knobs (Risso et al. 2024 show partitioned search with
/// periodic exchange matches monolithic search at a fraction of the
/// wall-clock). The total `ga_options::population` is split evenly across
/// the islands; each island evolves on its own deterministic RNG stream and
/// submits its generations through `evaluate_batch_async`, so one island's
/// ranking/breeding overlaps the others' evaluations on the engine pool.
///
/// The non-island defaults below (migration every 2 generations, 2
/// migrants, 70% merged tail) were tuned on the Visformer/Xavier testbed at
/// 50 generations x 60 population: across paired seeds they hold the
/// merged-front hypervolume at parity with the classic single-population
/// GA (see bench/island_scaling), which shorter merged tails or rarer
/// migration do not.
struct island_options {
  /// Number of islands. 1 (or 0) = classic single-population GA, bit-
  /// identical to the pre-island implementation at equal seeds. Each island
  /// needs at least 4 members: `islands > population / 4` is rejected.
  std::size_t islands = 1;
  /// Every `migration_interval` generations the islands exchange elites
  /// around a ring (island i sends to island i+1 mod K). Clamped to >= 1.
  std::size_t migration_interval = 2;
  /// Ranked elites each island emits per migration; they overwrite the
  /// receiver's worst offspring slots. Clamped to the island size - 1.
  std::size_t migrants = 2;
  /// Fraction of the generation budget spent *after* the islands are merged
  /// back into one population (the "conquer" tail): the union of all island
  /// populations evolves monolithically, letting NSGA crowding refine the
  /// combined front. Islands explore, the merged phase exploits — without
  /// it, K islands of P/K members each converge to narrower fronts and the
  /// merged hypervolume trails the classic GA. 0 disables; ignored at K=1.
  double polish_fraction = 0.70;
};

/// Per-island search algorithm. `ga` is the elitist NSGA-hybrid GA the
/// framework has always run; `sa` is a population of simulated-annealing
/// chains (one per population slot) doing mutation-neighborhood moves with
/// Pareto-aware Metropolis acceptance under a frozen geometric temperature
/// schedule. See docs/ARCHITECTURE.md ("Search strategies").
enum class island_algorithm { ga, sa };

/// Objective orientation of an island. `balanced` ranks (and accepts) on the
/// session's `selection_mode`; `latency`/`energy` rank feasible candidates
/// by that single axis so the island camps one end of the Pareto front while
/// the others cover the rest — the portfolio's division of labor.
enum class island_orientation { balanced, latency, energy };

/// One island's portfolio slot: which algorithm it runs and which way it
/// leans. The default slot is the classic GA, so an empty portfolio is
/// bit-identical to the homogeneous island GA.
struct island_assignment {
  island_algorithm algorithm = island_algorithm::ga;
  island_orientation orientation = island_orientation::balanced;
};

/// Simulated-annealing schedule, frozen at submit time: generation g runs at
/// temperature `initial_temperature * cooling^g`, so equal seeds replay the
/// exact accept/reject sequence (run-over-run determinism).
struct sa_options {
  /// Starting temperature on the *relative* worsening scale: a move that
  /// worsens the chain's scalar by 100% is accepted with probability
  /// exp(-1/T) at T = initial_temperature. Must be > 0.
  double initial_temperature = 1.0;
  /// Geometric per-generation cooling factor in (0, 1]; 1 disables cooling.
  double cooling = 0.85;
};

/// Surrogate-guided candidate pre-filtering: score each proposed generation
/// with a cheap predictor (the session GBT in serving) and spend analytic
/// evaluator runs only on the promising quantile. Skipped candidates keep
/// their predicted evaluation for breeding/acceptance but never enter the
/// archive or the history's best/mean/feasible stats — the result's quality
/// claims stay grounded in the analytic model.
struct prefilter_options {
  bool enabled = false;
  /// Fraction of each proposed batch that advances to the analytic
  /// evaluator, ranked by predicted (feasible, objective). In (0, 1];
  /// at least one candidate always advances.
  double quantile = 0.5;
  /// Generations evaluated in full before filtering starts, so the archive
  /// (and in serving, the surrogate's training signal) seeds from ground
  /// truth. 0 filters from the first generation.
  std::size_t warmup_generations = 2;
};

/// Search-portfolio knobs: per-island algorithm/orientation assignments plus
/// the shared SA schedule and pre-filter policy. All defaults keep the
/// homogeneous GA behavior bit-identical.
struct portfolio_options {
  /// Slot i configures island i; islands beyond the list run the default
  /// (GA, balanced). More entries than islands is rejected. Empty = the
  /// homogeneous island GA, bit-identical to pre-portfolio builds.
  std::vector<island_assignment> islands;
  sa_options sa;            ///< schedule shared by every SA island
  prefilter_options prefilter;  ///< surrogate-guided evaluation gating
};

/// GA hyper-parameters. Paper defaults: 200 generations x 60 population
/// (12k evaluations); benches shrink these via CLI for quick runs.
struct ga_options {
  std::size_t generations = 200;
  std::size_t population = 60;  ///< total across all islands
  double elite_fraction = 0.25;
  double crossover_prob = 0.9;
  double ratio_mutation_prob = 0.20;    ///< per partition group
  double forward_mutation_prob = 0.15;  ///< per partition group
  double mapping_swap_prob = 0.30;      ///< per offspring
  double dvfs_mutation_prob = 0.30;     ///< per compute unit
  /// Extra elites kept for the highest dynamic accuracy (keeps the
  /// high-accuracy corner of the Pareto front alive even though eq. 16
  /// only weakly rewards accuracy).
  std::size_t accuracy_elites = 2;
  selection_mode selection = selection_mode::hybrid_nsga;
  island_options island;        ///< sharded-population search (1 island = off)
  portfolio_options portfolio;  ///< per-island algorithms + pre-filtering
  std::uint64_t seed = 1;
};

/// Convergence trace entry; with K islands each entry aggregates the K
/// sub-populations of that generation (best = min over islands, mean =
/// feasibility-weighted mean over islands).
struct generation_stats {
  std::size_t generation = 0;
  double best_objective = 0.0;
  double mean_objective = 0.0;
  std::size_t feasible = 0;
  /// Population members served from the memo cache. With K > 1 islands a
  /// candidate another island is still evaluating lands here or in
  /// `cache_inflight` depending on thread timing; their sum repeats.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;     ///< distinct evaluator runs this generation
  std::size_t cache_dedup = 0;      ///< in-generation duplicate candidates collapsed
  /// Candidates joined from a concurrent in-flight run (timing-dependent
  /// with K > 1; see `cache_hits`).
  std::size_t cache_inflight = 0;
  /// Entries dropped under capacity pressure. With K > 1, attributed to the
  /// generation whose processing window observed them.
  std::size_t cache_evictions = 0;
  /// Candidates that passed the surrogate pre-filter and were evaluated
  /// analytically this generation. 0 when filtering was off (all candidates
  /// count as regular cache traffic instead).
  std::size_t prefiltered = 0;
  /// Candidates the pre-filter skipped: bred/accepted from their predicted
  /// evaluation, never run on the analytic evaluator, never archived.
  std::size_t prefilter_skipped = 0;
};

/// Search output.
struct ga_result {
  /// Each feasible configuration the run evaluated, once, in first-seen
  /// (generation, island, candidate) order. An elite that survives several
  /// generations is archived once. The entry is the first evaluation seen:
  /// if the engine scores a configuration differently later in the run (a
  /// surrogate refresh promoted mid-run), the later score is counted in
  /// `history` but not archived.
  std::vector<evaluation> archive;
  std::vector<std::size_t> pareto;  ///< archive indices on the Pareto front, ascending
  std::size_t best_index = 0;       ///< archive index of the min-objective entry
  std::vector<generation_stats> history;
  std::size_t islands = 1;  ///< island count the search actually ran with
  /// Candidates *considered* (population x generations); the evaluator only
  /// actually ran `cache.misses` times.
  std::size_t total_evaluations = 0;
  /// Totals of the per-generation pre-filter counters: candidates evaluated
  /// analytically after filtering, and candidates skipped on the surrogate's
  /// word. Both 0 when `portfolio.prefilter.enabled` was off.
  std::size_t prefiltered = 0;
  std::size_t prefilter_skipped = 0;
  /// Evaluation-engine counters accumulated over this run (deltas, so a
  /// shared engine can serve several searches).
  engine_stats cache;

  [[nodiscard]] const evaluation& best() const { return archive.at(best_index); }
};

/// Cheap candidate scorer for `portfolio_options::prefilter`: predicts an
/// evaluation per configuration without touching the analytic evaluator.
/// In serving this wraps the session's surrogate engine (GBT-corrected
/// predictor); tests can plug in anything deterministic. `score` is called
/// from the single coordinator thread, one batch per island generation, and
/// must return exactly one evaluation per input configuration (checked).
class candidate_prefilter {
 public:
  virtual ~candidate_prefilter() = default;
  [[nodiscard]] virtual std::vector<evaluation> score(
      const std::vector<configuration>& configs) = 0;
};

/// Runs the GA with every population evaluation routed through `engine`
/// (elites and duplicate offspring become cache hits). Throws
/// std::runtime_error if no feasible configuration is ever found and
/// std::invalid_argument for unusable options (population < 4, islands that
/// would leave an island under 4 members, elite_fraction outside (0,1),
/// malformed portfolio knobs, or a pre-filter enabled without a scorer).
///
/// Blocking: runs the whole search on the calling thread (the coordinator);
/// only candidate evaluation is offloaded to the engine's pool. With K > 1
/// the coordinator pipelines islands, so the pool stays busy while
/// individual islands rank and breed.
///
/// Determinism: results depend only on (space, options); racing searches on
/// a shared engine stay deterministic because evaluation is pure. Cache
/// counters (per generation and `ga_result::cache`) are deltas of the
/// engine's global stats, so when several searches share one engine
/// concurrently they include the other searches' traffic. With K > 1
/// islands two counters also depend on thread timing: whether a candidate
/// another island is still evaluating counts as a hit or an in-flight join
/// (the sum `cache_hits + cache_inflight` does not), and which generation's
/// processing window observes an eviction. On a fresh, unbounded engine
/// `cache_misses`, `cache_dedup`, `cache_hits + cache_inflight` and
/// `cache_evictions` repeat exactly per generation, as do the archive, the
/// front and `history`'s objectives.
///
/// `prefilter` gates candidate evaluation when
/// `opt.portfolio.prefilter.enabled` (see prefilter_options); it is ignored
/// when filtering is off and required (non-null) when it is on.
[[nodiscard]] ga_result evolve(const search_space& space, evaluation_engine& engine,
                               const ga_options& opt = {},
                               candidate_prefilter* prefilter = nullptr);

/// Convenience overload: wraps `eval` in a fresh memoizing engine that
/// evaluates inline on the calling thread and holds at most
/// max(4096, 8 * population) entries, and runs the GA on it. The result is
/// the one any engine gives (see Determinism above); callers that want
/// parallel evaluation pass an engine with more threads.
[[nodiscard]] ga_result evolve(const search_space& space, const evaluator& eval,
                               const ga_options& opt = {},
                               candidate_prefilter* prefilter = nullptr);

}  // namespace mapcq::core

#include "core/search_strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "core/pareto.h"
#include "util/rng.h"

namespace mapcq::core {

namespace {

void mutate(genome& g, const search_space& space, const ga_options& opt, util::rng& gen) {
  const std::size_t stages = space.stages();
  for (std::size_t grp = 0; grp < g.ratio_levels.size(); ++grp) {
    if (gen.bernoulli(opt.ratio_mutation_prob)) {
      const auto s = static_cast<std::size_t>(
          gen.uniform_int(0, static_cast<std::int64_t>(stages) - 1));
      const int delta = gen.bernoulli(0.5) ? 1 : -1;
      const int lo = s == 0 ? 1 : 0;
      g.ratio_levels[grp][s] =
          std::clamp(g.ratio_levels[grp][s] + delta, lo, space.ratio_levels() - 1);
    }
    if (stages > 1 && gen.bernoulli(opt.forward_mutation_prob)) {
      const auto s = static_cast<std::size_t>(
          gen.uniform_int(0, static_cast<std::int64_t>(stages) - 2));
      g.forward[grp][s] = !g.forward[grp][s];
    }
  }
  if (gen.bernoulli(opt.mapping_swap_prob) && stages > 1) {
    const auto a = static_cast<std::size_t>(
        gen.uniform_int(0, static_cast<std::int64_t>(stages) - 1));
    const auto b = static_cast<std::size_t>(
        gen.uniform_int(0, static_cast<std::int64_t>(stages) - 1));
    std::swap(g.mapping[a], g.mapping[b]);
  }
  for (std::size_t u = 0; u < g.dvfs.size(); ++u) {
    if (!gen.bernoulli(opt.dvfs_mutation_prob)) continue;
    const auto levels = static_cast<std::int64_t>(space.plat().unit(u).dvfs.levels());
    const std::int64_t delta = gen.bernoulli(0.5) ? 1 : -1;
    const std::int64_t next =
        std::clamp<std::int64_t>(static_cast<std::int64_t>(g.dvfs[u]) + delta, 0, levels - 1);
    g.dvfs[u] = static_cast<std::size_t>(next);
  }
}

genome crossover(const genome& a, const genome& b, util::rng& gen) {
  genome child = a;
  for (std::size_t grp = 0; grp < child.ratio_levels.size(); ++grp) {
    if (gen.bernoulli(0.5)) {
      child.ratio_levels[grp] = b.ratio_levels[grp];
      child.forward[grp] = b.forward[grp];
    }
  }
  if (gen.bernoulli(0.5)) child.mapping = b.mapping;  // permutations swap atomically
  for (std::size_t u = 0; u < child.dvfs.size(); ++u)
    if (gen.bernoulli(0.5)) child.dvfs[u] = b.dvfs[u];
  return child;
}

/// Tournament of two among the ranked (ascending objective) survivors.
const genome& tournament(const std::vector<genome>& pool, util::rng& gen) {
  const auto n = static_cast<std::int64_t>(pool.size());
  const auto a = static_cast<std::size_t>(gen.uniform_int(0, n - 1));
  const auto b = static_cast<std::size_t>(gen.uniform_int(0, n - 1));
  return pool[std::min(a, b)];  // pool is sorted best-first
}

/// Non-dominated front index per candidate over (latency, energy, -acc);
/// infeasible candidates get a sentinel beyond every front.
std::vector<std::size_t> front_indices(const std::vector<evaluation>& evals) {
  std::vector<std::size_t> front(evals.size(), evals.size() + 1);  // infeasible sentinel
  std::vector<std::size_t> left;  // feasible candidates without a front yet
  for (std::size_t i = 0; i < evals.size(); ++i)
    if (evals[i].feasible) left.push_back(i);

  // Peel fronts: each level is the Pareto front of the candidates still
  // unassigned.
  std::vector<std::vector<double>> pts;
  std::vector<std::size_t> rest;
  for (std::size_t level = 0; !left.empty(); ++level) {
    pts.clear();
    for (const std::size_t i : left)
      pts.push_back({evals[i].avg_latency_ms, evals[i].avg_energy_mj, -evals[i].accuracy_pct});
    const std::vector<std::size_t> peel = pareto_front(pts);  // ascending
    rest.clear();
    for (std::size_t k = 0, p = 0; k < left.size(); ++k) {
      if (p < peel.size() && peel[p] == k) {
        front[left[k]] = level;
        ++p;
      } else {
        rest.push_back(left[k]);
      }
    }
    left.swap(rest);
  }
  return front;
}

/// NSGA-II crowding distance over (latency, energy, -accuracy), computed
/// within each front. Boundary candidates get +inf so the front's extreme
/// corners (cheapest, most accurate) always survive.
std::vector<double> crowding_distances(const std::vector<evaluation>& evals,
                                       const std::vector<std::size_t>& fronts) {
  std::vector<double> dist(evals.size(), 0.0);
  const auto metric = [&](std::size_t i, int axis) {
    switch (axis) {
      case 0: return evals[i].avg_latency_ms;
      case 1: return evals[i].avg_energy_mj;
      default: return -evals[i].accuracy_pct;
    }
  };

  std::map<std::size_t, std::vector<std::size_t>> by_front;
  for (std::size_t i = 0; i < evals.size(); ++i)
    if (evals[i].feasible) by_front[fronts[i]].push_back(i);

  for (auto& [level, members] : by_front) {
    if (members.size() <= 2) {
      for (const std::size_t i : members) dist[i] = std::numeric_limits<double>::infinity();
      continue;
    }
    for (int axis = 0; axis < 3; ++axis) {
      std::sort(members.begin(), members.end(),
                [&](std::size_t a, std::size_t b) { return metric(a, axis) < metric(b, axis); });
      const double lo = metric(members.front(), axis);
      const double hi = metric(members.back(), axis);
      dist[members.front()] = std::numeric_limits<double>::infinity();
      dist[members.back()] = std::numeric_limits<double>::infinity();
      if (hi <= lo) continue;
      for (std::size_t r = 1; r + 1 < members.size(); ++r)
        dist[members[r]] +=
            (metric(members[r + 1], axis) - metric(members[r - 1], axis)) / (hi - lo);
    }
  }
  return dist;
}

/// Single-axis scalarization for oriented ranking and SA acceptance.
/// Infeasible candidates score +inf on every orientation.
double scalar_of(const evaluation& e, island_orientation orientation) {
  if (!e.feasible) return std::numeric_limits<double>::infinity();
  switch (orientation) {
    case island_orientation::latency: return e.avg_latency_ms;
    case island_orientation::energy: return e.avg_energy_mj;
    default: return e.objective;
  }
}

/// The island-0 initialization the classic GA has always used: static-seed
/// anchor, mapping rotations on island 0 only, random fill from the
/// island's decorrelated stream. Shared by every strategy so portfolio
/// choice never perturbs initialization (or the RNG draw sequence).
std::vector<genome> initial_population(const search_space& space, std::size_t island,
                                       std::size_t island_size, util::rng& gen) {
  std::vector<genome> population;
  population.reserve(island_size);
  population.push_back(space.static_seed());
  if (island == 0) {
    for (std::size_t r = 1; r < space.stages() && population.size() + 1 < island_size; ++r) {
      genome rotated = population.back();
      std::rotate(rotated.mapping.begin(), rotated.mapping.begin() + 1, rotated.mapping.end());
      population.push_back(std::move(rotated));
    }
  }
  while (population.size() < island_size) population.push_back(space.random(gen));
  return population;
}

/// The classic elitist GA island: rank -> elites (+accuracy elites) ->
/// tournament crossover/mutation refill, with the multi-island survivor cap
/// lifted for single-population phases (K = 1 runs and the merged polish
/// tail) to stay bit-identical to the pre-portfolio implementation.
class ga_strategy final : public search_strategy {
 public:
  ga_strategy(const search_space& space, const ga_options& opt, std::size_t island,
              std::size_t island_size, std::size_t total_islands)
      : space_(space), opt_(opt), capped_(total_islands > 1), gen_(island_seed(opt.seed, island)) {
    population_ = initial_population(space, island, island_size, gen_);
  }

  /// Merged polish-tail variant: explicit population, uncapped survivors.
  ga_strategy(const search_space& space, const ga_options& opt, std::vector<genome> population,
              std::uint64_t seed)
      : space_(space), opt_(opt), capped_(false), gen_(seed), population_(std::move(population)) {}

  [[nodiscard]] const std::vector<genome>& population() const override { return population_; }
  [[nodiscard]] const std::vector<genome>& outbox() const override { return outbox_; }

  void observe(const std::vector<evaluation>& evals, const std::vector<std::size_t>& order,
               bool capture_outbox) override {
    const std::size_t island_pop = population_.size();
    const std::size_t n_elite = std::max<std::size_t>(
        2, static_cast<std::size_t>(opt_.elite_fraction * static_cast<double>(island_pop)));
    std::vector<genome> survivors;
    survivors.reserve(n_elite + opt_.accuracy_elites);
    for (std::size_t r = 0; r < n_elite && r < order.size(); ++r) {
      if (!evals[order[r]].feasible) break;  // never breed from violators
      survivors.push_back(population_[order[r]]);
    }
    if (opt_.accuracy_elites > 0 && !survivors.empty()) {
      // Also protect the most accurate feasible candidates of the
      // generation (see ga_options::accuracy_elites).
      std::vector<std::size_t> by_acc = order;
      std::sort(by_acc.begin(), by_acc.end(), [&](std::size_t a, std::size_t b) {
        if (evals[a].feasible != evals[b].feasible) return evals[a].feasible;
        return evals[a].accuracy_pct > evals[b].accuracy_pct;
      });
      for (std::size_t r = 0; r < opt_.accuracy_elites && r < by_acc.size(); ++r) {
        if (!evals[by_acc[r]].feasible) break;
        survivors.push_back(population_[by_acc[r]]);
      }
    }
    // Small islands must keep breeding: survivors never fill more than half
    // the sub-population (accuracy elites, appended last, are trimmed
    // first). The single-population phases — K = 1 runs and the merged
    // polish tail — keep the exact classic behavior, preserving
    // bit-identity with the pre-island implementation.
    if (capped_) {
      const std::size_t cap = std::max<std::size_t>(2, island_pop / 2);
      if (survivors.size() > cap) survivors.resize(cap);
    }

    outbox_.clear();
    if (capture_outbox) {
      const std::size_t want =
          std::min(opt_.island.migrants, island_pop > 1 ? island_pop - 1 : std::size_t{0});
      for (std::size_t r = 0; r < order.size() && outbox_.size() < want; ++r) {
        if (!evals[order[r]].feasible) break;
        outbox_.push_back(population_[order[r]]);
      }
    }

    if (survivors.empty()) {
      // No feasible candidate yet: reseed the whole island.
      for (genome& p : population_) p = space_.random(gen_);
      return;
    }

    std::vector<genome> next;
    next.reserve(island_pop);
    for (const genome& sv : survivors) next.push_back(sv);
    while (next.size() < island_pop) {
      genome child =
          gen_.bernoulli(opt_.crossover_prob)
              ? crossover(tournament(survivors, gen_), tournament(survivors, gen_), gen_)
              : tournament(survivors, gen_);
      mutate(child, space_, opt_, gen_);
      next.push_back(std::move(child));
    }
    population_ = std::move(next);
  }

  void immigrate(const std::vector<genome>& incoming) override {
    // Incoming elites replace the worst offspring slots (the tail; elites
    // sit at the front of a bred population).
    const std::size_t cap = population_.size() > 1 ? population_.size() - 1 : std::size_t{0};
    const std::size_t n = std::min(incoming.size(), cap);
    for (std::size_t j = 0; j < n; ++j) population_[population_.size() - 1 - j] = incoming[j];
  }

  [[nodiscard]] std::vector<genome> take_population() override { return std::move(population_); }

  void absorb(std::vector<genome> merged) override {
    population_.insert(population_.end(), std::make_move_iterator(merged.begin()),
                       std::make_move_iterator(merged.end()));
    capped_ = false;  // single-population phase: classic uncapped survivors
  }

 private:
  const search_space& space_;
  const ga_options opt_;
  bool capped_;
  util::rng gen_;
  std::vector<genome> population_;
  std::vector<genome> outbox_;
};

/// Simulated annealing as a population of independent Metropolis chains,
/// one per population slot. Every generation each chain proposes one
/// mutation-neighborhood move; acceptance is Pareto-aware (a dominating or
/// scalar-improving move is always taken, feasibility always beats
/// infeasibility) with Metropolis acceptance of worsening moves on the
/// relative scalar scale, under the frozen geometric schedule in
/// `sa_options`. Duplicate proposals (no-op mutations) are free engine
/// cache hits, so SA islands naturally spend fewer analytic runs per
/// generation than a breeding GA island.
class sa_strategy final : public search_strategy {
 public:
  sa_strategy(const search_space& space, const ga_options& opt, std::size_t island,
              std::size_t island_size, island_orientation orientation)
      : space_(space), opt_(opt), orientation_(orientation), gen_(island_seed(opt.seed, island)) {
    std::vector<genome> initial = initial_population(space, island, island_size, gen_);
    chains_.reserve(initial.size());
    proposals_.reserve(initial.size());
    for (genome& g : initial) {
      chains_.push_back(chain{g, evaluation{}, false});
      proposals_.push_back(std::move(g));  // generation 0 evaluates the initial state
    }
  }

  [[nodiscard]] const std::vector<genome>& population() const override { return proposals_; }
  [[nodiscard]] const std::vector<genome>& outbox() const override { return outbox_; }

  void observe(const std::vector<evaluation>& evals, const std::vector<std::size_t>& /*order*/,
               bool capture_outbox) override {
    const double temperature =
        opt_.portfolio.sa.initial_temperature *
        std::pow(opt_.portfolio.sa.cooling, static_cast<double>(step_));
    ++step_;
    for (std::size_t i = 0; i < chains_.size(); ++i) {
      if (accepts(chains_[i], evals[i], temperature)) {
        chains_[i].current = proposals_[i];
        chains_[i].eval = evals[i];
        chains_[i].has_eval = true;
      }
    }

    // Rank the chain *states* (not the proposals) for migration and for
    // picking immigration victims; unevaluated chains rank last.
    std::vector<evaluation> states(chains_.size());
    for (std::size_t i = 0; i < chains_.size(); ++i) {
      states[i] = chains_[i].eval;
      if (!chains_[i].has_eval) states[i].feasible = false;
    }
    last_order_ = rank_candidates(states, opt_, orientation_);

    outbox_.clear();
    if (capture_outbox) {
      const std::size_t want =
          std::min(opt_.island.migrants, chains_.size() > 1 ? chains_.size() - 1 : std::size_t{0});
      for (std::size_t r = 0; r < last_order_.size() && outbox_.size() < want; ++r) {
        const std::size_t s = last_order_[r];
        if (!chains_[s].has_eval || !chains_[s].eval.feasible) break;
        outbox_.push_back(chains_[s].current);
      }
    }

    for (std::size_t i = 0; i < chains_.size(); ++i) {
      proposals_[i] = chains_[i].current;
      mutate(proposals_[i], space_, opt_, gen_);
    }
  }

  void immigrate(const std::vector<genome>& incoming) override {
    // Immigrants restart the worst-ranked chains; the chain's next proposal
    // is the immigrant itself, which is then accepted unconditionally
    // (has_eval is cleared), so migration can only refresh a stale chain.
    const std::size_t n = std::min(incoming.size(),
                                   chains_.size() > 1 ? chains_.size() - 1 : std::size_t{0});
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t s = last_order_.size() == chains_.size()
                                ? last_order_[last_order_.size() - 1 - j]
                                : chains_.size() - 1 - j;
      chains_[s].current = incoming[j];
      chains_[s].has_eval = false;
      proposals_[s] = incoming[j];
    }
  }

  [[nodiscard]] std::vector<genome> take_population() override {
    std::vector<genome> out;
    out.reserve(chains_.size());
    for (chain& c : chains_) out.push_back(std::move(c.current));
    chains_.clear();
    proposals_.clear();
    return out;
  }

  void absorb(std::vector<genome> merged) override {
    for (genome& g : merged) {
      proposals_.push_back(g);
      chains_.push_back(chain{std::move(g), evaluation{}, false});
    }
  }

 private:
  struct chain {
    genome current;
    evaluation eval;
    bool has_eval = false;
  };

  [[nodiscard]] bool accepts(const chain& c, const evaluation& cand, double temperature) {
    if (!c.has_eval) return true;  // fresh or immigrant chain: adopt the state
    if (cand.feasible != c.eval.feasible) return cand.feasible;
    if (!cand.feasible) return true;  // both infeasible: random-walk toward feasibility
    const std::vector<double> cand_pt{cand.avg_latency_ms, cand.avg_energy_mj,
                                      -cand.accuracy_pct};
    const std::vector<double> cur_pt{c.eval.avg_latency_ms, c.eval.avg_energy_mj,
                                     -c.eval.accuracy_pct};
    const double next = scalar_of(cand, orientation_);
    const double cur = scalar_of(c.eval, orientation_);
    if (next <= cur || dominates(cand_pt, cur_pt)) return true;
    // Metropolis on the relative worsening, so acceptance is scale-free
    // across orientations (latency in ms vs energy in mJ vs objective).
    const double delta = (next - cur) / std::max(std::abs(cur), 1e-12);
    return gen_.bernoulli(std::exp(-delta / std::max(temperature, 1e-12)));
  }

  const search_space& space_;
  const ga_options opt_;
  island_orientation orientation_;
  util::rng gen_;
  std::size_t step_ = 0;  ///< completed generations (cooling exponent)
  std::vector<chain> chains_;
  std::vector<genome> proposals_;
  std::vector<std::size_t> last_order_;  ///< chain ranking after the last observe
  std::vector<genome> outbox_;
};

}  // namespace

std::vector<std::size_t> rank_candidates(const std::vector<evaluation>& evals,
                                         const ga_options& opt, island_orientation orientation) {
  std::vector<std::size_t> order(evals.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (orientation != island_orientation::balanced) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (evals[a].feasible != evals[b].feasible) return evals[a].feasible;
      const double sa = scalar_of(evals[a], orientation);
      const double sb = scalar_of(evals[b], orientation);
      if (sa != sb) return sa < sb;
      return evals[a].objective < evals[b].objective;
    });
  } else if (opt.selection == selection_mode::hybrid_nsga) {
    const std::vector<std::size_t> fronts = front_indices(evals);
    const std::vector<double> crowd = crowding_distances(evals, fronts);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (evals[a].feasible != evals[b].feasible) return evals[a].feasible;
      if (fronts[a] != fronts[b]) return fronts[a] < fronts[b];
      if (crowd[a] != crowd[b]) return crowd[a] > crowd[b];
      return evals[a].objective < evals[b].objective;
    });
  } else {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (evals[a].feasible != evals[b].feasible) return evals[a].feasible;
      return evals[a].objective < evals[b].objective;
    });
  }
  return order;
}

std::uint64_t island_seed(std::uint64_t seed, std::size_t island) {
  if (island == 0) return seed;
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(island);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

island_assignment island_plan(const ga_options& opt, std::size_t island) {
  if (island < opt.portfolio.islands.size()) return opt.portfolio.islands[island];
  return island_assignment{};
}

std::unique_ptr<search_strategy> make_island_strategy(const search_space& space,
                                                      const ga_options& opt, std::size_t island,
                                                      std::size_t island_size,
                                                      std::size_t total_islands) {
  const island_assignment plan = island_plan(opt, island);
  if (plan.algorithm == island_algorithm::sa)
    return std::make_unique<sa_strategy>(space, opt, island, island_size, plan.orientation);
  return std::make_unique<ga_strategy>(space, opt, island, island_size, total_islands);
}

std::unique_ptr<search_strategy> make_polish_strategy(const search_space& space,
                                                      const ga_options& opt,
                                                      std::vector<genome> population,
                                                      std::uint64_t seed) {
  return std::make_unique<ga_strategy>(space, opt, std::move(population), seed);
}

}  // namespace mapcq::core

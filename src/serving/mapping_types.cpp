#include "serving/mapping_types.h"

#include <sstream>
#include <stdexcept>

namespace mapcq::serving {

std::string request_fingerprint(const mapping_request& req) {
  // Everything that can change the produced report, spelled out field by
  // field (floats at full precision). Scheduling knobs (priority, deadline)
  // are excluded.
  std::ostringstream os;
  os.precision(17);
  const core::ga_options& g = req.ga;
  const core::evaluator_options& e = req.eval;
  os << "net=" << req.network << "|plat=" << req.platform << "|rank=" << std::hex
     << req.ranking_seed << std::dec << "|ratios=" << req.ratio_levels;
  os << "|ga=" << g.generations << "," << g.population << "," << g.elite_fraction << ","
     << g.crossover_prob << "," << g.ratio_mutation_prob << "," << g.forward_mutation_prob << ","
     << g.mapping_swap_prob << "," << g.dvfs_mutation_prob << "," << g.accuracy_elites << ","
     << static_cast<int>(g.selection) << "," << g.seed;
  os << "|isl=" << g.island.islands << "," << g.island.migration_interval << ","
     << g.island.migrants << "," << g.island.polish_fraction;
  os << "|pfl=";
  for (const core::island_assignment& a : g.portfolio.islands)
    os << static_cast<int>(a.algorithm) << ":" << static_cast<int>(a.orientation) << ";";
  os << "|sa=" << g.portfolio.sa.initial_temperature << "," << g.portfolio.sa.cooling;
  os << "|pre=" << g.portfolio.prefilter.enabled << "," << g.portfolio.prefilter.quantile << ","
     << g.portfolio.prefilter.warmup_generations;
  // The predictor pointer must key too: a foreign-predictor request is
  // rejected by map(), and must not coalesce onto a valid request's report.
  os << "|pred=" << static_cast<const void*>(e.predictor);
  os << "|eval=" << e.population << "," << e.reorder << "," << e.dynamic_exits << ","
     << e.count_idle_power << "," << e.model.enable_contention << ","
     << e.model.bandwidth_contention << "," << e.limits.latency_target_ms << ","
     << e.limits.energy_target_mj << "," << e.limits.fmap_reuse_cap;
  os << "|thermal=" << soc::thermal_key(e.thermal);
  // Co-location scenario (only when non-idle, so legacy fingerprints — and
  // the traces capturing them — stay byte-identical for idle requests).
  if (!e.contention.idle()) os << "|scen=" << soc::scenario_key(e.contention);
  os << "|surr=" << req.use_surrogate;
  // The surrogate training knobs shape the report whenever a GBT is in the
  // loop: surrogate-backed search, or analytic search behind the pre-filter.
  if (req.use_surrogate || req.ga.portfolio.prefilter.enabled) {
    const surrogate::benchmark_options& b = req.bench;
    const surrogate::gbt_params& t = req.gbt;
    os << "|bench=" << b.samples << "," << b.noise_stddev << "," << b.seed << ","
       << b.model.enable_contention << "," << b.model.bandwidth_contention;
    os << "|gbt=" << t.n_trees << "," << t.learning_rate << "," << t.subsample << "," << t.seed
       << "," << t.log_target << "," << t.tree.max_depth << "," << t.tree.min_samples_leaf << ","
       << t.tree.lambda << "," << t.tree.min_gain;
  }
  os << "|orient=" << static_cast<int>(req.orientation) << "|slack=" << req.ours_e_accuracy_slack
     << "," << req.ours_l_accuracy_slack;
  return os.str();
}

const core::evaluation& mapping_report::best() const {
  switch (orientation) {
    case objective_orientation::latency:
      return ours_latency();
    case objective_orientation::energy:
      return ours_energy();
    case objective_orientation::balanced:
      break;
  }
  if (front.empty()) throw std::out_of_range("mapping_report::best: empty front");
  std::size_t best = 0;
  for (std::size_t i = 1; i < front.size(); ++i)
    if (front[i].objective < front[best].objective) best = i;
  return front[best];
}

core::report_summary mapping_report::summary() const {
  core::report_summary s;
  s.network = network;
  s.platform = platform;
  s.ours_latency_index = ours_latency_index;
  s.ours_energy_index = ours_energy_index;
  if (scheduler) {
    core::scheduler_note note;
    note.submitted = scheduler->submitted;
    note.admitted = scheduler->admitted;
    note.coalesced = scheduler->coalesced;
    note.rejected = scheduler->rejected;
    note.expired = scheduler->expired;
    note.completed = scheduler->completed;
    note.failed = scheduler->failed;
    note.fused = scheduler->fused;
    note.fused_batches = scheduler->fused_batches;
    s.scheduler = note;
  }
  if (refresh) {
    core::refresh_note note;
    note.observed = refresh->observed;
    note.logged = refresh->logged;
    note.attempts = refresh->attempts;
    note.promotions = refresh->promotions;
    note.rejections = refresh->rejections;
    note.epoch = refresh->epoch;
    note.last_candidate_tau = refresh->last_candidate_tau;
    note.last_incumbent_tau = refresh->last_incumbent_tau;
    s.refresh = note;
  }
  s.scenario = scenario;
  s.entries.reserve(front.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    const core::evaluation& e = front[i];
    core::summary_entry entry;
    entry.label = "front-" + std::to_string(i);
    if (i == ours_latency_index) entry.label += "+ours-L";
    if (i == ours_energy_index) entry.label += "+ours-E";
    entry.config = e.config;
    entry.feasible = e.feasible;
    entry.objective = e.objective;
    entry.avg_latency_ms = e.avg_latency_ms;
    entry.avg_energy_mj = e.avg_energy_mj;
    entry.accuracy_pct = e.accuracy_pct;
    entry.fmap_reuse_pct = e.fmap_reuse_pct;
    s.entries.push_back(std::move(entry));
  }
  return s;
}

}  // namespace mapcq::serving

#include "serving/mapping_service.h"

#include <algorithm>

#include "serving/request_trace.h"
#include "serving/service_config.h"
#include "serving/session_snapshot.h"
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

namespace mapcq::serving {

namespace {

/// Ours-L / Ours-E selection (Table II): cheapest pick whose accuracy stays
/// within `slack` points of the best validated accuracy. The slack never
/// excludes everything: the max-accuracy entry always qualifies.
template <typename Metric>
std::size_t pick_within_slack(const std::vector<core::evaluation>& front, double slack,
                              Metric metric) {
  double best_acc = 0.0;
  for (const auto& e : front) best_acc = std::max(best_acc, e.accuracy_pct);
  std::size_t best = front.size();
  double best_v = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < front.size(); ++i) {
    const auto& e = front[i];
    if (e.accuracy_pct < best_acc - slack) continue;
    const double v = metric(e);
    if (v < best_v) {
      best_v = v;
      best = i;
    }
  }
  return best;
}

/// Candidate pre-filter over the session's surrogate engine: predicted
/// evaluations are memoized like any surrogate search traffic, so filter
/// scoring warms the same cache a surrogate-backed search would use.
class surrogate_prefilter final : public core::candidate_prefilter {
 public:
  explicit surrogate_prefilter(core::evaluation_engine& engine) : engine_(engine) {}
  [[nodiscard]] std::vector<core::evaluation> score(
      const std::vector<core::configuration>& configs) override {
    return engine_.evaluate_batch(configs);
  }

 private:
  core::evaluation_engine& engine_;
};

}  // namespace

mapping_service::mapping_service(service_options opt)
    : opt_(opt), predictors_(std::make_shared<predictor_pool>()) {
  if (opt_.engine.threads == 0)
    opt_.engine.threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (opt_.workers == 0) throw std::invalid_argument("mapping_service: workers must be at least 1");
}

void mapping_service::register_network(const nn::network& net) {
  if (net.name.empty())
    throw std::invalid_argument("mapping_service: cannot register a nameless network");
  const std::lock_guard<std::mutex> lock{mu_};
  networks_[net.name] = std::make_shared<const nn::network>(net);
  ++network_generations_[net.name];
}

void mapping_service::register_platform(const soc::platform& plat) {
  if (plat.name.empty())
    throw std::invalid_argument("mapping_service: cannot register a nameless platform");
  const std::lock_guard<std::mutex> lock{mu_};
  platforms_[plat.name] = std::make_shared<const soc::platform>(plat);
  ++platform_generations_[plat.name];
  if (default_platform_.empty()) default_platform_ = plat.name;
}

std::string mapping_service::session_key(const mapping_request& req,
                                         const std::string& platform_name,
                                         std::uint64_t network_generation,
                                         std::uint64_t platform_generation) const {
  // Every knob that changes what an evaluator computes takes part in the
  // key; GA and surrogate-training knobs do not (GA budgets are
  // per-request, the surrogate is locked in by the session's first trainer).
  // Registration generations ensure a re-registered network/platform stops
  // matching sessions built against the previous snapshot.
  std::ostringstream os;
  os.precision(17);
  const core::evaluator_options& e = req.eval;
  os << "net=" << req.network << "@" << network_generation << "|plat=" << platform_name << "@"
     << platform_generation << "|rank=" << std::hex << req.ranking_seed << std::dec
     << "|ratios=" << req.ratio_levels << "|pop=" << e.population
     << "|reorder=" << e.reorder << "|exits=" << e.dynamic_exits << "|idle=" << e.count_idle_power
     << "|contention=" << e.model.enable_contention << ":" << e.model.bandwidth_contention
     << "|lat=" << e.limits.latency_target_ms << "|en=" << e.limits.energy_target_mj
     << "|reuse=" << e.limits.fmap_reuse_cap;
  os << "|thermal=";
  if (e.thermal) {
    os << e.thermal->ambient_c << "," << e.thermal->r_thermal_c_per_w << "," << e.thermal->tau_s
       << "," << e.thermal->throttle_c;
  } else {
    os << "none";
  }
  // Co-location scenario: every field of the contention context changes the
  // evaluator, so it all keys. Appended only when non-idle, keeping idle
  // keys — and the snapshot filenames hashed from them — byte-identical to
  // pre-co-location deployments (warm restores keep working across the
  // upgrade).
  if (!e.contention.idle()) os << "|scen=" << soc::scenario_key(e.contention);
  return os.str();
}

void mapping_service::spill_session_locked(const std::shared_ptr<mapping_session>& session) {
  if (!opt_.snapshot.spill_on_evict || opt_.snapshot.directory.empty()) return;
  try {
    save_snapshot(opt_.snapshot.directory + "/" + snapshot_filename(session->key()),
                  session->snapshot());
    ++sessions_spilled_;
  } catch (...) {
    // Spilling is best-effort: the eviction itself must never fail on a
    // full disk or an unwritable directory.
    ++spill_failures_;
  }
}

void mapping_service::maybe_restore_locked(const std::string& key, mapping_session& session) {
  if (!opt_.snapshot.restore_on_miss || opt_.snapshot.directory.empty()) return;
  const std::string path = opt_.snapshot.directory + "/" + snapshot_filename(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return;
  try {
    session.restore(load_snapshot(path));
    ++sessions_restored_;
  } catch (...) {
    // A corrupt, truncated or key-mismatched snapshot (hash collision)
    // must never fail the request: the fresh session simply starts cold.
    ++restore_failures_;
  }
}

void mapping_service::prune_expired_locked(std::chrono::steady_clock::time_point now) {
  if (opt_.session_ttl.count() <= 0) return;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    // A session referenced outside the registry is serving a request right
    // now — it is not idle, whatever its stamp says (the stamp only
    // refreshes when a request resolves or completes). Skipping it keeps
    // the "a long search cannot expire its own session" guarantee against
    // concurrent pruners as well.
    const bool busy = it->second.session.use_count() > 1;
    if (!busy && now - it->second.last_used > opt_.session_ttl) {
      spill_session_locked(it->second.session);
      it = sessions_.erase(it);
      ++sessions_evicted_;
    } else {
      ++it;
    }
  }
}

void mapping_service::enforce_capacity_locked(const std::string& keep) {
  if (opt_.max_sessions == 0) return;
  while (sessions_.size() > opt_.max_sessions) {
    // LRU victim, preferring sessions no request currently holds; if every
    // other session is busy the cap still wins (holders keep theirs alive
    // via their shared_ptr, only the registry entry is dropped).
    auto victim = sessions_.end();
    bool victim_busy = true;
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->first == keep) continue;  // never evict the session being handed out
      const bool busy = it->second.session.use_count() > 1;
      const bool better = victim == sessions_.end() || (victim_busy && !busy) ||
                          (victim_busy == busy && it->second.last_used < victim->second.last_used);
      if (better) {
        victim = it;
        victim_busy = busy;
      }
    }
    if (victim == sessions_.end()) return;  // only `keep` remains
    spill_session_locked(victim->second.session);
    sessions_.erase(victim);
    ++sessions_evicted_;
  }
}

std::shared_ptr<mapping_session> mapping_service::session_for(const mapping_request& req) {
  if (req.eval.predictor != nullptr)
    throw std::invalid_argument(
        "mapping_service: request.eval.predictor must be null (sessions own their predictors)");
  const std::lock_guard<std::mutex> lock{mu_};
  const auto net_it = networks_.find(req.network);
  if (net_it == networks_.end())
    throw std::invalid_argument("mapping_service: unregistered network '" + req.network + "'");
  const std::string plat_name = req.platform.empty() ? default_platform_ : req.platform;
  const auto plat_it = platforms_.find(plat_name);
  if (plat_it == platforms_.end())
    throw std::invalid_argument("mapping_service: unregistered platform '" + plat_name + "'");

  const std::string key =
      session_key(req, plat_name, network_generations_.at(req.network),
                  platform_generations_.at(plat_name));
  const auto now = std::chrono::steady_clock::now();
  prune_expired_locked(now);
  const auto it = sessions_.find(key);
  if (it != sessions_.end()) {
    it->second.last_used = now;
    return it->second.session;
  }
  auto session = std::make_shared<mapping_session>(key, net_it->second, plat_it->second, req.eval,
                                                   req.ratio_levels, req.ranking_seed, opt_.engine,
                                                   predictors_, opt_.refresh);
  maybe_restore_locked(key, *session);
  sessions_.emplace(key, session_entry{session, now});
  enforce_capacity_locked(key);
  return session;
}

mapping_report mapping_service::map(const mapping_request& req) {
  // Surrogate-guided pre-filtering gates an *analytic* search: scoring a
  // surrogate-backed search with the same surrogate would filter nothing.
  // Rejected before any session exists, so the doomed request neither fits
  // a surrogate nor locks a session's training knobs.
  if (req.ga.portfolio.prefilter.enabled && req.use_surrogate)
    throw std::invalid_argument(
        "mapping_service: ga.portfolio.prefilter requires an analytic search "
        "(set use_surrogate = false)");
  const std::shared_ptr<mapping_session> session = session_for(req);

  mapping_report rep;
  rep.network = req.network;
  rep.platform = session->plat().name;
  rep.session_key = session->key();
  rep.orientation = req.orientation;
  // The exact config this report was produced under: the (normalized)
  // service options plus the request's GA knobs. Compact form — one line
  // inside the report, still parse_config-able.
  // Deliberately the default group: reports must stay bit-identical no
  // matter which shard topology served them.
  rep.effective_config = dump_config(service_config{opt_, {}, req.ga, req.eval.contention}, 0);

  // Stamp the co-location scenario the evaluator scored under (non-idle
  // contexts only: idle reports stay byte-identical to legacy ones).
  const soc::contention_context& scen = req.eval.contention;
  if (!scen.idle()) {
    core::scenario_note note;
    note.residents = scen.residents.size();
    for (const soc::resident_load& r : scen.residents) {
      note.reserved_units += r.reserved_units.size();
      note.resident_interconnect_gbps += r.interconnect_gbps;
      note.resident_dram_gbps += r.dram_gbps;
      note.resident_power_w += r.power_w;
    }
    const soc::platform& plat = session->plat();
    for (std::size_t u = 0; u < scen.dvfs_cap.size() && u < plat.size(); ++u)
      if (scen.dvfs_cap[u] < plat.unit(u).dvfs.max_level()) ++note.dvfs_capped_units;
    if (scen.thermal) {
      note.ambient_c = scen.thermal->ambient_c;
      note.throttle_c = scen.thermal->throttle_c;
    }
    rep.scenario = note;
  }

  // --- search, on the session engine matching the requested predictor -----
  core::evaluation_engine* search_engine = &session->analytic_engine();
  if (req.use_surrogate) {
    bool trained_now = false;
    search_engine = &session->surrogate_engine(req.bench, req.gbt, &trained_now);
    rep.trained_surrogate = trained_now;
    rep.surrogate_fidelity = session->surrogate_fidelity();
  }
  std::unique_ptr<surrogate_prefilter> prefilter;
  if (req.ga.portfolio.prefilter.enabled) {
    bool trained_now = false;
    prefilter = std::make_unique<surrogate_prefilter>(
        session->surrogate_engine(req.bench, req.gbt, &trained_now));
    rep.trained_surrogate = trained_now;
    rep.surrogate_fidelity = session->surrogate_fidelity();
  }
  rep.search = core::evolve(session->space(), *search_engine, req.ga, prefilter.get());
  rep.search_cache = rep.search.cache;

  // --- validate the Pareto picks on the analytic model --------------------
  // Always through the session's analytic engine: after an analytic search
  // these are pure cross-phase hits, and across requests each distinct pick
  // costs at most one analytic evaluation per session lifetime.
  core::evaluation_engine& validator = session->analytic_engine();
  const core::engine_stats validation_start = validator.stats();
  std::vector<core::configuration> picks;
  picks.reserve(rep.search.pareto.size());
  for (const std::size_t idx : rep.search.pareto) picks.push_back(rep.search.archive[idx].config);
  rep.front = validator.evaluate_batch(picks);
  rep.validation_cache = validator.stats() - validation_start;
  if (rep.front.empty()) throw std::runtime_error("mapping_service: empty Pareto set");
  // Snapshot after validation so the report sees any refresh the request's
  // own ground-truth traffic just triggered (nullopt unless the session
  // runs a pipeline).
  rep.refresh = session->refresh_stats();

  rep.ours_energy_index = pick_within_slack(
      rep.front, req.ours_e_accuracy_slack,
      [](const core::evaluation& e) { return e.avg_energy_mj; });
  rep.ours_latency_index = pick_within_slack(
      rep.front, req.ours_l_accuracy_slack,
      [](const core::evaluation& e) { return e.avg_latency_ms; });
  // A completed request counts as a use: a search longer than the TTL must
  // not expire the session it just warmed.
  touch_session(session->key());
  return rep;
}

void mapping_service::touch_session(const std::string& key) {
  const std::lock_guard<std::mutex> lock{mu_};
  const auto it = sessions_.find(key);
  if (it != sessions_.end()) it->second.last_used = std::chrono::steady_clock::now();
}

std::string mapping_service::fairness_lane(const mapping_request& req) const {
  const std::lock_guard<std::mutex> lock{mu_};
  const std::string plat_name =
      req.platform.empty() && !default_platform_.empty() ? default_platform_ : req.platform;
  const auto ngen = network_generations_.find(req.network);
  const auto pgen = platform_generations_.find(plat_name);
  return session_key(req, plat_name, ngen == network_generations_.end() ? 0 : ngen->second,
                     pgen == platform_generations_.end() ? 0 : pgen->second);
}

request_scheduler& mapping_service::ensure_scheduler() {
  const std::lock_guard<std::mutex> lock{mu_};
  if (!scheduler_)
    scheduler_ = std::make_unique<request_scheduler>(
        opt_.scheduler, opt_.workers, [this](const mapping_request& r) { return map(r); });
  return *scheduler_;
}

std::shared_future<mapping_report> mapping_service::submit(mapping_request req) {
  request_scheduler& sched = ensure_scheduler();
  // The fairness lane is the session key the request resolves to (computed
  // leniently so a doomed request still gets queued and fails in map(),
  // surfacing its error at future::get() like any other execution error).
  // Lane + fingerprint also form the coalescing identity: identical
  // requests share one execution while one is queued or in flight.
  const std::string lane = fairness_lane(req);
  const std::string fingerprint = request_fingerprint(req);
  // Tap before admission so the capture sees every submit, including ones
  // the scheduler will coalesce or reject — a replay must reproduce the
  // offered load, not the admitted subset.
  std::shared_ptr<trace_log> tap;
  {
    const std::lock_guard<std::mutex> lock{mu_};
    tap = trace_;
  }
  if (tap) tap->record(lane, fingerprint, req.priority, req.deadline);
  return sched.submit(lane, fingerprint, std::move(req));
}

void mapping_service::capture_trace(std::shared_ptr<trace_log> log) {
  const std::lock_guard<std::mutex> lock{mu_};
  trace_ = std::move(log);
}

void mapping_service::pause_scheduler() { ensure_scheduler().pause(); }

void mapping_service::resume_scheduler() { ensure_scheduler().resume(); }

scheduler_stats mapping_service::scheduler() const {
  {
    const std::lock_guard<std::mutex> lock{mu_};
    if (!scheduler_) return {};
  }
  return scheduler_->stats();
}

std::size_t mapping_service::session_count() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return sessions_.size();
}

std::vector<std::string> mapping_service::session_keys() const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::vector<std::string> keys;
  keys.reserve(sessions_.size());
  for (const auto& [key, entry] : sessions_) keys.push_back(key);
  return keys;
}

std::size_t mapping_service::sessions_evicted() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return sessions_evicted_;
}

std::vector<std::shared_ptr<mapping_session>> mapping_service::live_sessions() const {
  const std::lock_guard<std::mutex> lock{mu_};
  std::vector<std::shared_ptr<mapping_session>> live;
  live.reserve(sessions_.size());
  for (const auto& [key, entry] : sessions_) live.push_back(entry.session);
  return live;
}

std::size_t mapping_service::spill_sessions() {
  if (opt_.snapshot.directory.empty()) return 0;
  // Snapshot outside `mu_`: a snapshot drains the session's refresh worker,
  // and the registry must stay responsive to concurrent traffic while that
  // happens.
  std::size_t spilled = 0;
  std::size_t failed = 0;
  for (const auto& session : live_sessions()) {
    try {
      save_snapshot(opt_.snapshot.directory + "/" + snapshot_filename(session->key()),
                    session->snapshot());
      ++spilled;
    } catch (...) {
      ++failed;
    }
  }
  const std::lock_guard<std::mutex> lock{mu_};
  sessions_spilled_ += spilled;
  spill_failures_ += failed;
  return spilled;
}

std::size_t mapping_service::sessions_spilled() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return sessions_spilled_;
}

std::size_t mapping_service::spill_failures() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return spill_failures_;
}

std::size_t mapping_service::sessions_restored() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return sessions_restored_;
}

std::size_t mapping_service::restore_failures() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return restore_failures_;
}

core::engine_stats mapping_service::engine_totals() const {
  // Read the counters outside `mu_`: a session's surrogate counters wait
  // while its surrogate is fitted, and that must not stall the registry.
  core::engine_stats total;
  for (const auto& session : live_sessions()) {
    for (const core::engine_stats s :
         {session->analytic_cache_stats(), session->surrogate_cache_stats()}) {
      total.hits += s.hits;
      total.misses += s.misses;
      total.dedup += s.dedup;
      total.inflight += s.inflight;
      total.evictions += s.evictions;
      total.invalidated += s.invalidated;
      total.cache_bytes += s.cache_bytes;
    }
  }
  return total;
}

}  // namespace mapcq::serving

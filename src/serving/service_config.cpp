#include "serving/service_config.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

namespace mapcq::serving {

namespace {

using util::json::value;

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  throw config_error(path, message);
}

std::string join(const std::string& path, std::string_view key) {
  return path.empty() ? std::string(key) : path + "." + std::string(key);
}

/// Tracks which members of a JSON object a from_json body consumed, so
/// finish() can reject the leftovers (typo'd keys) by path.
class object_reader {
 public:
  object_reader(const value& v, std::string path) : path_(std::move(path)) {
    if (!v.is_object()) fail(path_.empty() ? "<config>" : path_, "expected a JSON object");
    obj_ = &v.as_object();
    consumed_.assign(obj_->size(), false);
  }

  [[nodiscard]] std::string member_path(std::string_view key) const { return join(path_, key); }

  /// The member named `key`, marked consumed; null when absent.
  const value* take(std::string_view key) {
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      if ((*obj_)[i].first == key) {
        consumed_[i] = true;
        return &(*obj_)[i].second;
      }
    }
    return nullptr;
  }

  void get(std::string_view key, bool& out) {
    if (const value* v = take(key)) {
      if (!v->is_bool()) fail(member_path(key), "expected a boolean");
      out = v->as_bool();
    }
  }

  void get(std::string_view key, double& out) {
    if (const value* v = take(key)) {
      if (!v->is_number()) fail(member_path(key), "expected a number");
      out = v->as_number();
    }
  }

  void get(std::string_view key, std::string& out) {
    if (const value* v = take(key)) {
      if (!v->is_string()) fail(member_path(key), "expected a string");
      out = v->as_string();
    }
  }

  template <class UInt>
  void get_uint(std::string_view key, UInt& out) {
    if (const value* v = take(key)) {
      if (!v->is_number()) fail(member_path(key), "expected a non-negative integer");
      const double d = v->as_number();
      constexpr double exact = 9007199254740992.0;  // 2^53
      if (d < 0.0 || d != std::floor(d) || d > exact)
        fail(member_path(key), "expected a non-negative integer");
      out = static_cast<UInt>(d);
    }
  }

  void get_ms(std::string_view key, std::chrono::milliseconds& out) {
    std::uint64_t ms = static_cast<std::uint64_t>(out.count());
    get_uint(key, ms);
    out = std::chrono::milliseconds(ms);
  }

  template <class Enum, std::size_t N>
  void get_enum(std::string_view key, Enum& out, const std::pair<const char*, Enum> (&names)[N]) {
    if (const value* v = take(key)) {
      if (!v->is_string()) fail(member_path(key), "expected a string");
      for (const auto& [name, val] : names) {
        if (v->as_string() == name) {
          out = val;
          return;
        }
      }
      std::string expected;
      for (const auto& [name, val] : names) {
        if (!expected.empty()) expected += " | ";
        expected += '"';
        expected += name;
        expected += '"';
      }
      fail(member_path(key),
           "unknown value \"" + v->as_string() + "\" (expected " + expected + ")");
    }
  }

  /// Every key not consumed by a get above is a typo — reject by path.
  void finish() const {
    for (std::size_t i = 0; i < obj_->size(); ++i)
      if (!consumed_[i]) fail(member_path((*obj_)[i].first), "unknown key");
  }

 private:
  const util::json::object* obj_ = nullptr;
  std::string path_;
  std::vector<bool> consumed_;
};

constexpr std::pair<const char*, admission_policy> policy_names[] = {
    {"block", admission_policy::block},
    {"reject", admission_policy::reject},
};
constexpr std::pair<const char*, core::selection_mode> selection_names[] = {
    {"hybrid_nsga", core::selection_mode::hybrid_nsga},
    {"objective_only", core::selection_mode::objective_only},
};
constexpr std::pair<const char*, core::island_algorithm> algorithm_names[] = {
    {"ga", core::island_algorithm::ga},
    {"sa", core::island_algorithm::sa},
};
constexpr std::pair<const char*, core::island_orientation> orientation_names[] = {
    {"balanced", core::island_orientation::balanced},
    {"latency", core::island_orientation::latency},
    {"energy", core::island_orientation::energy},
};

template <class Enum, std::size_t N>
const char* enum_to_string(Enum e, const std::pair<const char*, Enum> (&names)[N]) {
  for (const auto& [name, val] : names)
    if (val == e) return name;
  return "?";
}

/// Shared by from_json(service_options) and from_json(service_config): the
/// latter reads the same members at the top level, plus a "ga" block.
void read_service_fields(object_reader& r, service_options& out) {
  r.get_uint("workers", out.workers);
  r.get_uint("max_sessions", out.max_sessions);
  r.get_ms("session_ttl_ms", out.session_ttl);
  if (const value* v = r.take("engine")) from_json(*v, out.engine, r.member_path("engine"));
  if (const value* v = r.take("scheduler"))
    from_json(*v, out.scheduler, r.member_path("scheduler"));
  if (const value* v = r.take("refresh")) from_json(*v, out.refresh, r.member_path("refresh"));
  if (const value* v = r.take("snapshot")) from_json(*v, out.snapshot, r.member_path("snapshot"));
}

/// Service fields in declaration order; service_config appends "ga".
void push_service_fields(value& obj, const service_options& opt) {
  obj.push_member("workers", opt.workers);
  obj.push_member("max_sessions", opt.max_sessions);
  obj.push_member("session_ttl_ms", static_cast<std::uint64_t>(opt.session_ttl.count()));
  obj.push_member("engine", to_json(opt.engine));
  obj.push_member("scheduler", to_json(opt.scheduler));
  obj.push_member("refresh", to_json(opt.refresh));
  obj.push_member("snapshot", to_json(opt.snapshot));
}

void check_fraction_open(double v, const std::string& path) {
  if (!(v > 0.0 && v < 1.0)) fail(path, "must be strictly between 0 and 1");
}

void check_probability(double v, const std::string& path) {
  if (!(v >= 0.0 && v <= 1.0)) fail(path, "must be between 0 and 1");
}

}  // namespace

config_error::config_error(std::string path, const std::string& message)
    : std::runtime_error("config error at " + (path.empty() ? std::string("<config>") : path) +
                         ": " + message),
      path_(std::move(path)) {}

// ---------------------------------------------------------------- engine --

value to_json(const core::engine_options& opt) {
  value obj{util::json::object{}};
  obj.push_member("shards", opt.shards);
  obj.push_member("capacity", opt.capacity);
  obj.push_member("threads", opt.threads);
  obj.push_member("memoize", opt.memoize);
  obj.push_member("soa_batch", opt.soa_batch);
  return obj;
}

void from_json(const value& v, core::engine_options& out, const std::string& path) {
  object_reader r{v, path};
  r.get_uint("shards", out.shards);
  r.get_uint("capacity", out.capacity);
  r.get_uint("threads", out.threads);
  r.get("memoize", out.memoize);
  r.get("soa_batch", out.soa_batch);
  r.finish();
  validate(out, path);
}

void validate(const core::engine_options& opt, const std::string& path) {
  if (opt.shards == 0) fail(join(path, "shards"), "must be at least 1");
}

// -------------------------------------------------------------------- ga --

value to_json(const core::ga_options& opt) {
  value obj{util::json::object{}};
  obj.push_member("generations", opt.generations);
  obj.push_member("population", opt.population);
  obj.push_member("elite_fraction", opt.elite_fraction);
  obj.push_member("crossover_prob", opt.crossover_prob);
  obj.push_member("ratio_mutation_prob", opt.ratio_mutation_prob);
  obj.push_member("forward_mutation_prob", opt.forward_mutation_prob);
  obj.push_member("mapping_swap_prob", opt.mapping_swap_prob);
  obj.push_member("dvfs_mutation_prob", opt.dvfs_mutation_prob);
  obj.push_member("accuracy_elites", opt.accuracy_elites);
  obj.push_member("selection", enum_to_string(opt.selection, selection_names));
  value island{util::json::object{}};
  island.push_member("islands", opt.island.islands);
  island.push_member("migration_interval", opt.island.migration_interval);
  island.push_member("migrants", opt.island.migrants);
  island.push_member("polish_fraction", opt.island.polish_fraction);
  obj.push_member("island", std::move(island));
  value portfolio{util::json::object{}};
  util::json::array assignments;
  for (const core::island_assignment& a : opt.portfolio.islands) {
    value slot{util::json::object{}};
    slot.push_member("algorithm", enum_to_string(a.algorithm, algorithm_names));
    slot.push_member("orientation", enum_to_string(a.orientation, orientation_names));
    assignments.push_back(std::move(slot));
  }
  portfolio.push_member("islands", value{std::move(assignments)});
  value sa{util::json::object{}};
  sa.push_member("initial_temperature", opt.portfolio.sa.initial_temperature);
  sa.push_member("cooling", opt.portfolio.sa.cooling);
  portfolio.push_member("sa", std::move(sa));
  value prefilter{util::json::object{}};
  prefilter.push_member("enabled", opt.portfolio.prefilter.enabled);
  prefilter.push_member("quantile", opt.portfolio.prefilter.quantile);
  prefilter.push_member("warmup_generations", opt.portfolio.prefilter.warmup_generations);
  portfolio.push_member("prefilter", std::move(prefilter));
  obj.push_member("portfolio", std::move(portfolio));
  obj.push_member("seed", opt.seed);
  obj.push_member("threads", opt.threads);
  return obj;
}

void from_json(const value& v, core::ga_options& out, const std::string& path) {
  object_reader r{v, path};
  r.get_uint("generations", out.generations);
  r.get_uint("population", out.population);
  r.get("elite_fraction", out.elite_fraction);
  r.get("crossover_prob", out.crossover_prob);
  r.get("ratio_mutation_prob", out.ratio_mutation_prob);
  r.get("forward_mutation_prob", out.forward_mutation_prob);
  r.get("mapping_swap_prob", out.mapping_swap_prob);
  r.get("dvfs_mutation_prob", out.dvfs_mutation_prob);
  r.get_uint("accuracy_elites", out.accuracy_elites);
  r.get_enum("selection", out.selection, selection_names);
  if (const value* isl = r.take("island")) {
    object_reader ri{*isl, r.member_path("island")};
    ri.get_uint("islands", out.island.islands);
    ri.get_uint("migration_interval", out.island.migration_interval);
    ri.get_uint("migrants", out.island.migrants);
    ri.get("polish_fraction", out.island.polish_fraction);
    ri.finish();
  }
  if (const value* pf = r.take("portfolio")) {
    object_reader rp{*pf, r.member_path("portfolio")};
    if (const value* isl = rp.take("islands")) {
      const std::string ipath = rp.member_path("islands");
      if (!isl->is_array()) fail(ipath, "expected an array of island assignments");
      out.portfolio.islands.clear();
      for (std::size_t i = 0; i < isl->as_array().size(); ++i) {
        const std::string spath = ipath + "[" + std::to_string(i) + "]";
        object_reader rs{isl->as_array()[i], spath};
        core::island_assignment slot;
        rs.get_enum("algorithm", slot.algorithm, algorithm_names);
        rs.get_enum("orientation", slot.orientation, orientation_names);
        rs.finish();
        out.portfolio.islands.push_back(slot);
      }
    }
    if (const value* sa = rp.take("sa")) {
      object_reader rs{*sa, rp.member_path("sa")};
      rs.get("initial_temperature", out.portfolio.sa.initial_temperature);
      rs.get("cooling", out.portfolio.sa.cooling);
      rs.finish();
    }
    if (const value* pre = rp.take("prefilter")) {
      object_reader rf{*pre, rp.member_path("prefilter")};
      rf.get("enabled", out.portfolio.prefilter.enabled);
      rf.get("quantile", out.portfolio.prefilter.quantile);
      rf.get_uint("warmup_generations", out.portfolio.prefilter.warmup_generations);
      rf.finish();
    }
    rp.finish();
  }
  r.get_uint("seed", out.seed);
  r.get_uint("threads", out.threads);
  r.finish();
  validate(out, path);
}

void validate(const core::ga_options& opt, const std::string& path) {
  if (opt.generations == 0) fail(join(path, "generations"), "must be at least 1");
  if (opt.population < 4) fail(join(path, "population"), "must be at least 4");
  check_fraction_open(opt.elite_fraction, join(path, "elite_fraction"));
  check_probability(opt.crossover_prob, join(path, "crossover_prob"));
  check_probability(opt.ratio_mutation_prob, join(path, "ratio_mutation_prob"));
  check_probability(opt.forward_mutation_prob, join(path, "forward_mutation_prob"));
  check_probability(opt.mapping_swap_prob, join(path, "mapping_swap_prob"));
  check_probability(opt.dvfs_mutation_prob, join(path, "dvfs_mutation_prob"));
  if (opt.island.islands > 0 && opt.island.islands * 4 > opt.population)
    fail(join(path, "island.islands"),
         "would leave an island under 4 members (islands * 4 must not exceed population)");
  check_probability(opt.island.polish_fraction, join(path, "island.polish_fraction"));
  const std::size_t islands = std::max<std::size_t>(1, opt.island.islands);
  if (opt.portfolio.islands.size() > islands)
    fail(join(path, "portfolio.islands"),
         "has more assignments (" + std::to_string(opt.portfolio.islands.size()) +
             ") than ga.island.islands (" + std::to_string(islands) + ")");
  if (!(opt.portfolio.sa.initial_temperature > 0.0))
    fail(join(path, "portfolio.sa.initial_temperature"), "must be greater than 0");
  if (!(opt.portfolio.sa.cooling > 0.0) || opt.portfolio.sa.cooling > 1.0)
    fail(join(path, "portfolio.sa.cooling"), "must be in (0, 1]");
  if (!(opt.portfolio.prefilter.quantile > 0.0) || opt.portfolio.prefilter.quantile > 1.0)
    fail(join(path, "portfolio.prefilter.quantile"), "must be in (0, 1]");
}

// ------------------------------------------------------------- scheduler --

value to_json(const scheduler_options& opt) {
  value obj{util::json::object{}};
  obj.push_member("max_queued", opt.max_queued);
  obj.push_member("max_inflight_per_session", opt.max_inflight_per_session);
  obj.push_member("max_fused", opt.max_fused);
  obj.push_member("policy", enum_to_string(opt.policy, policy_names));
  obj.push_member("coalesce", opt.coalesce);
  obj.push_member("default_weight", opt.default_weight);
  // weights live in an unordered_map: emit sorted so dumps stay
  // deterministic (equal configs => byte-identical text).
  std::vector<std::pair<std::string, std::size_t>> sorted{opt.weights.begin(), opt.weights.end()};
  std::sort(sorted.begin(), sorted.end());
  value weights{util::json::object{}};
  for (auto& [lane, w] : sorted) weights.push_member(lane, w);
  obj.push_member("weights", std::move(weights));
  return obj;
}

void from_json(const value& v, scheduler_options& out, const std::string& path) {
  object_reader r{v, path};
  r.get_uint("max_queued", out.max_queued);
  r.get_uint("max_inflight_per_session", out.max_inflight_per_session);
  r.get_uint("max_fused", out.max_fused);
  r.get_enum("policy", out.policy, policy_names);
  r.get("coalesce", out.coalesce);
  r.get_uint("default_weight", out.default_weight);
  if (const value* w = r.take("weights")) {
    const std::string wpath = r.member_path("weights");
    if (!w->is_object()) fail(wpath, "expected an object of session-key -> weight");
    out.weights.clear();
    for (const auto& [lane, weight] : w->as_object()) {
      const std::string lpath = join(wpath, lane);
      if (!weight.is_number() || weight.as_number() != std::floor(weight.as_number()) ||
          weight.as_number() < 0.0)
        fail(lpath, "expected a non-negative integer");
      out.weights[lane] = static_cast<std::size_t>(weight.as_number());
    }
  }
  r.finish();
  validate(out, path);
}

void validate(const scheduler_options& opt, const std::string& path) {
  if (opt.default_weight == 0) fail(join(path, "default_weight"), "must be at least 1");
  for (const auto& [lane, weight] : opt.weights)
    if (weight == 0) fail(join(path, "weights." + lane), "must be at least 1");
}

// --------------------------------------------------------------- refresh --

value to_json(const surrogate::refresh_options& opt) {
  value obj{util::json::object{}};
  obj.push_member("enabled", opt.enabled);
  obj.push_member("log_capacity", opt.log_capacity);
  obj.push_member("min_new_samples", opt.min_new_samples);
  obj.push_member("interval_ms", static_cast<std::uint64_t>(opt.interval.count()));
  obj.push_member("holdout_fraction", opt.holdout_fraction);
  obj.push_member("promotion_margin", opt.promotion_margin);
  obj.push_member("seed", opt.seed);
  obj.push_member("synchronous", opt.synchronous);
  return obj;
}

void from_json(const value& v, surrogate::refresh_options& out, const std::string& path) {
  object_reader r{v, path};
  r.get("enabled", out.enabled);
  r.get_uint("log_capacity", out.log_capacity);
  r.get_uint("min_new_samples", out.min_new_samples);
  r.get_ms("interval_ms", out.interval);
  r.get("holdout_fraction", out.holdout_fraction);
  r.get("promotion_margin", out.promotion_margin);
  r.get_uint("seed", out.seed);
  r.get("synchronous", out.synchronous);
  r.finish();
  validate(out, path);
}

void validate(const surrogate::refresh_options& opt, const std::string& path) {
  if (opt.log_capacity == 0) fail(join(path, "log_capacity"), "must be at least 1");
  if (opt.min_new_samples == 0) fail(join(path, "min_new_samples"), "must be at least 1");
  check_fraction_open(opt.holdout_fraction, join(path, "holdout_fraction"));
  if (opt.promotion_margin < 0.0) fail(join(path, "promotion_margin"), "must not be negative");
}

// -------------------------------------------------------------- snapshot --

value to_json(const snapshot_options& opt) {
  value obj{util::json::object{}};
  obj.push_member("directory", opt.directory);
  obj.push_member("spill_on_evict", opt.spill_on_evict);
  obj.push_member("restore_on_miss", opt.restore_on_miss);
  return obj;
}

void from_json(const value& v, snapshot_options& out, const std::string& path) {
  object_reader r{v, path};
  r.get("directory", out.directory);
  r.get("spill_on_evict", out.spill_on_evict);
  r.get("restore_on_miss", out.restore_on_miss);
  r.finish();
  validate(out, path);
}

void validate(const snapshot_options& opt, const std::string& path) {
  if (opt.spill_on_evict && opt.directory.empty())
    fail(join(path, "spill_on_evict"), "requires a snapshot directory (set \"directory\")");
}

// ----------------------------------------------------------------- group --

value to_json(const group_options& opt) {
  value obj{util::json::object{}};
  obj.push_member("shards", opt.shards);
  obj.push_member("virtual_nodes", opt.virtual_nodes);
  return obj;
}

void from_json(const value& v, group_options& out, const std::string& path) {
  object_reader r{v, path};
  r.get_uint("shards", out.shards);
  r.get_uint("virtual_nodes", out.virtual_nodes);
  r.finish();
  validate(out, path);
}

void validate(const group_options& opt, const std::string& path) {
  if (opt.shards == 0) fail(join(path, "shards"), "must be at least 1");
  if (opt.virtual_nodes == 0) fail(join(path, "virtual_nodes"), "must be at least 1");
}

// --------------------------------------------------------------- service --

value to_json(const service_options& opt) {
  value obj{util::json::object{}};
  push_service_fields(obj, opt);
  return obj;
}

void from_json(const value& v, service_options& out, const std::string& path) {
  object_reader r{v, path};
  read_service_fields(r, out);
  r.finish();
  validate(out, path);
}

void validate(const service_options& opt, const std::string& path) {
  if (opt.workers == 0) fail(join(path, "workers"), "must be at least 1");
  validate(opt.engine, join(path, "engine"));
  validate(opt.scheduler, join(path, "scheduler"));
  validate(opt.refresh, join(path, "refresh"));
  validate(opt.snapshot, join(path, "snapshot"));
}

// ----------------------------------------------------- co-location scenario --

value to_json(const soc::thermal_model& model) {
  value obj{util::json::object{}};
  obj.push_member("ambient_c", model.ambient_c);
  obj.push_member("r_thermal_c_per_w", model.r_thermal_c_per_w);
  obj.push_member("tau_s", model.tau_s);
  obj.push_member("throttle_c", model.throttle_c);
  return obj;
}

void from_json(const value& v, soc::thermal_model& out, const std::string& path) {
  object_reader r{v, path};
  r.get("ambient_c", out.ambient_c);
  r.get("r_thermal_c_per_w", out.r_thermal_c_per_w);
  r.get("tau_s", out.tau_s);
  r.get("throttle_c", out.throttle_c);
  r.finish();
  validate(out, path);
}

void validate(const soc::thermal_model& model, const std::string& path) {
  if (!(model.r_thermal_c_per_w > 0.0))
    fail(join(path, "r_thermal_c_per_w"), "must be greater than 0");
  if (!(model.tau_s > 0.0)) fail(join(path, "tau_s"), "must be greater than 0");
  if (!(model.throttle_c > model.ambient_c)) fail(join(path, "throttle_c"), "must exceed ambient_c");
}

value to_json(const soc::resident_load& load) {
  value obj{util::json::object{}};
  obj.push_member("name", load.name);
  obj.push_member("interconnect_gbps", load.interconnect_gbps);
  obj.push_member("dram_gbps", load.dram_gbps);
  obj.push_member("power_w", load.power_w);
  obj.push_member("shared_memory_bytes", load.shared_memory_bytes);
  util::json::array units;
  for (const std::size_t u : load.reserved_units) units.push_back(value{u});
  obj.push_member("reserved_units", value{std::move(units)});
  return obj;
}

void from_json(const value& v, soc::resident_load& out, const std::string& path) {
  object_reader r{v, path};
  r.get("name", out.name);
  r.get("interconnect_gbps", out.interconnect_gbps);
  r.get("dram_gbps", out.dram_gbps);
  r.get("power_w", out.power_w);
  r.get("shared_memory_bytes", out.shared_memory_bytes);
  if (const value* units = r.take("reserved_units")) {
    const std::string upath = r.member_path("reserved_units");
    if (!units->is_array()) fail(upath, "expected an array of CU indices");
    out.reserved_units.clear();
    for (std::size_t i = 0; i < units->as_array().size(); ++i) {
      const std::string epath = upath + "[" + std::to_string(i) + "]";
      const value& e = units->as_array()[i];
      if (!e.is_number() || e.as_number() < 0.0 || e.as_number() != std::floor(e.as_number()))
        fail(epath, "expected a non-negative integer");
      out.reserved_units.push_back(static_cast<std::size_t>(e.as_number()));
    }
  }
  r.finish();
  validate(out, path);
}

void validate(const soc::resident_load& load, const std::string& path) {
  if (load.name.empty()) fail(join(path, "name"), "must not be empty");
  const std::pair<const char*, double> fields[] = {
      {"interconnect_gbps", load.interconnect_gbps},
      {"dram_gbps", load.dram_gbps},
      {"power_w", load.power_w},
      {"shared_memory_bytes", load.shared_memory_bytes},
  };
  for (const auto& [key, val] : fields)
    if (!std::isfinite(val) || val < 0.0)
      fail(join(path, key), "must be finite and non-negative");
}

value to_json(const soc::contention_context& ctx) {
  value obj{util::json::object{}};
  util::json::array residents;
  for (const soc::resident_load& r : ctx.residents) residents.push_back(to_json(r));
  obj.push_member("residents", value{std::move(residents)});
  util::json::array cap;
  for (const std::size_t level : ctx.dvfs_cap) cap.push_back(value{level});
  obj.push_member("dvfs_cap", value{std::move(cap)});
  obj.push_member("thermal", ctx.thermal ? to_json(*ctx.thermal) : value{});
  obj.push_member("interconnect_alpha", ctx.interconnect_alpha);
  obj.push_member("dram_alpha", ctx.dram_alpha);
  obj.push_member("dram_energy_beta", ctx.dram_energy_beta);
  return obj;
}

void from_json(const value& v, soc::contention_context& out, const std::string& path) {
  object_reader r{v, path};
  if (const value* res = r.take("residents")) {
    const std::string rpath = r.member_path("residents");
    if (!res->is_array()) fail(rpath, "expected an array of resident loads");
    out.residents.clear();
    for (std::size_t i = 0; i < res->as_array().size(); ++i) {
      soc::resident_load load;
      from_json(res->as_array()[i], load, rpath + "[" + std::to_string(i) + "]");
      out.residents.push_back(std::move(load));
    }
  }
  if (const value* cap = r.take("dvfs_cap")) {
    const std::string cpath = r.member_path("dvfs_cap");
    if (!cap->is_array()) fail(cpath, "expected an array of DVFS levels");
    out.dvfs_cap.clear();
    for (std::size_t i = 0; i < cap->as_array().size(); ++i) {
      const std::string epath = cpath + "[" + std::to_string(i) + "]";
      const value& e = cap->as_array()[i];
      if (!e.is_number() || e.as_number() < 0.0 || e.as_number() != std::floor(e.as_number()))
        fail(epath, "expected a non-negative integer");
      out.dvfs_cap.push_back(static_cast<std::size_t>(e.as_number()));
    }
  }
  if (const value* thermal = r.take("thermal")) {
    if (thermal->is_null()) {
      out.thermal.reset();
    } else {
      soc::thermal_model model;
      from_json(*thermal, model, r.member_path("thermal"));
      out.thermal = model;
    }
  }
  r.get("interconnect_alpha", out.interconnect_alpha);
  r.get("dram_alpha", out.dram_alpha);
  r.get("dram_energy_beta", out.dram_energy_beta);
  r.finish();
  validate(out, path);
}

void validate(const soc::contention_context& ctx, const std::string& path) {
  std::vector<std::string> seen;
  for (std::size_t i = 0; i < ctx.residents.size(); ++i) {
    const std::string rpath = join(path, "residents") + "[" + std::to_string(i) + "]";
    validate(ctx.residents[i], rpath);
    if (std::find(seen.begin(), seen.end(), ctx.residents[i].name) != seen.end())
      fail(rpath + ".name", "duplicate resident name \"" + ctx.residents[i].name + "\"");
    seen.push_back(ctx.residents[i].name);
  }
  const std::pair<const char*, double> coeffs[] = {
      {"interconnect_alpha", ctx.interconnect_alpha},
      {"dram_alpha", ctx.dram_alpha},
      {"dram_energy_beta", ctx.dram_energy_beta},
  };
  for (const auto& [key, val] : coeffs)
    if (!std::isfinite(val) || val < 0.0)
      fail(join(path, key), "must be finite and non-negative");
  if (ctx.thermal) validate(*ctx.thermal, join(path, "thermal"));
}

value to_json(const service_config& cfg) {
  value obj{util::json::object{}};
  push_service_fields(obj, cfg.service);
  obj.push_member("group", to_json(cfg.group));
  obj.push_member("ga", to_json(cfg.ga));
  obj.push_member("scenario", to_json(cfg.scenario));
  return obj;
}

void from_json(const value& v, service_config& out, const std::string& path) {
  object_reader r{v, path};
  read_service_fields(r, out.service);
  if (const value* g = r.take("group")) from_json(*g, out.group, r.member_path("group"));
  if (const value* ga = r.take("ga")) from_json(*ga, out.ga, r.member_path("ga"));
  if (const value* scen = r.take("scenario"))
    from_json(*scen, out.scenario, r.member_path("scenario"));
  r.finish();
  validate(out, path);
}

void validate(const service_config& cfg, const std::string& path) {
  if (cfg.service.workers == 0) fail(join(path, "workers"), "must be at least 1");
  validate(cfg.service.engine, join(path, "engine"));
  validate(cfg.service.scheduler, join(path, "scheduler"));
  validate(cfg.service.refresh, join(path, "refresh"));
  validate(cfg.service.snapshot, join(path, "snapshot"));
  validate(cfg.group, join(path, "group"));
  validate(cfg.ga, join(path, "ga"));
  validate(cfg.scenario, join(path, "scenario"));
}

// ------------------------------------------------------------- top level --

service_config parse_config(std::string_view text) {
  value doc;
  try {
    doc = util::json::parse(text);
  } catch (const util::json::parse_error& e) {
    throw config_error("<json>", e.what());
  }
  service_config cfg;
  from_json(doc, cfg);
  return cfg;
}

service_config load_config(const std::string& file_path) {
  std::ifstream in{file_path};
  if (!in) throw std::runtime_error("load_config: cannot open " + file_path);
  std::stringstream buf;
  buf << in.rdbuf();
  return parse_config(buf.str());
}

std::string dump_config(const service_config& cfg, int indent) {
  std::string text = util::json::dump(to_json(cfg), indent);
  if (indent > 0) text += '\n';
  return text;
}

void save_config(const service_config& cfg, const std::string& file_path) {
  std::ofstream out{file_path};
  if (!out) throw std::runtime_error("save_config: cannot open " + file_path);
  out << dump_config(cfg);
  if (!out) throw std::runtime_error("save_config: write failed for " + file_path);
}

void apply_override(service_config& cfg, std::string_view assignment) {
  const std::size_t eq = assignment.find('=');
  if (eq == std::string_view::npos || eq == 0)
    fail("<override>", "expected dotted.key=value, got \"" + std::string(assignment) + "\"");
  const std::string_view key_path = assignment.substr(0, eq);
  const std::string_view value_text = assignment.substr(eq + 1);

  // Parse the right-hand side as a JSON scalar; bare words ("reject",
  // "latency") fall back to strings so enum values need no shell quoting.
  value rhs;
  try {
    rhs = util::json::parse(value_text);
  } catch (const util::json::parse_error&) {
    rhs = value{std::string(value_text)};
  }

  // Route the edit through the full JSON round-trip so unknown keys and
  // range checks produce the same config_error a file would.
  value doc = to_json(cfg);
  value* cursor = &doc;
  std::string walked;
  std::size_t start = 0;
  for (;;) {
    const std::size_t dot = key_path.find('.', start);
    const std::string_view segment =
        key_path.substr(start, dot == std::string_view::npos ? dot : dot - start);
    if (segment.empty()) fail(std::string(key_path), "empty key segment");
    if (!cursor->is_object() && !cursor->is_null())
      fail(walked, "is a scalar, not a config block");
    walked = join(walked, segment);
    cursor = &cursor->at_or_insert(segment);
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  *cursor = std::move(rhs);

  service_config updated;
  from_json(doc, updated);
  cfg = std::move(updated);
}

}  // namespace mapcq::serving

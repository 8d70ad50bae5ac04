#include "serving/service_config.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <fstream>
#include <optional>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mapcq::serving {

namespace {

using util::json::value;
using weight_map = std::unordered_map<std::string, std::size_t>;

[[noreturn]] void fail(const std::string& path, const std::string& message) {
  throw config_error(path, message);
}

std::string join(const std::string& path, std::string_view key) {
  return path.empty() ? std::string(key) : path + "." + std::string(key);
}

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

// ------------------------------------------------------------ field lists --
// One list per JSON object: each key beside its member, in dump order. A
// visitor is called as v(key, member), as v(key, member, names) for an enum
// and its string table, or as v(key, member, noun) for an array or map,
// whose wrong-kind error names its elements. `O` is the struct or its const
// form, so the writer and the reader below walk the same list.

template <class O, class T>
concept of = std::same_as<std::remove_const_t<O>, T>;

template <class V, of<core::engine_options> O>
void fields(V& v, O& o) {
  v("shards", o.shards);
  v("capacity", o.capacity);
  v("threads", o.threads);
  v("memoize", o.memoize);
}

template <class V, of<core::island_options> O>
void fields(V& v, O& o) {
  v("islands", o.islands);
  v("migration_interval", o.migration_interval);
  v("migrants", o.migrants);
  v("polish_fraction", o.polish_fraction);
}

template <class V, of<core::island_assignment> O>
void fields(V& v, O& o) {
  v("algorithm", o.algorithm, algorithm_names);
  v("orientation", o.orientation, orientation_names);
}

template <class V, of<core::sa_options> O>
void fields(V& v, O& o) {
  v("initial_temperature", o.initial_temperature);
  v("cooling", o.cooling);
}

template <class V, of<core::prefilter_options> O>
void fields(V& v, O& o) {
  v("enabled", o.enabled);
  v("quantile", o.quantile);
  v("warmup_generations", o.warmup_generations);
}

template <class V, of<core::portfolio_options> O>
void fields(V& v, O& o) {
  v("islands", o.islands, "island assignments");
  v("sa", o.sa);
  v("prefilter", o.prefilter);
}

template <class V, of<core::ga_options> O>
void fields(V& v, O& o) {
  v("generations", o.generations);
  v("population", o.population);
  v("elite_fraction", o.elite_fraction);
  v("crossover_prob", o.crossover_prob);
  v("ratio_mutation_prob", o.ratio_mutation_prob);
  v("forward_mutation_prob", o.forward_mutation_prob);
  v("mapping_swap_prob", o.mapping_swap_prob);
  v("dvfs_mutation_prob", o.dvfs_mutation_prob);
  v("accuracy_elites", o.accuracy_elites);
  v("selection", o.selection, selection_names);
  v("island", o.island);
  v("portfolio", o.portfolio);
  v("seed", o.seed);
  v("threads", o.threads);
}

template <class V, of<scheduler_options> O>
void fields(V& v, O& o) {
  v("max_queued", o.max_queued);
  v("max_inflight_per_session", o.max_inflight_per_session);
  v("policy", o.policy, policy_names);
  v("coalesce", o.coalesce);
  v("default_weight", o.default_weight);
  v("weights", o.weights, "session-key -> weight");
}

template <class V, of<surrogate::refresh_options> O>
void fields(V& v, O& o) {
  v("enabled", o.enabled);
  v("log_capacity", o.log_capacity);
  v("min_new_samples", o.min_new_samples);
  v("interval_ms", o.interval);
  v("holdout_fraction", o.holdout_fraction);
  v("promotion_margin", o.promotion_margin);
  v("seed", o.seed);
  v("synchronous", o.synchronous);
}

template <class V, of<snapshot_options> O>
void fields(V& v, O& o) {
  v("directory", o.directory);
  v("spill_on_evict", o.spill_on_evict);
  v("restore_on_miss", o.restore_on_miss);
}

template <class V, of<group_options> O>
void fields(V& v, O& o) {
  v("shards", o.shards);
  v("virtual_nodes", o.virtual_nodes);
}

template <class V, of<service_options> O>
void fields(V& v, O& o) {
  v("workers", o.workers);
  v("max_sessions", o.max_sessions);
  v("session_ttl_ms", o.session_ttl);
  v("engine", o.engine);
  v("scheduler", o.scheduler);
  v("refresh", o.refresh);
  v("snapshot", o.snapshot);
}

template <class V, of<soc::thermal_model> O>
void fields(V& v, O& o) {
  v("ambient_c", o.ambient_c);
  v("r_thermal_c_per_w", o.r_thermal_c_per_w);
  v("tau_s", o.tau_s);
  v("throttle_c", o.throttle_c);
}

template <class V, of<soc::resident_load> O>
void fields(V& v, O& o) {
  v("name", o.name);
  v("interconnect_gbps", o.interconnect_gbps);
  v("dram_gbps", o.dram_gbps);
  v("power_w", o.power_w);
  v("shared_memory_bytes", o.shared_memory_bytes);
  v("reserved_units", o.reserved_units, "CU indices");
}

template <class V, of<soc::contention_context> O>
void fields(V& v, O& o) {
  v("residents", o.residents, "resident loads");
  v("dvfs_cap", o.dvfs_cap, "DVFS levels");
  v("thermal", o.thermal);
  v("interconnect_alpha", o.interconnect_alpha);
  v("dram_alpha", o.dram_alpha);
  v("dram_energy_beta", o.dram_energy_beta);
}

/// The service's own keys sit at the top level, beside the other blocks.
template <class V, of<service_config> O>
void fields(V& v, O& o) {
  fields(v, o.service);
  v("group", o.group);
  v("ga", o.ga);
  v("scenario", o.scenario);
}

/// A struct with a field list; JSON form: an object.
template <class T>
concept block = requires(int& v, T& o) { fields(v, o); };

// ---------------------------------------------------------------- visitors --

/// Writes a field list as one JSON object, members in list order.
class writer {
 public:
  template <class T, class... How>
  void operator()(const char* key, const T& member, const How&... how) {
    obj_.push_member(key, write(member, how...));
  }

  template <block T>
  static value write(const T& x) {
    writer w;
    fields(w, x);
    return std::move(w.obj_);
  }
  template <class T>
  static value write(const T& scalar) {
    return value{scalar};
  }
  static value write(std::chrono::milliseconds ms) {
    return static_cast<std::uint64_t>(ms.count());
  }
  template <class E, std::size_t N>
  static value write(E e, const std::pair<const char*, E> (&names)[N]) {
    for (const auto& [name, val] : names)
      if (val == e) return name;
    return "?";
  }
  template <class T>
  static value write(const std::optional<T>& x) {
    return x ? write(*x) : value{};
  }
  template <class T>
  static value write(const std::vector<T>& items, const char* /*noun*/ = nullptr) {
    util::json::array out;
    for (const T& item : items) out.push_back(write(item));
    return out;
  }
  /// Sorted by key: the map's own order would make equal configs dump
  /// differently.
  static value write(const weight_map& weights, const char* /*noun*/) {
    std::vector<std::pair<std::string, std::size_t>> sorted{weights.begin(), weights.end()};
    std::sort(sorted.begin(), sorted.end());
    value out{util::json::object{}};
    for (auto& [key, w] : sorted) out.push_member(key, w);
    return out;
  }

 private:
  value obj_{util::json::object{}};
};

/// Reads a field list from one JSON object. Tracks which members the list
/// consumed, so finish() can reject the leftovers (typo'd keys) by path.
class reader {
 public:
  reader(const value& v, std::string path) : path_(std::move(path)) {
    if (!v.is_object()) fail(path_.empty() ? "<config>" : path_, "expected a JSON object");
    obj_ = &v.as_object();
    consumed_.assign(obj_->size(), false);
  }

  template <class T, class... How>
  void operator()(std::string_view key, T& member, const How&... how) {
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      if ((*obj_)[i].first == key) {
        consumed_[i] = true;
        read((*obj_)[i].second, member, join(path_, key), how...);
        return;
      }
    }
  }

  /// Every key the field list did not name is a typo — reject by path.
  void finish() const {
    for (std::size_t i = 0; i < obj_->size(); ++i)
      if (!consumed_[i]) fail(join(path_, (*obj_)[i].first), "unknown key");
  }

  template <block T>
  static void read(const value& v, T& out, const std::string& path) {
    reader r{v, path};
    fields(r, out);
    r.finish();
  }
  static void read(const value& v, bool& out, const std::string& path) {
    if (!v.is_bool()) fail(path, "expected a boolean");
    out = v.as_bool();
  }
  static void read(const value& v, double& out, const std::string& path) {
    if (!v.is_number()) fail(path, "expected a number");
    out = v.as_number();
  }
  static void read(const value& v, std::string& out, const std::string& path) {
    if (!v.is_string()) fail(path, "expected a string");
    out = v.as_string();
  }
  /// The one integer rule of every config field: a JSON number that is a
  /// non-negative integer no larger than 2^53, the last one a double holds
  /// exactly (larger values would also overflow the cast below).
  template <std::unsigned_integral U>
  static void read(const value& v, U& out, const std::string& path) {
    constexpr double exact = 9007199254740992.0;  // 2^53
    if (!v.is_number()) fail(path, "expected a non-negative integer");
    const double d = v.as_number();
    if (d < 0.0 || d != std::floor(d) || d > exact) fail(path, "expected a non-negative integer");
    out = static_cast<U>(d);
  }
  static void read(const value& v, std::chrono::milliseconds& out, const std::string& path) {
    std::uint64_t ms = 0;
    read(v, ms, path);
    out = std::chrono::milliseconds(ms);
  }
  template <class E, std::size_t N>
  static void read(const value& v, E& out, const std::string& path,
                   const std::pair<const char*, E> (&names)[N]) {
    if (!v.is_string()) fail(path, "expected a string");
    for (const auto& [name, val] : names) {
      if (v.as_string() == name) {
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
    fail(path, "unknown value \"" + v.as_string() + "\" (expected " + expected + ")");
  }
  /// null clears the optional; an object is read over the default value.
  template <class T>
  static void read(const value& v, std::optional<T>& out, const std::string& path) {
    if (v.is_null()) {
      out.reset();
      return;
    }
    T x{};
    read(v, x, path);
    out = std::move(x);
  }
  template <class T>
  static void read(const value& v, std::vector<T>& out, const std::string& path,
                   const char* noun) {
    if (!v.is_array()) fail(path, std::string("expected an array of ") + noun);
    out.clear();
    for (std::size_t i = 0; i < v.as_array().size(); ++i) {
      T item{};
      read(v.as_array()[i], item, path + "[" + std::to_string(i) + "]");
      out.push_back(std::move(item));
    }
  }
  static void read(const value& v, weight_map& out, const std::string& path, const char* noun) {
    if (!v.is_object()) fail(path, std::string("expected an object of ") + noun);
    out.clear();
    for (const auto& [key, w] : v.as_object()) read(w, out[key], join(path, key));
  }

 private:
  const util::json::object* obj_ = nullptr;
  std::string path_;
  std::vector<bool> consumed_;
};

// ------------------------------------------------------------- range rules --
// The semantic constraints the engines enforce at construction, checked
// once after a whole document is read, with paths rooted at `path`.

void check_fraction_open(double v, const std::string& path) {
  if (!(v > 0.0 && v < 1.0)) fail(path, "must be strictly between 0 and 1");
}

void check_probability(double v, const std::string& path) {
  if (!(v >= 0.0 && v <= 1.0)) fail(path, "must be between 0 and 1");
}

void validate(const core::engine_options& opt, const std::string& path) {
  if (opt.shards == 0) fail(join(path, "shards"), "must be at least 1");
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

void validate(const scheduler_options& opt, const std::string& path) {
  if (opt.default_weight == 0) fail(join(path, "default_weight"), "must be at least 1");
  for (const auto& [lane, weight] : opt.weights)
    if (weight == 0) fail(join(path, "weights." + lane), "must be at least 1");
}

void validate(const surrogate::refresh_options& opt, const std::string& path) {
  if (opt.log_capacity == 0) fail(join(path, "log_capacity"), "must be at least 1");
  if (opt.min_new_samples == 0) fail(join(path, "min_new_samples"), "must be at least 1");
  check_fraction_open(opt.holdout_fraction, join(path, "holdout_fraction"));
  if (opt.promotion_margin < 0.0) fail(join(path, "promotion_margin"), "must not be negative");
}

void validate(const snapshot_options& opt, const std::string& path) {
  if (opt.spill_on_evict && opt.directory.empty())
    fail(join(path, "spill_on_evict"), "requires a snapshot directory (set \"directory\")");
}

void validate(const group_options& opt, const std::string& path) {
  if (opt.shards == 0) fail(join(path, "shards"), "must be at least 1");
  if (opt.virtual_nodes == 0) fail(join(path, "virtual_nodes"), "must be at least 1");
}

void validate(const service_options& opt, const std::string& path) {
  if (opt.workers == 0) fail(join(path, "workers"), "must be at least 1");
  validate(opt.engine, join(path, "engine"));
  validate(opt.scheduler, join(path, "scheduler"));
  validate(opt.refresh, join(path, "refresh"));
  validate(opt.snapshot, join(path, "snapshot"));
}

void validate(const soc::thermal_model& model, const std::string& path) {
  if (!(model.r_thermal_c_per_w > 0.0))
    fail(join(path, "r_thermal_c_per_w"), "must be greater than 0");
  if (!(model.tau_s > 0.0)) fail(join(path, "tau_s"), "must be greater than 0");
  if (!(model.throttle_c > model.ambient_c)) fail(join(path, "throttle_c"), "must exceed ambient_c");
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

void validate(const service_config& cfg, const std::string& path) {
  validate(cfg.service, path);
  validate(cfg.group, join(path, "group"));
  validate(cfg.ga, join(path, "ga"));
  validate(cfg.scenario, join(path, "scenario"));
}

}  // namespace

config_error::config_error(std::string path, const std::string& message)
    : std::runtime_error("config error at " + (path.empty() ? std::string("<config>") : path) +
                         ": " + message),
      path_(std::move(path)) {}

template <class T>
value to_json(const T& opt) {
  return writer::write(opt);
}

template <class T>
void from_json(const value& v, T& out, const std::string& path) {
  reader::read(v, out, path);
  validate(out, path);
}

#define MAPCQ_CONFIG_BINDINGS(T)          \
  template value to_json(const T& opt); \
  template void from_json(const value& v, T& out, const std::string& path);
MAPCQ_CONFIG_BINDINGS(core::engine_options)
MAPCQ_CONFIG_BINDINGS(core::ga_options)
MAPCQ_CONFIG_BINDINGS(scheduler_options)
MAPCQ_CONFIG_BINDINGS(surrogate::refresh_options)
MAPCQ_CONFIG_BINDINGS(snapshot_options)
MAPCQ_CONFIG_BINDINGS(group_options)
MAPCQ_CONFIG_BINDINGS(service_options)
MAPCQ_CONFIG_BINDINGS(soc::thermal_model)
MAPCQ_CONFIG_BINDINGS(soc::resident_load)
MAPCQ_CONFIG_BINDINGS(soc::contention_context)
MAPCQ_CONFIG_BINDINGS(service_config)
#undef MAPCQ_CONFIG_BINDINGS

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

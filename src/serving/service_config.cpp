#include "serving/service_config.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <fstream>
#include <limits>
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

// ------------------------------------------------------------- range rules --
// The constraints the engines enforce at construction, each written once.
// A numeric member's rule ends its field-list line; a rule that relates
// several members of one struct sits in that struct's check() below.

/// A range rule on one numeric member: the reader fails at the member's
/// path with `message` unless `ok` accepts its value.
struct rule {
  bool (*ok)(double);
  const char* message;
};

constexpr rule at_least_1{[](double x) { return x >= 1.0; }, "must be at least 1"};
constexpr rule at_least_4{[](double x) { return x >= 4.0; }, "must be at least 4"};
constexpr rule open_fraction{[](double x) { return x > 0.0 && x < 1.0; },
                             "must be strictly between 0 and 1"};
constexpr rule probability{[](double x) { return x >= 0.0 && x <= 1.0; },
                           "must be between 0 and 1"};
constexpr rule positive{[](double x) { return x > 0.0; }, "must be greater than 0"};
constexpr rule unit_interval{[](double x) { return x > 0.0 && x <= 1.0; }, "must be in (0, 1]"};
constexpr rule not_negative{[](double x) { return !(x < 0.0); }, "must not be negative"};
constexpr rule finite_not_negative{[](double x) { return std::isfinite(x) && x >= 0.0; },
                                   "must be finite and non-negative"};

/// Rules across members, run once a struct's own fields are read. `path`
/// is the struct's own path.
template <class T>
void check(const T& /*o*/, const std::string& /*path*/) {}

void check(const core::ga_options& o, const std::string& path) {
  if (o.island.islands > 0 && o.island.islands * 4 > o.population)
    fail(join(path, "island.islands"),
         "would leave an island under 4 members (islands * 4 must not exceed population)");
  const std::size_t islands = std::max<std::size_t>(1, o.island.islands);
  if (o.portfolio.islands.size() > islands)
    fail(join(path, "portfolio.islands"),
         "has more assignments (" + std::to_string(o.portfolio.islands.size()) +
             ") than ga.island.islands (" + std::to_string(islands) + ")");
}

void check(const snapshot_options& o, const std::string& path) {
  if (o.spill_on_evict && o.directory.empty())
    fail(join(path, "spill_on_evict"), "requires a snapshot directory (set \"directory\")");
}

void check(const soc::thermal_model& o, const std::string& path) {
  if (!(o.throttle_c > o.ambient_c)) fail(join(path, "throttle_c"), "must exceed ambient_c");
}

void check(const soc::resident_load& o, const std::string& path) {
  if (o.name.empty()) fail(join(path, "name"), "must not be empty");
}

void check(const soc::contention_context& o, const std::string& path) {
  for (std::size_t i = 0; i < o.residents.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (o.residents[j].name == o.residents[i].name)
        fail(join(path, "residents") + "[" + std::to_string(i) + "].name",
             "duplicate resident name \"" + o.residents[i].name + "\"");
}

// ------------------------------------------------------------ field lists --
// One list per JSON object: each key beside its member, in dump order. A
// visitor is called as v(key, member), as v(key, member, names) for an enum
// and its string table, or as v(key, member, noun) for an array or map,
// whose wrong-kind error names its elements; a trailing rule constrains a
// numeric member (each value, for the weights map). `O` is the struct or
// its const form, so the writer and the reader below walk the same list.

template <class O, class T>
concept of = std::same_as<std::remove_const_t<O>, T>;

template <class V, of<core::engine_options> O>
void fields(V& v, O& o) {
  v("shards", o.shards, at_least_1);
  v("capacity", o.capacity);
  v("threads", o.threads);
}

template <class V, of<core::island_options> O>
void fields(V& v, O& o) {
  v("islands", o.islands);
  v("migration_interval", o.migration_interval);
  v("migrants", o.migrants);
  v("polish_fraction", o.polish_fraction, probability);
}

template <class V, of<core::island_assignment> O>
void fields(V& v, O& o) {
  v("algorithm", o.algorithm, algorithm_names);
  v("orientation", o.orientation, orientation_names);
}

template <class V, of<core::sa_options> O>
void fields(V& v, O& o) {
  v("initial_temperature", o.initial_temperature, positive);
  v("cooling", o.cooling, unit_interval);
}

template <class V, of<core::prefilter_options> O>
void fields(V& v, O& o) {
  v("enabled", o.enabled);
  v("quantile", o.quantile, unit_interval);
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
  v("generations", o.generations, at_least_1);
  v("population", o.population, at_least_4);
  v("elite_fraction", o.elite_fraction, open_fraction);
  v("crossover_prob", o.crossover_prob, probability);
  v("ratio_mutation_prob", o.ratio_mutation_prob, probability);
  v("forward_mutation_prob", o.forward_mutation_prob, probability);
  v("mapping_swap_prob", o.mapping_swap_prob, probability);
  v("dvfs_mutation_prob", o.dvfs_mutation_prob, probability);
  v("accuracy_elites", o.accuracy_elites);
  v("selection", o.selection, selection_names);
  v("island", o.island);
  v("portfolio", o.portfolio);
  v("seed", o.seed);
}

template <class V, of<scheduler_options> O>
void fields(V& v, O& o) {
  v("max_queued", o.max_queued);
  v("max_inflight_per_session", o.max_inflight_per_session);
  v("policy", o.policy, policy_names);
  v("coalesce", o.coalesce);
  v("default_weight", o.default_weight, at_least_1);
  v("weights", o.weights, "session-key -> weight", at_least_1);
}

template <class V, of<surrogate::refresh_options> O>
void fields(V& v, O& o) {
  v("enabled", o.enabled);
  v("log_capacity", o.log_capacity, at_least_1);
  v("min_new_samples", o.min_new_samples, at_least_1);
  v("interval_ms", o.interval);
  v("holdout_fraction", o.holdout_fraction, open_fraction);
  v("promotion_margin", o.promotion_margin, not_negative);
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
  v("shards", o.shards, at_least_1);
  v("virtual_nodes", o.virtual_nodes, at_least_1);
}

template <class V, of<service_options> O>
void fields(V& v, O& o) {
  v("workers", o.workers, at_least_1);
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
  v("r_thermal_c_per_w", o.r_thermal_c_per_w, positive);
  v("tau_s", o.tau_s, positive);
  v("throttle_c", o.throttle_c);
}

template <class V, of<soc::resident_load> O>
void fields(V& v, O& o) {
  v("name", o.name);
  v("interconnect_gbps", o.interconnect_gbps, finite_not_negative);
  v("dram_gbps", o.dram_gbps, finite_not_negative);
  v("power_w", o.power_w, finite_not_negative);
  v("shared_memory_bytes", o.shared_memory_bytes, finite_not_negative);
  v("reserved_units", o.reserved_units, "CU indices");
}

template <class V, of<soc::contention_context> O>
void fields(V& v, O& o) {
  v("residents", o.residents, "resident loads");
  v("dvfs_cap", o.dvfs_cap, "DVFS levels");
  v("thermal", o.thermal);
  v("interconnect_alpha", o.interconnect_alpha, finite_not_negative);
  v("dram_alpha", o.dram_alpha, finite_not_negative);
  v("dram_energy_beta", o.dram_energy_beta, finite_not_negative);
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
  /// Rules constrain reading only.
  template <class T>
  void operator()(const char* key, const T& member, rule /*r*/) {
    (*this)(key, member);
  }
  void operator()(const char* key, const weight_map& member, const char* noun, rule /*r*/) {
    (*this)(key, member, noun);
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
/// Every rule is checked against the member's value, whether the document
/// set it or not, so a struct read from a partial document is checked whole.
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
    omitted(member, join(path_, key));
  }
  template <class T>
  void operator()(std::string_view key, T& member, rule r) {
    (*this)(key, member);
    if (!r.ok(static_cast<double>(member))) fail(join(path_, key), r.message);
  }
  void operator()(std::string_view key, weight_map& member, const char* noun, rule r) {
    (*this)(key, member, noun);
    for (const auto& [lane, w] : member)
      if (!r.ok(static_cast<double>(w))) fail(join(join(path_, key), lane), r.message);
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
    check(out, path);
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
  /// The one integer rule of every config field: a non-negative integer no
  /// larger than `max`, the member type's largest value. An integer literal
  /// is read exactly; any other number ("5.0", "1e3") must be integral and
  /// at most 2^53, the last integer a double holds exactly.
  static std::uint64_t read_integer(const value& v, std::uint64_t max, const std::string& path) {
    constexpr double exact = 9007199254740992.0;  // 2^53
    std::optional<std::uint64_t> n = v.exact_uint();
    if (!n && v.is_number()) {
      const double d = v.as_number();
      if (d >= 0.0 && d == std::floor(d) && d <= exact) n = static_cast<std::uint64_t>(d);
    }
    if (!n || *n > max) fail(path, "expected a non-negative integer");
    return *n;
  }
  template <std::unsigned_integral U>
  static void read(const value& v, U& out, const std::string& path) {
    out = static_cast<U>(read_integer(v, std::numeric_limits<U>::max(), path));
  }
  /// Bounded by what the duration's signed count holds.
  static void read(const value& v, std::chrono::milliseconds& out, const std::string& path) {
    out = std::chrono::milliseconds(static_cast<std::chrono::milliseconds::rep>(
        read_integer(v, std::chrono::milliseconds::max().count(), path)));
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

  /// A key the document omits keeps the member's value; a block is checked
  /// as if it were read from {}.
  template <block T>
  static void omitted(T& x, const std::string& path) {
    read(value{util::json::object{}}, x, path);
  }
  template <class T>
  static void omitted(std::optional<T>& x, const std::string& path) {
    if (x) omitted(*x, path);
  }
  template <class T>
  static void omitted(std::vector<T>& items, const std::string& path) {
    for (std::size_t i = 0; i < items.size(); ++i)
      omitted(items[i], path + "[" + std::to_string(i) + "]");
  }
  template <class T>
  static void omitted(T& /*scalar*/, const std::string& /*path*/) {}

 private:
  const util::json::object* obj_ = nullptr;
  std::string path_;
  std::vector<bool> consumed_;
};

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

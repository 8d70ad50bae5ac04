#pragma once
// The unified, serializable configuration surface of the serving stack
// (ROADMAP: "config + replay refactor"). Every knob the system grew across
// the engine / GA / scheduler / refresh layers is code-only without this
// file; here each options struct gains `to_json` / `from_json` / `validate`
// bindings, composed into one top-level `service_config` so a
// `mapping_service` can be booted from a JSON file and every
// `mapping_report` can record the exact effective config that produced it.
//
// Contract of the bindings:
//   * to_json(x) emits every field, defaults included, in declaration
//     order — dump(to_json(x)) is deterministic, so equal configs always
//     serialize to byte-identical text (the bit-identity tests gate on it).
//   * from_json starts from the struct's defaults, overwrites the fields
//     present, rejects unknown keys, and range-checks via validate(). All
//     failures throw `config_error` naming the dotted key path
//     ("ga.elite_fraction"), never a bare json error.
//   * chrono fields serialize as integral milliseconds under a `_ms`
//     suffixed key; enums serialize as strings ("reject", "latency", ...).

#include <stdexcept>
#include <string>
#include <string_view>

#include "serving/mapping_service.h"
#include "serving/service_group.h"
#include "util/json.h"

namespace mapcq::serving {

/// Typed configuration failure: a dotted key path ("scheduler.policy")
/// plus what was wrong with it. Thrown by from_json / validate /
/// apply_override; parse_config wraps json::parse_error into one with the
/// pseudo-path "<json>".
class config_error : public std::runtime_error {
 public:
  config_error(std::string path, const std::string& message);
  /// Dotted path of the offending key, e.g. "ga.island.polish_fraction".
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// The complete boot configuration of a serving deployment: the service's
/// own knobs (engine / scheduler / refresh / snapshot blocks, worker
/// counts, session lifecycle), the shard topology a `service_group` boot
/// applies, plus the GA search budget requests will run with. The JSON
/// form is one object with the blocks at top level:
///   { "workers": .., "max_sessions": .., "session_ttl_ms": ..,
///     "engine": {..}, "scheduler": {..}, "refresh": {..},
///     "snapshot": {..}, "group": {..}, "ga": {..}, "scenario": {..} }
struct service_config {
  service_options service;  ///< engine/scheduler/refresh/snapshot + lifecycle
  /// Shard topology, consumed only by service_group boots (a plain
  /// mapping_service ignores it). Deployment metadata, not evaluation
  /// semantics: mapping_report::effective_config deliberately stamps the
  /// default group so reports stay bit-identical across reshards.
  group_options group;
  core::ga_options ga;      ///< search budget applied to each request
  /// Co-location scenario applied to each request's evaluator
  /// (`mapping_request::eval.contention`): co-resident loads, per-CU DVFS
  /// caps, thermal budget. Defaults to idle — evaluation identical to a
  /// contention-free deployment.
  soc::contention_context scenario;
};

/// @name Per-struct JSON bindings
/// to_json emits all fields in declaration order; from_json overwrites
/// `out` (starting from its current values) from the object in `v`,
/// rejecting unknown keys and out-of-range values with `config_error`s
/// rooted at `path`.
/// @{
[[nodiscard]] util::json::value to_json(const core::engine_options& opt);
[[nodiscard]] util::json::value to_json(const core::ga_options& opt);
[[nodiscard]] util::json::value to_json(const scheduler_options& opt);
[[nodiscard]] util::json::value to_json(const surrogate::refresh_options& opt);
[[nodiscard]] util::json::value to_json(const snapshot_options& opt);
[[nodiscard]] util::json::value to_json(const group_options& opt);
[[nodiscard]] util::json::value to_json(const service_options& opt);
[[nodiscard]] util::json::value to_json(const soc::thermal_model& model);
[[nodiscard]] util::json::value to_json(const soc::resident_load& load);
[[nodiscard]] util::json::value to_json(const soc::contention_context& ctx);
[[nodiscard]] util::json::value to_json(const service_config& cfg);

void from_json(const util::json::value& v, core::engine_options& out,
               const std::string& path = "engine");
void from_json(const util::json::value& v, core::ga_options& out, const std::string& path = "ga");
void from_json(const util::json::value& v, scheduler_options& out,
               const std::string& path = "scheduler");
void from_json(const util::json::value& v, surrogate::refresh_options& out,
               const std::string& path = "refresh");
void from_json(const util::json::value& v, snapshot_options& out,
               const std::string& path = "snapshot");
void from_json(const util::json::value& v, group_options& out,
               const std::string& path = "group");
void from_json(const util::json::value& v, service_options& out,
               const std::string& path = "service");
void from_json(const util::json::value& v, soc::thermal_model& out,
               const std::string& path = "thermal");
void from_json(const util::json::value& v, soc::resident_load& out,
               const std::string& path = "resident");
void from_json(const util::json::value& v, soc::contention_context& out,
               const std::string& path = "scenario");
void from_json(const util::json::value& v, service_config& out, const std::string& path = "");
/// @}

/// @name Range validation
/// Checks the semantic constraints the engines enforce at construction
/// (population >= 4, elite_fraction in (0,1), holdout_fraction in (0,1),
/// weights >= 1, ...), throwing `config_error` with the offending key path
/// rooted at `path`. from_json calls these; call them directly after
/// mutating a struct in code.
/// @{
void validate(const core::engine_options& opt, const std::string& path = "engine");
void validate(const core::ga_options& opt, const std::string& path = "ga");
void validate(const scheduler_options& opt, const std::string& path = "scheduler");
void validate(const surrogate::refresh_options& opt, const std::string& path = "refresh");
void validate(const snapshot_options& opt, const std::string& path = "snapshot");
void validate(const group_options& opt, const std::string& path = "group");
void validate(const service_options& opt, const std::string& path = "service");
void validate(const soc::thermal_model& model, const std::string& path = "thermal");
void validate(const soc::resident_load& load, const std::string& path = "resident");
void validate(const soc::contention_context& ctx, const std::string& path = "scenario");
void validate(const service_config& cfg, const std::string& path = "");
/// @}

/// Parses a service_config from JSON text. Starts from defaults (an empty
/// object "{}" is the default config), throws config_error on malformed
/// JSON, unknown keys or out-of-range values.
[[nodiscard]] service_config parse_config(std::string_view text);

/// Reads and parses a config file. Throws std::runtime_error when the file
/// cannot be read, config_error on content problems.
[[nodiscard]] service_config load_config(const std::string& file_path);

/// Serializes the effective config, defaults filled in. `indent` = 0 emits
/// the compact one-line form (the `mapping_report::effective_config`
/// stamp); 2 is the human-facing pretty form written by --dump-config.
[[nodiscard]] std::string dump_config(const service_config& cfg, int indent = 2);

/// Writes dump_config(cfg) to a file. Throws std::runtime_error on I/O
/// failure.
void save_config(const service_config& cfg, const std::string& file_path);

/// Applies one `--set` style override of the form "dotted.key=value"
/// (e.g. "ga.generations=8", "scheduler.policy=reject",
/// "engine.memoize=false"). The value text is parsed as a JSON scalar, with
/// a bare-word fallback to a string (so enum values need no quoting), and
/// routed through the exact from_json path — unknown keys and bad values
/// throw the same config_error a file would.
void apply_override(service_config& cfg, std::string_view assignment);

}  // namespace mapcq::serving

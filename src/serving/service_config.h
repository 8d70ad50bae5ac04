#pragma once
// The unified, serializable configuration surface of the serving stack.
// Every knob the engine / GA / scheduler / refresh / snapshot / group /
// scenario layers expose is bound to JSON here and composed into one
// top-level `service_config`, so a `mapping_service` can be booted from a
// JSON file and every `mapping_report` can record the exact effective
// config that produced it.
//
// Each option struct, and each block nested in one, has one field list in
// service_config.cpp that names every JSON key beside its member, once, in
// dump order; a key's range rule ends its line. The writer behind to_json /
// dump_config and the reader behind from_json both walk that list, so a key
// added there is dumped, parsed, range-checked, rejected when misspelt and
// overridable with --set without further code.
//
// Contract of the bindings:
//   * to_json(x) emits every field, defaults included, in list order —
//     dump(to_json(x)) is deterministic, so equal configs always serialize
//     to byte-identical text (the bit-identity tests gate on it).
//   * from_json starts from the struct's current values, overwrites the
//     fields present and rejects unknown keys. It checks each member's rule
//     against the member's value whether the document set it or not, then
//     each struct's rules across members (islands against population,
//     throttle against ambient, ...); a block the document omits is
//     checked as if it were read from {}. All failures throw `config_error`
//     naming the dotted key path ("ga.elite_fraction"), never a bare json
//     error.
//   * chrono fields serialize as integral milliseconds under a `_ms`
//     suffixed key; enums serialize as strings ("reject", "latency", ...);
//     every integer is a non-negative JSON number no larger than 2^53.

#include <stdexcept>
#include <string>
#include <string_view>

#include "serving/mapping_service.h"
#include "serving/service_group.h"
#include "util/json.h"

namespace mapcq::serving {

/// Typed configuration failure: a dotted key path ("scheduler.policy")
/// plus what was wrong with it. Thrown by from_json / apply_override;
/// parse_config wraps json::parse_error into one with the pseudo-path
/// "<json>".
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

/// JSON bindings, instantiated for `service_config` and for each block it
/// is made of: `core::engine_options`, `core::ga_options`,
/// `scheduler_options`, `surrogate::refresh_options`, `snapshot_options`,
/// `group_options`, `service_options`, `soc::thermal_model`,
/// `soc::resident_load` and `soc::contention_context`. to_json emits all
/// fields; from_json overwrites `out` (starting from its current values)
/// from the object in `v`, rejecting unknown keys and out-of-range values
/// with `config_error`s rooted at `path`.
template <class T>
[[nodiscard]] util::json::value to_json(const T& opt);
template <class T>
void from_json(const util::json::value& v, T& out, const std::string& path = "");

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
/// "scheduler.coalesce=false"). The value text is parsed as a JSON scalar,
/// with a bare-word fallback to a string (so enum values need no quoting),
/// and routed through the exact from_json path — unknown keys and bad values
/// throw the same config_error a file would.
void apply_override(service_config& cfg, std::string_view assignment);

}  // namespace mapcq::serving

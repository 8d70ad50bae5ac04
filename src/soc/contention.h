#pragma once
// Multi-DNN co-location model (extension beyond the paper): when several
// networks are resident on one MPSoC they share the interconnect, the DRAM
// channel and the thermal envelope. Each co-resident is summarized by the
// steady traffic it keeps on the shared paths plus the CUs it has reserved
// for itself; `apply_contention` derates a platform copy with an M/M/1-style
// queueing shape (latency and energy per access grow with the utilization the
// residents impose — the hop/DRAM-access cost model of NoC task mapping), and
// the evaluator layers DVFS caps and a thermal budget on top as scenario
// axes.
//
// Invariant relied on by the differential harnesses: an idle context (no
// residents, no DVFS cap, no thermal limit) introduces ZERO floating-point
// operations anywhere in the evaluation path — only branch-level guards — so
// evaluation under an idle context is bit-identical to the legacy path.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "soc/platform.h"
#include "soc/thermal.h"

namespace mapcq::soc {

/// Steady-state load one co-resident network keeps on the shared resources.
struct resident_load {
  std::string name;                 ///< ledger key; must be unique in a context
  double interconnect_gbps = 0.0;   ///< sustained producer->consumer traffic
  double dram_gbps = 0.0;           ///< sustained DRAM streaming traffic
  double power_w = 0.0;             ///< sustained package power draw
  double shared_memory_bytes = 0.0; ///< fmap budget parked by the resident
  std::vector<std::size_t> reserved_units;  ///< CUs owned outright

  /// Throws std::invalid_argument on negative/non-finite fields or an empty
  /// name. Unit indices are checked against a platform separately.
  void validate() const;
};

/// Everything the evaluator needs to score a mapping under co-location:
/// the co-resident set, per-CU DVFS caps, and an optional thermal budget
/// shared with the residents. Default-constructed contexts are idle.
struct contention_context {
  std::vector<resident_load> residents;
  /// Per-CU maximum DVFS level (a cap, not a setting); empty = uncapped.
  /// Shorter-than-platform vectors cap a prefix of the CUs.
  std::vector<std::size_t> dvfs_cap;
  /// When set, mappings whose sustained power (plus the residents' draw)
  /// would trip the throttle are rejected as unable to sustain steady state.
  std::optional<thermal_model> thermal;

  // Queueing-shape coefficients: a resource at utilization U costs
  // (1 + alpha * U) per access. Calibrated defaults are deliberately mild.
  double interconnect_alpha = 1.0;  ///< transfer latency/bandwidth derate
  double dram_alpha = 0.6;          ///< per-CU streaming bandwidth derate
  double dram_energy_beta = 0.35;   ///< DRAM energy-per-byte inflation

  /// True when the context changes nothing: evaluation is bit-identical to
  /// the legacy (pre-contention) path.
  [[nodiscard]] bool idle() const noexcept {
    return residents.empty() && dvfs_cap.empty() && !thermal;
  }

  [[nodiscard]] double total_interconnect_gbps() const noexcept;
  [[nodiscard]] double total_dram_gbps() const noexcept;
  [[nodiscard]] double total_power_w() const noexcept;
  [[nodiscard]] double total_shared_memory_bytes() const noexcept;

  /// True if any resident has reserved `unit`.
  [[nodiscard]] bool unit_reserved(std::size_t unit) const noexcept;

  /// Every unit reserved by any resident, ascending and deduplicated.
  /// Feeds core::search_space's banned-unit list so the optimizer never
  /// proposes mappings onto CUs owned by co-residents.
  [[nodiscard]] std::vector<std::size_t> reserved_units() const;

  /// Platform-free checks: every resident validates, names are unique, and
  /// the coefficients are finite and non-negative. Throws
  /// std::invalid_argument.
  void validate() const;

  /// Full checks against a platform: the above plus reserved-unit indices in
  /// range and not double-reserved, `dvfs_cap` no longer than the platform
  /// with each cap a valid level, and a physical thermal model.
  void validate(const platform& plat) const;
};

/// Returns a copy of `plat` derated by the residents' traffic: interconnect
/// bandwidth shrinks (and base latency grows) with interconnect utilization,
/// DRAM energy per byte and per-CU streaming bandwidth degrade with DRAM
/// utilization. With no residents the copy is untouched — no FP ops run.
/// Degradation is strictly monotone in every resident traffic term.
[[nodiscard]] platform apply_contention(const platform& plat, const contention_context& ctx);

/// Deterministic full-precision serialization of a context for session keys
/// and request fingerprints. Two contexts with equal keys evaluate mappings
/// bit-identically; an idle context yields "idle".
[[nodiscard]] std::string scenario_key(const contention_context& ctx);

/// The thermal part of every key above and of the serving keys:
/// "ambient,r,tau,throttle" at 17 significant digits, or "none".
[[nodiscard]] std::string thermal_key(const std::optional<thermal_model>& thermal);

/// Per-CU reservation accounting for a platform shared by several owners:
/// `reserve` claims a resident's units (all-or-nothing), `release` frees
/// them by name. Used by serving::placement_group to keep co-located
/// sessions' reservations disjoint.
class resident_ledger {
 public:
  /// Ledger over a platform with `unit_count` CUs.
  explicit resident_ledger(std::size_t unit_count) : owner_of_(unit_count) {}

  /// Claims `load.reserved_units` for `load.name`. Throws
  /// std::invalid_argument if the load is invalid, the name is already
  /// registered, a unit index is out of range, or a unit is already owned;
  /// on throw the ledger is unchanged.
  void reserve(const resident_load& load);

  /// Releases every unit owned by `name` and forgets the resident. Throws
  /// std::invalid_argument if `name` is not registered.
  void release(const std::string& name);

  /// True if any resident owns `unit` (false for out-of-range indices).
  [[nodiscard]] bool reserved(std::size_t unit) const noexcept;

  /// Owner name of `unit`, or nullptr when free or out of range.
  [[nodiscard]] const std::string* owner(std::size_t unit) const noexcept;

  /// Registered residents, in reservation order.
  [[nodiscard]] const std::vector<resident_load>& residents() const noexcept {
    return residents_;
  }

  [[nodiscard]] std::size_t unit_count() const noexcept { return owner_of_.size(); }

 private:
  std::vector<std::string> owner_of_;   ///< empty string = free
  std::vector<resident_load> residents_;
};

}  // namespace mapcq::soc

#include "soc/contention.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

namespace mapcq::soc {

namespace {

void require_finite_nonneg(double v, const char* what) {
  if (!std::isfinite(v) || v < 0.0)
    throw std::invalid_argument(std::string("resident_load: ") + what +
                                " must be finite and non-negative");
}

}  // namespace

void resident_load::validate() const {
  if (name.empty()) throw std::invalid_argument("resident_load: empty name");
  require_finite_nonneg(interconnect_gbps, "interconnect_gbps");
  require_finite_nonneg(dram_gbps, "dram_gbps");
  require_finite_nonneg(power_w, "power_w");
  require_finite_nonneg(shared_memory_bytes, "shared_memory_bytes");
}

double contention_context::total_interconnect_gbps() const noexcept {
  double total = 0.0;
  for (const resident_load& r : residents) total += r.interconnect_gbps;
  return total;
}

double contention_context::total_dram_gbps() const noexcept {
  double total = 0.0;
  for (const resident_load& r : residents) total += r.dram_gbps;
  return total;
}

double contention_context::total_power_w() const noexcept {
  double total = 0.0;
  for (const resident_load& r : residents) total += r.power_w;
  return total;
}

double contention_context::total_shared_memory_bytes() const noexcept {
  double total = 0.0;
  for (const resident_load& r : residents) total += r.shared_memory_bytes;
  return total;
}

bool contention_context::unit_reserved(std::size_t unit) const noexcept {
  for (const resident_load& r : residents)
    for (const std::size_t u : r.reserved_units)
      if (u == unit) return true;
  return false;
}

std::vector<std::size_t> contention_context::reserved_units() const {
  std::set<std::size_t> units;
  for (const resident_load& r : residents)
    units.insert(r.reserved_units.begin(), r.reserved_units.end());
  return {units.begin(), units.end()};
}

void contention_context::validate() const {
  std::set<std::string> names;
  for (const resident_load& r : residents) {
    r.validate();
    if (!names.insert(r.name).second)
      throw std::invalid_argument("contention_context: duplicate resident '" + r.name + "'");
  }
  for (const double alpha : {interconnect_alpha, dram_alpha, dram_energy_beta})
    if (!std::isfinite(alpha) || alpha < 0.0)
      throw std::invalid_argument(
          "contention_context: derate coefficients must be finite and non-negative");
  if (thermal) thermal->validate();
}

void contention_context::validate(const platform& plat) const {
  validate();
  std::set<std::size_t> owned;
  for (const resident_load& r : residents) {
    for (const std::size_t u : r.reserved_units) {
      if (u >= plat.size())
        throw std::invalid_argument("contention_context: resident '" + r.name +
                                    "' reserves CU " + std::to_string(u) +
                                    " on a platform with " + std::to_string(plat.size()) +
                                    " CUs");
      if (!owned.insert(u).second)
        throw std::invalid_argument("contention_context: CU " + std::to_string(u) +
                                    " reserved twice");
    }
  }
  if (dvfs_cap.size() > plat.size())
    throw std::invalid_argument("contention_context: dvfs_cap longer than the platform");
  for (std::size_t u = 0; u < dvfs_cap.size(); ++u)
    if (dvfs_cap[u] >= plat.unit(u).dvfs.levels())
      throw std::invalid_argument("contention_context: dvfs_cap[" + std::to_string(u) +
                                  "] is not a level of CU " + std::to_string(u));
}

platform apply_contention(const platform& plat, const contention_context& ctx) {
  platform out = plat;
  if (ctx.residents.empty()) return out;  // idle: the copy must stay untouched
  // Both shared paths are normalized by the interconnect's effective
  // bandwidth — it is the DRAM channel every CU streams through (Fig. 4).
  const double ic_util = ctx.total_interconnect_gbps() / plat.xfer.bandwidth_gbps;
  const double dram_util = ctx.total_dram_gbps() / plat.xfer.bandwidth_gbps;
  const double ic_factor = 1.0 + ctx.interconnect_alpha * ic_util;
  const double dram_factor = 1.0 + ctx.dram_alpha * dram_util;
  out.xfer.bandwidth_gbps = plat.xfer.bandwidth_gbps / ic_factor;
  out.xfer.base_latency_ms = plat.xfer.base_latency_ms * ic_factor;
  out.xfer.energy_pj_per_byte =
      plat.xfer.energy_pj_per_byte * (1.0 + ctx.dram_energy_beta * dram_util);
  for (compute_unit& cu : out.units) cu.mem_bandwidth_gbps = cu.mem_bandwidth_gbps / dram_factor;
  return out;
}

std::string scenario_key(const contention_context& ctx) {
  if (ctx.idle()) return "idle";
  std::ostringstream os;
  os.precision(17);
  os << "a=" << ctx.interconnect_alpha << "," << ctx.dram_alpha << "," << ctx.dram_energy_beta;
  os << "|res=";
  for (const resident_load& r : ctx.residents) {
    os << r.name << ":" << r.interconnect_gbps << ":" << r.dram_gbps << ":" << r.power_w << ":"
       << r.shared_memory_bytes << ":[";
    for (const std::size_t u : r.reserved_units) os << u << ",";
    os << "];";
  }
  os << "|cap=";
  for (const std::size_t level : ctx.dvfs_cap) os << level << ",";
  os << "|thermal=" << thermal_key(ctx.thermal);
  return os.str();
}

std::string thermal_key(const std::optional<thermal_model>& thermal) {
  if (!thermal) return "none";
  std::ostringstream os;
  os.precision(17);
  os << thermal->ambient_c << "," << thermal->r_thermal_c_per_w << "," << thermal->tau_s << ","
     << thermal->throttle_c;
  return os.str();
}

void resident_ledger::reserve(const resident_load& load) {
  load.validate();
  for (const resident_load& r : residents_)
    if (r.name == load.name)
      throw std::invalid_argument("resident_ledger: '" + load.name + "' already registered");
  for (const std::size_t u : load.reserved_units) {
    if (u >= owner_of_.size())
      throw std::invalid_argument("resident_ledger: CU " + std::to_string(u) + " out of range");
    if (!owner_of_[u].empty())
      throw std::invalid_argument("resident_ledger: CU " + std::to_string(u) +
                                  " already owned by '" + owner_of_[u] + "'");
  }
  // A resident may list a unit twice; collapse rather than self-collide.
  for (const std::size_t u : load.reserved_units) owner_of_[u] = load.name;
  residents_.push_back(load);
}

void resident_ledger::release(const std::string& name) {
  const auto it = std::find_if(residents_.begin(), residents_.end(),
                               [&](const resident_load& r) { return r.name == name; });
  if (it == residents_.end())
    throw std::invalid_argument("resident_ledger: '" + name + "' is not registered");
  for (std::string& owner : owner_of_)
    if (owner == name) owner.clear();
  residents_.erase(it);
}

bool resident_ledger::reserved(std::size_t unit) const noexcept {
  return unit < owner_of_.size() && !owner_of_[unit].empty();
}

const std::string* resident_ledger::owner(std::size_t unit) const noexcept {
  if (unit >= owner_of_.size() || owner_of_[unit].empty()) return nullptr;
  return &owner_of_[unit];
}

}  // namespace mapcq::soc

#include "core/serialization.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"
#include "util/text_rows.h"

namespace mapcq::core {

namespace {

constexpr const char* config_tag = "mapcq-config-v1";
constexpr const char* report_tag = "mapcq-report-v1";
constexpr const char* trace_tag = "mapcq-trace-v1";
constexpr const char* eval_tag = "mapcq-eval-v1";

using util::next_line;
using util::parse_token;
using util::read_row;
using util::read_sized;
using util::read_tail;
using util::try_parse_row;
using util::write_row;

double read_scalar(std::istream& is, const char* key) {
  double v = 0.0;
  read_row(is, key, v);
  return v;
}

void write_configuration(std::ostream& os, const configuration& config) {
  os << config_tag << "\n";
  os << "groups " << config.groups() << "\n";
  os << "stages " << config.stages() << "\n";
  os << "partition\n";
  os.precision(17);
  for (const auto& row : config.partition) {
    for (std::size_t i = 0; i < row.size(); ++i) os << (i ? " " : "") << row[i];
    os << "\n";
  }
  os << "forward\n";
  for (const auto& row : config.forward) {
    for (std::size_t i = 0; i < row.size(); ++i) os << (i ? " " : "") << (row[i] ? 1 : 0);
    os << "\n";
  }
  os << "mapping";
  for (const std::size_t cu : config.mapping) os << ' ' << cu;
  os << "\ndvfs";
  for (const std::size_t level : config.dvfs) os << ' ' << level;
  os << "\n";
}

/// The config format is self-delimiting (the header fixes every section's
/// row count), so it can be read both standalone and embedded in a report.
configuration read_configuration(std::istream& is) {
  if (next_line(is, "header") != config_tag)
    throw std::runtime_error("configuration_from_text: bad header");

  const std::size_t groups = read_sized(is, "groups");
  const std::size_t stages = read_sized(is, "stages");
  if (groups == 0 || stages == 0)
    throw std::runtime_error("configuration_from_text: empty dimensions");

  configuration c;
  if (next_line(is, "partition") != "partition")
    throw std::runtime_error("configuration_from_text: expected partition section");
  c.partition.assign(groups, std::vector<double>(stages));
  for (auto& row : c.partition) {
    std::istringstream ls{next_line(is, "partition row")};
    for (auto& v : row)
      if (!(ls >> v)) throw std::runtime_error("configuration_from_text: short partition row");
  }

  if (next_line(is, "forward") != "forward")
    throw std::runtime_error("configuration_from_text: expected forward section");
  c.forward.assign(groups, std::vector<bool>(stages));
  for (auto& row : c.forward) {
    std::istringstream ls{next_line(is, "forward row")};
    for (std::size_t i = 0; i < stages; ++i) {
      int bit = 0;
      if (!(ls >> bit) || (bit != 0 && bit != 1))
        throw std::runtime_error("configuration_from_text: bad forward bit");
      row[i] = bit == 1;
    }
  }

  {
    std::istringstream ls{next_line(is, "mapping")};
    std::string k;
    if (!(ls >> k) || k != "mapping")
      throw std::runtime_error("configuration_from_text: expected mapping");
    std::size_t v = 0;
    while (ls >> v) c.mapping.push_back(v);
    if (c.mapping.size() != stages)
      throw std::runtime_error("configuration_from_text: mapping size mismatch");
  }
  {
    std::istringstream ls{next_line(is, "dvfs")};
    std::string k;
    if (!(ls >> k) || k != "dvfs")
      throw std::runtime_error("configuration_from_text: expected dvfs");
    std::size_t v = 0;
    while (ls >> v) c.dvfs.push_back(v);
    if (c.dvfs.empty()) throw std::runtime_error("configuration_from_text: empty dvfs");
  }
  return c;
}

std::string slurp(const std::string& path, const char* what) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error(std::string(what) + ": cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void spill(const std::string& path, const std::string& text, const char* what) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error(std::string(what) + ": cannot open " + path);
  out << text;
  if (!out) throw std::runtime_error(std::string(what) + ": write failed for " + path);
}

}  // namespace

std::string to_text(const configuration& config) {
  std::ostringstream os;
  write_configuration(os, config);
  return os.str();
}

configuration configuration_from_text(const std::string& text) {
  std::istringstream is{text};
  return read_configuration(is);
}

void save_configuration(const std::string& path, const configuration& config) {
  spill(path, to_text(config), "save_configuration");
}

configuration load_configuration(const std::string& path) {
  return configuration_from_text(slurp(path, "load_configuration"));
}

std::string to_text(const report_summary& summary) {
  std::ostringstream os;
  os.precision(17);
  os << report_tag << "\n";
  os << "network " << summary.network << "\n";
  os << "platform " << summary.platform << "\n";
  os << "ours_latency " << summary.ours_latency_index << "\n";
  os << "ours_energy " << summary.ours_energy_index << "\n";
  if (summary.scheduler) {
    const scheduler_note& n = *summary.scheduler;
    write_row(os, "scheduler", n.submitted, n.admitted, n.coalesced, n.rejected, n.expired,
              n.completed, n.failed, n.fused, n.fused_batches);
  }
  if (summary.refresh) {
    const refresh_note& n = *summary.refresh;
    write_row(os, "refresh", n.observed, n.logged, n.attempts, n.promotions, n.rejections, n.epoch,
              n.last_candidate_tau, n.last_incumbent_tau);
  }
  if (summary.scenario) {
    const scenario_note& n = *summary.scenario;
    write_row(os, "scenario", n.residents, n.reserved_units, n.dvfs_capped_units,
              n.resident_interconnect_gbps, n.resident_dram_gbps, n.resident_power_w, n.ambient_c,
              n.throttle_c);
  }
  write_row(os, "entries", summary.entries.size());
  for (const summary_entry& e : summary.entries) {
    os << "entry " << e.label << "\n";
    write_row(os, "feasible", e.feasible ? 1 : 0);
    write_row(os, "objective", e.objective);
    write_row(os, "avg_latency_ms", e.avg_latency_ms);
    write_row(os, "avg_energy_mj", e.avg_energy_mj);
    write_row(os, "accuracy_pct", e.accuracy_pct);
    write_row(os, "fmap_reuse_pct", e.fmap_reuse_pct);
    write_configuration(os, e.config);
  }
  return os.str();
}

report_summary report_summary_from_text(const std::string& text) {
  std::istringstream is{text};
  if (next_line(is, "header") != report_tag)
    throw std::runtime_error("report_summary_from_text: bad header");

  report_summary s;
  s.network = read_tail(is, "network");
  s.platform = read_tail(is, "platform");
  s.ours_latency_index = read_sized(is, "ours_latency");
  s.ours_energy_index = read_sized(is, "ours_energy");

  // The scheduler, refresh and scenario lines are optional: direct-map()
  // artifacts (and files from before each existed) go straight to the
  // entries section. When present the order is scheduler, refresh, scenario.
  std::string line = next_line(is, "entries");
  {
    // The scheduler row grew fused counters (7 -> 9 values); both arities
    // parse so pre-extension report artifacts keep loading, with the fused
    // fields defaulting to 0 on legacy rows.
    std::istringstream ls{line};
    std::string k;
    if ((ls >> k) && k == "scheduler") {
      std::vector<std::string> tokens;
      std::string token;
      while (ls >> token) tokens.push_back(token);
      if (tokens.size() != 7 && tokens.size() != 9)
        throw std::runtime_error("serialization: bad scheduler row");
      scheduler_note note;
      std::uint64_t* const fields[] = {&note.submitted, &note.admitted, &note.coalesced,
                                       &note.rejected,  &note.expired,  &note.completed,
                                       &note.failed,    &note.fused,    &note.fused_batches};
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        try {
          parse_token(tokens[i], *fields[i]);
        } catch (const std::exception&) {
          throw std::runtime_error("serialization: bad value for scheduler");
        }
      }
      s.scheduler = note;
      line = next_line(is, "entries");
    }
  }
  {
    refresh_note note;
    if (try_parse_row(line, "refresh", note.observed, note.logged, note.attempts, note.promotions,
                      note.rejections, note.epoch, note.last_candidate_tau,
                      note.last_incumbent_tau)) {
      s.refresh = note;
      line = next_line(is, "entries");
    }
  }
  {
    // Optional co-location scenario line (format extension, after refresh).
    scenario_note note;
    if (try_parse_row(line, "scenario", note.residents, note.reserved_units,
                      note.dvfs_capped_units, note.resident_interconnect_gbps,
                      note.resident_dram_gbps, note.resident_power_w, note.ambient_c,
                      note.throttle_c)) {
      s.scenario = note;
      line = next_line(is, "entries");
    }
  }
  std::size_t n = 0;
  if (!try_parse_row(line, "entries", n))
    throw std::runtime_error("serialization: expected entries");
  if (n == 0) throw std::runtime_error("report_summary_from_text: empty report");
  if (s.ours_latency_index >= n || s.ours_energy_index >= n)
    throw std::runtime_error("report_summary_from_text: pick index out of range");

  s.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    summary_entry e;
    e.label = read_tail(is, "entry");
    e.feasible = read_sized(is, "feasible") != 0;
    e.objective = read_scalar(is, "objective");
    e.avg_latency_ms = read_scalar(is, "avg_latency_ms");
    e.avg_energy_mj = read_scalar(is, "avg_energy_mj");
    e.accuracy_pct = read_scalar(is, "accuracy_pct");
    e.fmap_reuse_pct = read_scalar(is, "fmap_reuse_pct");
    e.config = read_configuration(is);
    s.entries.push_back(std::move(e));
  }
  return s;
}

void save_report_summary(const std::string& path, const report_summary& summary) {
  spill(path, to_text(summary), "save_report_summary");
}

report_summary load_report_summary(const std::string& path) {
  return report_summary_from_text(slurp(path, "load_report_summary"));
}

std::string to_text(const std::vector<trace_record>& trace) {
  std::ostringstream os;
  os << trace_tag << "\n";
  write_row(os, "records", trace.size());
  for (const trace_record& r : trace) {
    write_row(os, "record", r.arrival_us, r.priority, r.deadline_ms);
    // Lanes and fingerprints may contain spaces (never newlines — both are
    // single-line by construction), so each gets its own tail-form line.
    os << "lane " << r.lane << "\n";
    os << "fingerprint " << r.fingerprint << "\n";
  }
  return os.str();
}

std::vector<trace_record> trace_from_text(const std::string& text) {
  std::istringstream is{text};
  if (next_line(is, "header") != trace_tag)
    throw std::runtime_error("trace_from_text: bad header");
  const std::size_t n = read_sized(is, "records");
  std::vector<trace_record> trace;
  trace.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace_record r;
    read_row(is, "record", r.arrival_us, r.priority, r.deadline_ms);
    r.lane = read_tail(is, "lane");
    r.fingerprint = read_tail(is, "fingerprint");
    trace.push_back(std::move(r));
  }
  return trace;
}

void save_trace(const std::string& path, const std::vector<trace_record>& trace) {
  spill(path, to_text(trace), "save_trace");
}

std::vector<trace_record> load_trace(const std::string& path) {
  return trace_from_text(slurp(path, "load_trace"));
}

namespace {

/// One length-prefixed vector row: `key n v1 .. vn`. Self-delimiting so the
/// eval block needs no section markers.
void write_vector_row(std::ostream& os, const char* key, const std::vector<double>& v) {
  os << key << ' ' << v.size();
  for (const double x : v) os << ' ' << x;
  os << '\n';
}

std::vector<double> read_vector_row(std::istream& is, const char* key) {
  std::istringstream ls{next_line(is, key)};
  std::string k;
  if (!(ls >> k) || k != key)
    throw std::runtime_error(std::string("serialization: expected ") + key);
  std::size_t n = 0;
  if (!(ls >> n)) throw std::runtime_error(std::string("serialization: short row for ") + key);
  std::vector<double> v(n);
  for (double& x : v) {
    std::string token;
    if (!(ls >> token)) throw std::runtime_error(std::string("serialization: short row for ") + key);
    try {
      parse_token(token, x);
    } catch (const std::exception&) {
      throw std::runtime_error(std::string("serialization: bad value for ") + key);
    }
  }
  return v;
}

}  // namespace

void write_evaluation(std::ostream& os, const evaluation& e) {
  os.precision(17);
  os << eval_tag << "\n";
  write_row(os, "feasible", e.feasible ? 1 : 0);
  os << "reject_reason " << e.reject_reason << "\n";
  write_row(os, "objective", e.objective);
  write_row(os, "avg_latency_ms", e.avg_latency_ms);
  write_row(os, "avg_energy_mj", e.avg_energy_mj);
  write_row(os, "worst_latency_ms", e.worst_latency_ms);
  write_row(os, "worst_energy_mj", e.worst_energy_mj);
  write_row(os, "accuracy_pct", e.accuracy_pct);
  write_row(os, "last_stage_accuracy_pct", e.last_stage_accuracy_pct);
  write_row(os, "fmap_reuse_pct", e.fmap_reuse_pct);
  write_row(os, "stored_fmap_bytes", e.stored_fmap_bytes);
  write_row(os, "fmap_traffic_bytes", e.fmap_traffic_bytes);
  write_vector_row(os, "stage_latency_ms", e.stage_latency_ms);
  write_vector_row(os, "stage_energy_mj", e.stage_energy_mj);
  write_vector_row(os, "stage_accuracy_pct", e.stage_accuracy_pct);
  write_vector_row(os, "exit_fractions", e.exit_fractions);
  write_configuration(os, e.config);
}

evaluation read_evaluation(std::istream& is) {
  if (next_line(is, "header") != eval_tag)
    throw std::runtime_error("read_evaluation: bad header");
  evaluation e;
  e.feasible = read_sized(is, "feasible") != 0;
  e.reject_reason = read_tail(is, "reject_reason");
  e.objective = read_scalar(is, "objective");
  e.avg_latency_ms = read_scalar(is, "avg_latency_ms");
  e.avg_energy_mj = read_scalar(is, "avg_energy_mj");
  e.worst_latency_ms = read_scalar(is, "worst_latency_ms");
  e.worst_energy_mj = read_scalar(is, "worst_energy_mj");
  e.accuracy_pct = read_scalar(is, "accuracy_pct");
  e.last_stage_accuracy_pct = read_scalar(is, "last_stage_accuracy_pct");
  e.fmap_reuse_pct = read_scalar(is, "fmap_reuse_pct");
  e.stored_fmap_bytes = read_scalar(is, "stored_fmap_bytes");
  e.fmap_traffic_bytes = read_scalar(is, "fmap_traffic_bytes");
  e.stage_latency_ms = read_vector_row(is, "stage_latency_ms");
  e.stage_energy_mj = read_vector_row(is, "stage_energy_mj");
  e.stage_accuracy_pct = read_vector_row(is, "stage_accuracy_pct");
  e.exit_fractions = read_vector_row(is, "exit_fractions");
  e.config = read_configuration(is);
  return e;
}

}  // namespace mapcq::core

#include "serving/session_snapshot.h"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

#include "core/serialization.h"
#include "util/hashing.h"
#include "util/text_rows.h"

namespace mapcq::serving {

namespace {

constexpr const char* snapshot_tag = "mapcq-snapshot-v1";

using util::next_line;
using util::parse_token;
using util::read_row;
using util::read_sized;
using util::read_tail;
using util::write_row;

bool read_flag(std::istream& is, const char* key) {
  std::size_t v = 0;
  read_row(is, key, v);
  if (v > 1) throw snapshot_error(std::string("bad flag for ") + key);
  return v == 1;
}

// --- evaluation lists -------------------------------------------------------

void write_entries(std::ostream& os, const char* key,
                   const std::vector<core::evaluation>& entries) {
  write_row(os, key, entries.size());
  for (const core::evaluation& e : entries) core::write_evaluation(os, e);
}

std::vector<core::evaluation> read_entries(std::istream& is, const char* key) {
  const std::size_t n = read_sized(is, key);
  std::vector<core::evaluation> entries;
  entries.reserve(n);
  // read_evaluation throws std::runtime_error; snapshot_from_text's outer
  // catch retypes it, keeping every failure a snapshot_error.
  for (std::size_t i = 0; i < n; ++i) entries.push_back(core::read_evaluation(is));
  return entries;
}

// --- fitted ensembles -------------------------------------------------------

void write_ensemble(std::ostream& os, const char* name, const surrogate::fitted_ensemble& ens) {
  os << "ensemble " << name << ' ' << ens.trees.size() << ' ' << ens.base << ' ' << ens.train_rmse
     << '\n';
  for (const surrogate::regression_tree& tree : ens.trees) {
    write_row(os, "tree", tree.depth(), tree.node_count());
    for (const surrogate::regression_tree::node& nd : tree.nodes())
      write_row(os, "node", nd.leaf ? 1 : 0, nd.feature, nd.threshold, nd.value, nd.gain, nd.left,
                nd.right);
  }
}

surrogate::fitted_ensemble read_ensemble(std::istream& is, const char* name) {
  std::size_t tree_count = 0;
  surrogate::fitted_ensemble ens;
  {
    std::istringstream ls{next_line(is, "ensemble")};
    std::string k;
    std::string got;
    if (!(ls >> k >> got) || k != "ensemble" || got != name)
      throw snapshot_error(std::string("expected ensemble ") + name);
    if (!(ls >> tree_count >> ens.base >> ens.train_rmse))
      throw snapshot_error(std::string("short ensemble header for ") + name);
  }
  ens.trees.reserve(tree_count);
  for (std::size_t t = 0; t < tree_count; ++t) {
    int depth = 0;
    std::size_t node_count = 0;
    read_row(is, "tree", depth, node_count);
    std::vector<surrogate::regression_tree::node> nodes;
    nodes.reserve(node_count);
    for (std::size_t i = 0; i < node_count; ++i) {
      surrogate::regression_tree::node nd;
      std::size_t leaf = 0;
      read_row(is, "node", leaf, nd.feature, nd.threshold, nd.value, nd.gain, nd.left, nd.right);
      nd.leaf = leaf != 0;
      nodes.push_back(nd);
    }
    // The restore constructor validates structure (non-empty, child indices
    // in range); its invalid_argument is retyped by the outer catch.
    ens.trees.emplace_back(std::move(nodes), depth);
  }
  return ens;
}

// --- datasets ---------------------------------------------------------------

void write_dataset(std::ostream& os, const char* name, const surrogate::dataset& ds) {
  os << "dataset " << name << ' ' << ds.size() << '\n';
  for (std::size_t i = 0; i < ds.size(); ++i) {
    os << "row " << ds.x[i].size();
    for (const double v : ds.x[i]) os << ' ' << v;
    os << ' ' << ds.latency_ms[i] << ' ' << ds.energy_mj[i] << '\n';
  }
}

surrogate::dataset read_dataset(std::istream& is, const char* name) {
  std::size_t rows = 0;
  {
    std::istringstream ls{next_line(is, "dataset")};
    std::string k;
    std::string got;
    if (!(ls >> k >> got >> rows) || k != "dataset" || got != name)
      throw snapshot_error(std::string("expected dataset ") + name);
  }
  surrogate::dataset ds;
  for (std::size_t i = 0; i < rows; ++i) {
    std::istringstream ls{next_line(is, "dataset row")};
    std::string k;
    std::size_t width = 0;
    if (!(ls >> k >> width) || k != "row") throw snapshot_error("expected dataset row");
    std::vector<double> x(width);
    double lat = 0.0;
    double en = 0.0;
    const auto next = [&](double& out) {
      std::string token;
      if (!(ls >> token)) throw snapshot_error("short dataset row");
      try {
        parse_token(token, out);
      } catch (const std::exception&) {
        throw snapshot_error("bad value in dataset row");
      }
    };
    for (double& v : x) next(v);
    next(lat);
    next(en);
    ds.add_row(std::move(x), lat, en);
  }
  return ds;
}

session_snapshot parse_snapshot(std::istream& is) {
  if (next_line(is, "header") != snapshot_tag) throw snapshot_error("bad header");
  session_snapshot snap;
  snap.session_key = read_tail(is, "session_key");
  snap.analytic_entries = read_entries(is, "analytic_entries");

  if (read_flag(is, "surrogate")) {
    session_snapshot::surrogate_state ss;
    std::size_t contention = 0;
    read_row(is, "bench", ss.bench.samples, ss.bench.noise_stddev, ss.bench.seed,
             ss.bench.model.bandwidth_contention, contention);
    ss.bench.model.enable_contention = contention != 0;
    std::size_t log_target = 0;
    read_row(is, "gbt", ss.gbt.n_trees, ss.gbt.learning_rate, ss.gbt.subsample, ss.gbt.seed,
             log_target, ss.gbt.tree.max_depth, ss.gbt.tree.min_samples_leaf, ss.gbt.tree.lambda,
             ss.gbt.tree.min_gain);
    ss.gbt.log_target = log_target != 0;
    read_row(is, "fidelity", ss.fidelity.latency_rmse, ss.fidelity.latency_mape,
             ss.fidelity.latency_r2, ss.fidelity.energy_rmse, ss.fidelity.energy_mape,
             ss.fidelity.energy_r2);
    read_row(is, "predictor_epoch", ss.predictor_epoch);
    ss.latency = read_ensemble(is, "latency");
    ss.energy = read_ensemble(is, "energy");
    ss.entries = read_entries(is, "surrogate_entries");
    snap.surrogate = std::move(ss);
  }

  if (read_flag(is, "refresh")) {
    session_snapshot::refresh_state rs;
    rs.base_train = read_dataset(is, "base_train");
    rs.log_rows = read_dataset(is, "log");
    read_row(is, "log_seen", rs.log_seen);
    snap.refresh = std::move(rs);
  }
  return snap;
}

}  // namespace

snapshot_error::snapshot_error(const std::string& message)
    : std::runtime_error("snapshot: " + message) {}

std::string to_text(const session_snapshot& snap) {
  std::ostringstream os;
  os.precision(17);
  os << snapshot_tag << '\n';
  os << "session_key " << snap.session_key << '\n';
  write_entries(os, "analytic_entries", snap.analytic_entries);

  write_row(os, "surrogate", snap.surrogate ? 1 : 0);
  if (snap.surrogate) {
    const session_snapshot::surrogate_state& ss = *snap.surrogate;
    write_row(os, "bench", ss.bench.samples, ss.bench.noise_stddev, ss.bench.seed,
              ss.bench.model.bandwidth_contention, ss.bench.model.enable_contention ? 1 : 0);
    write_row(os, "gbt", ss.gbt.n_trees, ss.gbt.learning_rate, ss.gbt.subsample, ss.gbt.seed,
              ss.gbt.log_target ? 1 : 0, ss.gbt.tree.max_depth, ss.gbt.tree.min_samples_leaf,
              ss.gbt.tree.lambda, ss.gbt.tree.min_gain);
    write_row(os, "fidelity", ss.fidelity.latency_rmse, ss.fidelity.latency_mape,
              ss.fidelity.latency_r2, ss.fidelity.energy_rmse, ss.fidelity.energy_mape,
              ss.fidelity.energy_r2);
    write_row(os, "predictor_epoch", ss.predictor_epoch);
    write_ensemble(os, "latency", ss.latency);
    write_ensemble(os, "energy", ss.energy);
    write_entries(os, "surrogate_entries", ss.entries);
  }

  write_row(os, "refresh", snap.refresh ? 1 : 0);
  if (snap.refresh) {
    const session_snapshot::refresh_state& rs = *snap.refresh;
    write_dataset(os, "base_train", rs.base_train);
    write_dataset(os, "log", rs.log_rows);
    write_row(os, "log_seen", rs.log_seen);
  }
  return os.str();
}

session_snapshot snapshot_from_text(const std::string& text) {
  std::istringstream is{text};
  try {
    return parse_snapshot(is);
  } catch (const snapshot_error&) {
    throw;
  } catch (const std::exception& e) {
    // The shared row readers (util/text_rows.h) and the embedded-block
    // parsers (mapcq-eval-v1, the tree restore constructors) throw
    // runtime_error/invalid_argument; a snapshot consumer sees one typed
    // failure mode regardless of which section was corrupt.
    throw snapshot_error(e.what());
  }
}

void save_snapshot(const std::string& path, const session_snapshot& snap) {
  // Write a temp file and rename it over the target, so a failed or
  // interrupted save never touches the previous snapshot. The temp name is
  // unique per write: spills of one session key can race.
  static std::atomic<std::uint64_t> writes{0};
  const std::string text = to_text(snap);
  const std::string tmp = path + ".tmp-" + std::to_string(writes.fetch_add(1));
  const auto fail = [&tmp](const std::string& message) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw snapshot_error(message);
  };
  {
    std::ofstream out{tmp};
    if (!out) fail("cannot open " + tmp);
    out << text;
    out.close();
    if (!out) fail("write failed for " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) fail("cannot replace " + path + ": " + ec.message());
}

session_snapshot load_snapshot(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw snapshot_error("cannot open " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return snapshot_from_text(buf.str());
}

std::string snapshot_filename(const std::string& session_key) {
  std::ostringstream os;
  os << std::hex << util::stable_hash64(session_key) << ".snapshot";
  return os.str();
}

}  // namespace mapcq::serving

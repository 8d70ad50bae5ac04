// Durable session snapshot tests: mapcq-snapshot-v1 round-trips, typed
// parse failures on corrupt/truncated input, spill-on-evict + warm-start
// restore through mapping_service (bit-identical reports at zero evaluator
// runs), GBT adoption without retraining, snapshot/refresh epoch
// consistency, and a corrupt tree that fails to restore instead of hanging.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "nn/models.h"
#include "serving/mapping_service.h"
#include "serving/session_snapshot.h"
#include "soc/platform.h"

namespace {

using namespace mapcq;
using serving::mapping_report;
using serving::mapping_request;
using serving::mapping_service;
using serving::service_options;
using serving::session_snapshot;
using serving::snapshot_error;

/// Fresh empty directory under /tmp, unique per test, removed on teardown.
class snapshot_dir {
 public:
  explicit snapshot_dir(const std::string& name)
      : path_("/tmp/mapcq_snap_" + name) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~snapshot_dir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

service_options persistent_service(const std::string& dir) {
  service_options opt;
  opt.engine.threads = 2;
  opt.snapshot.directory = dir;
  opt.snapshot.spill_on_evict = true;
  return opt;
}

mapping_request tiny_request(const std::string& network, bool use_surrogate = false,
                             std::uint64_t seed = 1) {
  mapping_request req;
  req.network = network;
  req.use_surrogate = use_surrogate;
  req.ga.generations = 4;
  req.ga.population = 12;
  req.ga.seed = seed;
  req.bench.samples = 250;
  req.gbt.n_trees = 24;
  return req;
}

void expect_identical_fronts(const mapping_report& a, const mapping_report& b) {
  ASSERT_EQ(a.front.size(), b.front.size());
  EXPECT_EQ(a.ours_latency_index, b.ours_latency_index);
  EXPECT_EQ(a.ours_energy_index, b.ours_energy_index);
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_TRUE(a.front[i].config == b.front[i].config);
    EXPECT_EQ(a.front[i].objective, b.front[i].objective);
    EXPECT_EQ(a.front[i].avg_latency_ms, b.front[i].avg_latency_ms);
    EXPECT_EQ(a.front[i].avg_energy_mj, b.front[i].avg_energy_mj);
    EXPECT_EQ(a.front[i].accuracy_pct, b.front[i].accuracy_pct);
  }
}

struct snapshot_fixture : ::testing::Test {
  nn::network cnn = nn::build_simple_cnn();
  nn::network mobile = nn::build_mobilenet_cifar();
  soc::platform plat = soc::agx_xavier();

  void register_all(mapping_service& service) {
    service.register_network(cnn);
    service.register_network(mobile);
    service.register_platform(plat);
  }
};

// --- text format ------------------------------------------------------------

TEST_F(snapshot_fixture, snapshot_text_round_trips_exactly) {
  snapshot_dir dir{"round_trip"};
  mapping_service service{persistent_service(dir.path())};
  register_all(service);
  (void)service.map(tiny_request(cnn.name, /*use_surrogate=*/true));
  (void)service.map(tiny_request(cnn.name, /*use_surrogate=*/false, 2));

  const auto session = service.session_for(tiny_request(cnn.name));
  const session_snapshot snap = session->snapshot();
  EXPECT_EQ(snap.session_key, session->key());
  EXPECT_FALSE(snap.analytic_entries.empty());
  ASSERT_TRUE(snap.surrogate.has_value());
  EXPECT_FALSE(snap.surrogate->entries.empty());
  EXPECT_FALSE(snap.surrogate->latency.trees.empty());

  // Serialize -> parse -> serialize is a fixed point: byte-identical text.
  const std::string text = serving::to_text(snap);
  const session_snapshot reparsed = serving::snapshot_from_text(text);
  EXPECT_EQ(serving::to_text(reparsed), text);
  EXPECT_EQ(reparsed.session_key, snap.session_key);
  EXPECT_EQ(reparsed.analytic_entries.size(), snap.analytic_entries.size());
  ASSERT_TRUE(reparsed.surrogate.has_value());
  EXPECT_EQ(reparsed.surrogate->entries.size(), snap.surrogate->entries.size());
  EXPECT_EQ(reparsed.surrogate->latency.trees.size(), snap.surrogate->latency.trees.size());
  EXPECT_EQ(reparsed.surrogate->fidelity.latency_rmse, snap.surrogate->fidelity.latency_rmse);
}

TEST_F(snapshot_fixture, corrupt_and_truncated_snapshots_throw_typed_errors) {
  snapshot_dir dir{"corrupt"};
  mapping_service service{persistent_service(dir.path())};
  register_all(service);
  (void)service.map(tiny_request(cnn.name));
  const auto session = service.session_for(tiny_request(cnn.name));
  const std::string text = serving::to_text(session->snapshot());

  // Wrong header / not a snapshot at all.
  EXPECT_THROW((void)serving::snapshot_from_text(""), snapshot_error);
  EXPECT_THROW((void)serving::snapshot_from_text("mapcq-snapshot-v999\n"), snapshot_error);
  EXPECT_THROW((void)serving::snapshot_from_text("garbage\nlines\n"), snapshot_error);

  // Truncation at any prefix must throw, never crash or return junk.
  for (const double frac : {0.1, 0.5, 0.9}) {
    const std::string cut = text.substr(0, static_cast<std::size_t>(text.size() * frac));
    EXPECT_THROW((void)serving::snapshot_from_text(cut), snapshot_error) << "fraction " << frac;
  }

  // Field-level corruption: replace a numeric token with text.
  std::string corrupt = text;
  const std::size_t pos = corrupt.find("objective ");
  ASSERT_NE(pos, std::string::npos);
  corrupt.replace(pos, 10, "objective not-a-num-");
  EXPECT_THROW((void)serving::snapshot_from_text(corrupt), snapshot_error);

  // File wrappers: missing file is a typed error too.
  EXPECT_THROW((void)serving::load_snapshot(dir.path() + "/nope.snapshot"), snapshot_error);
}

TEST_F(snapshot_fixture, save_replaces_the_previous_snapshot_whole) {
  snapshot_dir dir{"replace"};
  mapping_service service{persistent_service(dir.path())};
  register_all(service);
  (void)service.map(tiny_request(cnn.name));
  (void)service.map(tiny_request(mobile.name));
  const session_snapshot first = service.session_for(tiny_request(cnn.name))->snapshot();
  const session_snapshot second = service.session_for(tiny_request(mobile.name))->snapshot();

  const std::string target = dir.path() + "/target.snapshot";
  serving::save_snapshot(target, first);
  std::ifstream reader{target};  // holds the previous snapshot open
  ASSERT_TRUE(reader);
  serving::save_snapshot(target, second);
  const std::string held{std::istreambuf_iterator<char>{reader}, {}};
  EXPECT_EQ(held, serving::to_text(first));
  EXPECT_EQ(serving::to_text(serving::load_snapshot(target)), serving::to_text(second));

  // A save that cannot complete throws and leaves no temp file behind.
  const std::string blocked = dir.path() + "/blocked.snapshot";
  std::filesystem::create_directories(blocked + "/occupant");
  EXPECT_THROW(serving::save_snapshot(blocked, second), snapshot_error);
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path()))
    names.push_back(entry.path().filename().string());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"blocked.snapshot", "target.snapshot"}));
}

TEST_F(snapshot_fixture, restore_refuses_key_mismatch_and_non_fresh_sessions) {
  snapshot_dir dir{"refuse"};
  mapping_service service{persistent_service(dir.path())};
  register_all(service);
  (void)service.map(tiny_request(cnn.name));
  (void)service.map(tiny_request(mobile.name));

  const auto cnn_session = service.session_for(tiny_request(cnn.name));
  const auto mobile_session = service.session_for(tiny_request(mobile.name));
  const session_snapshot snap = cnn_session->snapshot();

  // Key mismatch: a snapshot must not warm a session with different knobs.
  EXPECT_THROW(mobile_session->restore(snap), snapshot_error);
  // Non-fresh: the cnn session already served traffic.
  EXPECT_THROW(cnn_session->restore(snap), std::logic_error);
}

// --- spill / warm-start through the service ---------------------------------

TEST_F(snapshot_fixture, restarted_service_serves_warm_bit_identical_reports) {
  snapshot_dir dir{"restart"};
  const mapping_request analytic = tiny_request(cnn.name);
  const mapping_request surrogate = tiny_request(cnn.name, /*use_surrogate=*/true);

  mapping_report cold_analytic, cold_surrogate;
  {
    mapping_service service{persistent_service(dir.path())};
    register_all(service);
    cold_analytic = service.map(analytic);
    cold_surrogate = service.map(surrogate);
    EXPECT_GT(cold_analytic.search_cache.misses, 0u);
    EXPECT_TRUE(cold_surrogate.trained_surrogate);
    EXPECT_EQ(service.spill_sessions(), 1u);
    EXPECT_EQ(service.sessions_spilled(), 1u);
    EXPECT_EQ(service.spill_failures(), 0u);
  }  // service destroyed: the "process restart"

  mapping_service revived{persistent_service(dir.path())};
  register_all(revived);
  const mapping_report warm_analytic = revived.map(analytic);
  EXPECT_EQ(revived.sessions_restored(), 1u);
  EXPECT_EQ(revived.restore_failures(), 0u);
  // Every candidate the warm search visits was evaluated before the
  // restart: zero evaluator runs, bit-identical report.
  EXPECT_EQ(warm_analytic.search_cache.misses, 0u);
  EXPECT_EQ(warm_analytic.validation_cache.misses, 0u);
  expect_identical_fronts(cold_analytic, warm_analytic);

  // The surrogate survived too: no retraining, same fidelity, warm cache.
  const mapping_report warm_surrogate = revived.map(surrogate);
  EXPECT_FALSE(warm_surrogate.trained_surrogate);
  EXPECT_EQ(warm_surrogate.search_cache.misses, 0u);
  ASSERT_TRUE(warm_surrogate.surrogate_fidelity.has_value());
  ASSERT_TRUE(cold_surrogate.surrogate_fidelity.has_value());
  EXPECT_EQ(warm_surrogate.surrogate_fidelity->latency_rmse,
            cold_surrogate.surrogate_fidelity->latency_rmse);
  EXPECT_EQ(warm_surrogate.surrogate_fidelity->energy_rmse,
            cold_surrogate.surrogate_fidelity->energy_rmse);
  expect_identical_fronts(cold_surrogate, warm_surrogate);

  // A restore adopts the snapshot's ensembles without filling the predictor
  // pool: another session with the same training knobs still fits.
  mapping_request other = surrogate;
  other.ranking_seed ^= 1;
  EXPECT_TRUE(revived.map(other).trained_surrogate);
}

TEST_F(snapshot_fixture, lru_eviction_spills_and_a_later_request_warm_starts) {
  snapshot_dir dir{"evict"};
  service_options opt = persistent_service(dir.path());
  opt.max_sessions = 1;  // the second session evicts the first
  mapping_service service{opt};
  register_all(service);

  const mapping_request req = tiny_request(cnn.name);
  const mapping_report cold = service.map(req);
  (void)service.map(tiny_request(mobile.name));  // evicts + spills the cnn session
  EXPECT_EQ(service.sessions_evicted(), 1u);
  EXPECT_EQ(service.sessions_spilled(), 1u);

  const mapping_report warm = service.map(req);  // rebuilds from the spill
  EXPECT_EQ(service.sessions_restored(), 1u);
  EXPECT_EQ(warm.search_cache.misses, 0u);
  expect_identical_fronts(cold, warm);
}

TEST_F(snapshot_fixture, corrupt_spill_file_falls_back_to_a_cold_session) {
  snapshot_dir dir{"fallback"};
  const mapping_request req = tiny_request(cnn.name);
  {
    mapping_service service{persistent_service(dir.path())};
    register_all(service);
    (void)service.map(req);
    (void)service.spill_sessions();
  }
  // Vandalize the one snapshot file.
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    std::ofstream out{entry.path()};
    out << "mapcq-snapshot-v1\ntruncated";
  }

  mapping_service revived{persistent_service(dir.path())};
  register_all(revived);
  const mapping_report cold = revived.map(req);  // restore fails, serves cold
  EXPECT_EQ(revived.sessions_restored(), 0u);
  EXPECT_EQ(revived.restore_failures(), 1u);
  EXPECT_GT(cold.search_cache.misses, 0u);  // really cold, not half-warm
}

TEST_F(snapshot_fixture, snapshot_with_a_backward_tree_link_fails_to_restore) {
  snapshot_dir dir{"backward_link"};
  {
    mapping_service service{persistent_service(dir.path())};
    register_all(service);
    (void)service.map(tiny_request(cnn.name, /*use_surrogate=*/true));
    ASSERT_EQ(service.spill_sessions(), 1u);
  }

  // Point the first split node's left child back at itself. The first
  // internal node of a snapshot is a tree's root (index 0): a root that is
  // a leaf is the whole tree. Accepting this tree would leave predict()
  // looping forever on every row that goes left.
  const auto file = std::filesystem::directory_iterator(dir.path())->path();
  std::string text;
  {
    std::ifstream in{file};
    text.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
  }
  const std::size_t at = text.find("\nnode 0 ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t end = text.find('\n', at + 1);
  std::istringstream fields{text.substr(at + 1, end - at - 1)};
  std::vector<std::string> tok{std::istream_iterator<std::string>{fields}, {}};
  ASSERT_EQ(tok.size(), 8u);  // node leaf feature threshold value gain left right
  ASSERT_EQ(tok[6], "1");
  tok[6] = "0";
  std::string line = tok[0];
  for (std::size_t i = 1; i < tok.size(); ++i) line += ' ' + tok[i];
  text.replace(at + 1, end - at - 1, line);
  EXPECT_THROW((void)serving::snapshot_from_text(text), snapshot_error);
  {
    std::ofstream out{file};
    out << text;
  }

  // Restoring it fails with an error and the session is served cold. A new
  // GA seed misses the restored memo, so a search on the corrupt trees
  // would have to walk them.
  const mapping_request next = tiny_request(cnn.name, /*use_surrogate=*/true, 2);
  mapping_service revived{persistent_service(dir.path())};
  register_all(revived);
  const mapping_report got = revived.map(next);
  EXPECT_EQ(revived.sessions_restored(), 0u);
  EXPECT_EQ(revived.restore_failures(), 1u);
  EXPECT_TRUE(got.trained_surrogate);

  service_options plain;
  plain.engine.threads = 2;
  mapping_service fresh{plain};
  register_all(fresh);
  expect_identical_fronts(fresh.map(next), got);
}

// --- refresh interaction ----------------------------------------------------

TEST_F(snapshot_fixture, snapshot_captures_consistent_predictor_epoch_and_reservoir) {
  snapshot_dir dir{"refresh"};
  service_options opt = persistent_service(dir.path());
  opt.engine.threads = 1;
  opt.refresh.enabled = true;
  opt.refresh.synchronous = true;
  opt.refresh.min_new_samples = 1;
  opt.refresh.promotion_margin = 2.0;  // impossible: epoch stays 0
  mapping_service service{opt};
  register_all(service);

  mapping_request surrogate = tiny_request(cnn.name, /*use_surrogate=*/true);
  surrogate.bench.noise_stddev = 0.6;
  (void)service.map(surrogate);                                      // trains + arms pipeline
  const auto analytic = service.map(tiny_request(cnn.name, false, 2));  // feeds the log
  ASSERT_TRUE(analytic.refresh.has_value());
  EXPECT_GT(analytic.refresh->logged, 0u);

  const auto session = service.session_for(tiny_request(cnn.name));
  const session_snapshot snap = session->snapshot();
  ASSERT_TRUE(snap.surrogate.has_value());
  ASSERT_TRUE(snap.refresh.has_value());
  // No promotion happened, so the captured pair must be (epoch 0 model,
  // epoch 0 entries); the reservoir carries what the log observed.
  EXPECT_EQ(snap.surrogate->predictor_epoch, 0u);
  EXPECT_GT(snap.refresh->log_seen, 0u);
  EXPECT_EQ(snap.refresh->log_rows.size(), analytic.refresh->logged);
  EXPECT_FALSE(snap.refresh->base_train.size() == 0);

  // Round-trip the refresh state through text too.
  const session_snapshot reparsed = serving::snapshot_from_text(serving::to_text(snap));
  ASSERT_TRUE(reparsed.refresh.has_value());
  EXPECT_EQ(reparsed.refresh->log_seen, snap.refresh->log_seen);
  EXPECT_EQ(reparsed.refresh->log_rows.size(), snap.refresh->log_rows.size());

  // A restored session keeps refreshing: spill, revive, drive an attempt.
  (void)service.spill_sessions();
  mapping_service revived{opt};
  register_all(revived);
  const auto warm = revived.map(tiny_request(cnn.name, false, 3));
  EXPECT_EQ(revived.sessions_restored(), 1u);
  ASSERT_TRUE(warm.refresh.has_value());
  EXPECT_GE(warm.refresh->attempts, 1u);
}

}  // namespace

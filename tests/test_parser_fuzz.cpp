// Property/fuzz layer for every line-oriented parser in the tree:
// mapcq-config-v1, mapcq-report-v1, mapcq-trace-v1, mapcq-eval-v1,
// mapcq-snapshot-v1, util::json, and the serving config on top of it.
//
// The property: feeding a parser any corruption of a valid document —
// random truncation, byte mutation, line reordering — must either succeed
// (some corruptions are still valid documents) or raise that parser's
// *documented* error type. Anything else escaping (a different exception, a
// crash, an ASan report) fails the suite. Mutations are deterministic
// (seeded util::rng), ≥ 1000 per format.

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialization.h"
#include "nn/models.h"
#include "serving/service_config.h"
#include "serving/session.h"
#include "serving/session_snapshot.h"
#include "soc/contention.h"
#include "soc/platform.h"
#include "soc/thermal.h"
#include "util/json.h"
#include "util/rng.h"

namespace {

using namespace mapcq;

constexpr std::size_t kMutationsPerFormat = 1200;

// --- mutation operators -------------------------------------------------------

std::string truncate(const std::string& text, util::rng& gen) {
  if (text.empty()) return text;
  const auto cut = static_cast<std::size_t>(
      gen.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
  return text.substr(0, cut);
}

std::string mutate_bytes(const std::string& text, util::rng& gen) {
  if (text.empty()) return text;
  std::string out = text;
  const auto n = static_cast<std::size_t>(gen.uniform_int(1, 4));
  for (std::size_t i = 0; i < n; ++i) {
    const auto pos = static_cast<std::size_t>(
        gen.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1));
    out[pos] = static_cast<char>(gen.uniform_int(0, 255));
  }
  return out;
}

std::string reorder_lines(const std::string& text, util::rng& gen) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  gen.shuffle(lines);
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// One parser under fuzz: a corpus of valid documents and a parse callback
/// that swallows exactly the documented error type(s) and lets everything
/// else escape to gtest/ASan.
struct fuzz_target {
  const char* name;
  std::vector<std::string> corpus;
  std::function<void(const std::string&)> parse;
};

void fuzz(const fuzz_target& target) {
  ASSERT_FALSE(target.corpus.empty()) << target.name;
  // Sanity: the unmutated corpus must parse (the "valid" in valid corpus).
  for (const std::string& doc : target.corpus)
    ASSERT_NO_THROW(target.parse(doc)) << target.name << ": corpus document does not parse";

  util::rng gen{0xF722D00DULL};
  std::size_t survived = 0;
  for (std::size_t i = 0; i < kMutationsPerFormat; ++i) {
    const std::string& doc = target.corpus[i % target.corpus.size()];
    std::string mutated;
    switch (gen.uniform_int(0, 2)) {
      case 0: mutated = truncate(doc, gen); break;
      case 1: mutated = mutate_bytes(doc, gen); break;
      default: mutated = reorder_lines(doc, gen); break;
    }
    SCOPED_TRACE(std::string(target.name) + " mutation #" + std::to_string(i));
    target.parse(mutated);  // throws anything non-typed -> test failure
    ++survived;
  }
  EXPECT_EQ(survived, kMutationsPerFormat);
}

// --- corpora ------------------------------------------------------------------

struct fuzz_fixture : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();
  core::search_space space{net, plat};
  core::evaluator eval{net, plat, {}};

  std::vector<core::configuration> sample_configs(std::size_t n) {
    util::rng gen{42};
    std::vector<core::configuration> configs;
    configs.push_back(space.decode(space.static_seed()));
    while (configs.size() < n) configs.push_back(space.decode(space.random(gen)));
    return configs;
  }
};

TEST_F(fuzz_fixture, configuration_text_never_fails_untyped) {
  fuzz_target target;
  target.name = "mapcq-config-v1";
  for (const auto& c : sample_configs(4)) target.corpus.push_back(core::to_text(c));
  target.parse = [](const std::string& text) {
    try {
      (void)core::configuration_from_text(text);
    } catch (const std::runtime_error&) {
      // documented typed failure
    }
  };
  fuzz(target);
}

TEST_F(fuzz_fixture, report_summary_text_never_fails_untyped) {
  core::report_summary summary;
  summary.network = net.name;
  summary.platform = plat.name;
  const std::vector<core::configuration> configs = sample_configs(3);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const core::evaluation e = eval.evaluate(configs[i]);
    core::summary_entry entry;
    entry.label = "front-" + std::to_string(i) + (i == 0 ? "+ours-L" : "");
    entry.config = e.config;
    entry.feasible = e.feasible;
    entry.objective = e.objective;
    entry.avg_latency_ms = e.avg_latency_ms;
    entry.avg_energy_mj = e.avg_energy_mj;
    entry.accuracy_pct = e.accuracy_pct;
    entry.fmap_reuse_pct = e.fmap_reuse_pct;
    summary.entries.push_back(std::move(entry));
  }
  // A second corpus document exercises the optional scheduler/refresh/
  // scenario lines, scheduler carrying the fused-dispatch counters (9-field
  // row) and scenario the co-location note.
  core::report_summary with_notes = summary;
  with_notes.scheduler = core::scheduler_note{9, 6, 2, 1, 0, 5, 1, 3, 2};
  with_notes.refresh = core::refresh_note{100, 80, 3, 1, 2, 1, 0.93, 0.88};
  with_notes.scenario = core::scenario_note{2, 1, 3, 4.5, 6.25, 1.5, 25.0, 85.0};

  // A third document carries the pre-fusion 7-field scheduler row (a legacy
  // artifact): rewrite the 9-field line back down to the old arity.
  std::string legacy = core::to_text(with_notes);
  const std::string row9 = "scheduler 9 6 2 1 0 5 1 3 2";
  const std::size_t at = legacy.find(row9);
  ASSERT_NE(at, std::string::npos);
  legacy.replace(at, row9.size(), "scheduler 9 6 2 1 0 5 1");

  fuzz_target target;
  target.name = "mapcq-report-v1";
  target.corpus = {core::to_text(summary), core::to_text(with_notes), legacy};
  target.parse = [](const std::string& text) {
    try {
      (void)core::report_summary_from_text(text);
    } catch (const std::runtime_error&) {
    }
  };
  fuzz(target);
}

TEST_F(fuzz_fixture, trace_text_never_fails_untyped) {
  std::vector<core::trace_record> trace;
  for (std::uint64_t i = 0; i < 6; ++i) {
    core::trace_record r;
    r.arrival_us = 1000 * i;
    r.priority = static_cast<int>(i % 3) - 1;
    r.deadline_ms = i % 2 ? 250 : 0;
    r.lane = "net=visformer|plat=xavier|lane-" + std::to_string(i % 2);
    r.fingerprint = "ga=4,12|seed=" + std::to_string(i);
    trace.push_back(std::move(r));
  }
  fuzz_target target;
  target.name = "mapcq-trace-v1";
  target.corpus = {core::to_text(trace)};
  target.parse = [](const std::string& text) {
    try {
      (void)core::trace_from_text(text);
    } catch (const std::runtime_error&) {
    }
  };
  fuzz(target);
}

TEST_F(fuzz_fixture, evaluation_block_never_fails_untyped) {
  fuzz_target target;
  target.name = "mapcq-eval-v1";
  for (const auto& c : sample_configs(3)) {
    std::ostringstream os;
    core::write_evaluation(os, eval.evaluate(c));
    target.corpus.push_back(os.str());
  }
  target.parse = [](const std::string& text) {
    std::istringstream is{text};
    try {
      (void)core::read_evaluation(is);
    } catch (const std::runtime_error&) {
    }
  };
  fuzz(target);
}

TEST_F(fuzz_fixture, session_snapshot_text_never_fails_untyped) {
  // A real warm session: analytic cache entries plus a (tiny) trained
  // surrogate, so the corpus covers every snapshot section.
  serving::mapping_session session{
      "fuzz-session", std::make_shared<const nn::network>(net),
      std::make_shared<const soc::platform>(plat), core::evaluator_options{}, 8, 0xC0FFEE,
      core::engine_options{}, std::make_shared<serving::predictor_pool>()};
  (void)session.analytic_engine().evaluate_batch(sample_configs(5));
  surrogate::benchmark_options bench;
  bench.samples = 120;
  surrogate::gbt_params gbt;
  gbt.n_trees = 4;
  (void)session.surrogate_engine(bench, gbt);

  fuzz_target target;
  target.name = "mapcq-snapshot-v1";
  target.corpus = {serving::to_text(session.snapshot())};
  target.parse = [](const std::string& text) {
    try {
      (void)serving::snapshot_from_text(text);
    } catch (const serving::snapshot_error&) {
      // the one documented failure type — a bare runtime_error escapes
    }
  };
  fuzz(target);
}

TEST_F(fuzz_fixture, json_parse_never_fails_untyped) {
  fuzz_target target;
  target.name = "util-json";
  target.corpus = {
      serving::dump_config(serving::service_config{}),
      serving::dump_config(serving::service_config{}, 0),
      R"({"a":[1,2.5,-3e4,"séq",true,false,null],"b":{"nested":[[]]},"c":""})",
  };
  target.parse = [](const std::string& text) {
    try {
      (void)util::json::parse(text);
    } catch (const util::json::parse_error&) {
    }
  };
  fuzz(target);
}

TEST_F(fuzz_fixture, service_config_parse_never_fails_untyped) {
  serving::service_config tweaked;
  tweaked.ga.island.islands = 2;
  tweaked.ga.portfolio.islands = {
      core::island_assignment{core::island_algorithm::ga, core::island_orientation::balanced},
      core::island_assignment{core::island_algorithm::sa, core::island_orientation::latency}};
  tweaked.ga.portfolio.prefilter.enabled = true;
  // A config with a fully populated co-location scenario block (residents,
  // caps, thermal), so the scenario bindings sit under the same fuzz.
  serving::service_config colocated;
  soc::resident_load neighbor;
  neighbor.name = "neighbor-dnn";
  neighbor.interconnect_gbps = 2.5;
  neighbor.dram_gbps = 3.5;
  neighbor.power_w = 1.25;
  neighbor.shared_memory_bytes = 1 << 20;
  neighbor.reserved_units = {1};
  colocated.scenario.residents.push_back(neighbor);
  colocated.scenario.dvfs_cap = {3, 2, 3};
  colocated.scenario.thermal = soc::thermal_model{};
  fuzz_target target;
  target.name = "service-config";
  target.corpus = {serving::dump_config(serving::service_config{}), serving::dump_config(tweaked),
                   serving::dump_config(colocated)};
  target.parse = [](const std::string& text) {
    try {
      (void)serving::parse_config(text);
    } catch (const serving::config_error&) {
      // parse_config wraps util::json parse errors into config_error too
    }
  };
  fuzz(target);
}

}  // namespace

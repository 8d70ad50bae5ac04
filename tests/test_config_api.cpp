// Config-API tests: the util::json reader/writer, JSON round-trips for
// every options struct, typed validation errors that name the offending
// key path, dotted-key overrides, the deployment guarantee behind the
// checked-in examples/configs/default.json — a service booted from that
// file produces a mapping_report bit-identical to one booted from
// default-constructed option structs (including the effective_config
// stamp) — and walks over every key to_json emits: each one is documented
// in docs/SERVING.md and keys requests as ARCHITECTURE invariants 3 and 8
// require.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/models.h"
#include "serving/mapping_service.h"
#include "serving/service_config.h"
#include "soc/contention.h"
#include "soc/platform.h"
#include "soc/thermal.h"
#include "util/json.h"

namespace {

using namespace mapcq;
namespace json = util::json;
using serving::config_error;
using serving::service_config;

// --- util::json -------------------------------------------------------------

TEST(json_value, parse_dump_round_trip_preserves_structure) {
  const std::string text =
      R"({"s": "a\n\"b\"", "n": -12.5, "i": 42, "b": true, "z": null, )"
      R"("arr": [1, 2, 3], "nested": {"k": [{"deep": false}]}})";
  const json::value v = json::parse(text);
  EXPECT_EQ(v.as_object().size(), 7u);
  EXPECT_EQ(v.find("s")->as_string(), "a\n\"b\"");
  EXPECT_EQ(v.find("n")->as_number(), -12.5);
  EXPECT_EQ(v.find("arr")->as_array().size(), 3u);
  // dump -> parse -> dump is a fixed point (insertion order preserved).
  const std::string once = json::dump(v);
  EXPECT_EQ(json::dump(json::parse(once)), once);
  // Pretty and compact dumps parse to the same value.
  EXPECT_TRUE(json::parse(json::dump(v, 2)) == v);
}

TEST(json_value, numbers_dump_shortest_round_trip_form) {
  EXPECT_EQ(json::dump(json::value{0.9}), "0.9");
  EXPECT_EQ(json::dump(json::value{0.1 + 0.2}), "0.30000000000000004");
  EXPECT_EQ(json::dump(json::value{42.0}), "42");
  EXPECT_EQ(json::dump(json::value{-7}), "-7");
}

TEST(json_value, integers_keep_all_64_bits) {
  // 0x9e3779b97f4a7c15: a double would round it to ...8400 (2^64 > 2^53).
  const std::uint64_t big = 0x9e3779b97f4a7c15;
  EXPECT_EQ(json::dump(json::value{big}), "11400714819323198485");
  EXPECT_EQ(json::parse("11400714819323198485").exact_uint(), big);
  EXPECT_FALSE(json::parse("11400714819323198485") == json::parse("11400714819323198484"));
  // Only digits-only literals that fit 64 bits are exact.
  EXPECT_FALSE(json::parse("5.0").exact_uint());
  EXPECT_FALSE(json::parse("-5").exact_uint());
  EXPECT_FALSE(json::parse("18446744073709551616").exact_uint());
}

TEST(json_value, parse_errors_carry_line_and_column) {
  try {
    (void)json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "duplicate key accepted";
  } catch (const json::parse_error& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
  EXPECT_THROW((void)json::parse("{\"a\": 1} trailing"), json::parse_error);
  EXPECT_THROW((void)json::parse("[1, 2,]"), json::parse_error);
  EXPECT_THROW((void)json::parse(""), json::parse_error);
}

TEST(json_value, string_escapes_round_trip) {
  const std::string text = R"("é€😀\t")";
  const json::value v = json::parse(text);
  EXPECT_EQ(v.as_string(), "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\t");
  EXPECT_TRUE(json::parse(json::dump(v)) == v);
}

// --- per-struct round-trips -------------------------------------------------

// Round-trip an options struct through dump -> parse -> from_json and
// compare via the canonical dump (operator== is not defined on the option
// structs; the dump covers every serialized field).
template <typename Opt>
void expect_round_trip(const Opt& opt) {
  const std::string text = json::dump(serving::to_json(opt), 2);
  Opt back;
  serving::from_json(json::parse(text), back);
  EXPECT_EQ(json::dump(serving::to_json(back), 2), text);
}

TEST(config_round_trip, every_options_struct_survives_json) {
  core::engine_options engine;
  engine.shards = 8;
  engine.capacity = 1234;
  engine.threads = 4;
  expect_round_trip(engine);

  core::ga_options ga;
  ga.generations = 17;
  ga.elite_fraction = 0.33;
  ga.selection = core::selection_mode::objective_only;
  ga.island.islands = 3;
  ga.seed = 0xdeadbeef;
  expect_round_trip(ga);

  serving::scheduler_options sched;
  sched.max_queued = 64;
  sched.policy = serving::admission_policy::reject;
  sched.coalesce = false;
  sched.weights = {{"tenant-a", 3}, {"tenant-b", 1}};
  expect_round_trip(sched);
  // The weights map dumps sorted by session key, whatever its bucket order.
  EXPECT_EQ(json::dump(serving::to_json(sched)),
            R"({"max_queued":64,"max_inflight_per_session":0,"policy":"reject",)"
            R"("coalesce":false,"default_weight":1,"weights":{"tenant-a":3,"tenant-b":1}})");

  surrogate::refresh_options refresh;
  refresh.enabled = true;
  refresh.interval = std::chrono::milliseconds{1500};
  refresh.holdout_fraction = 0.4;
  expect_round_trip(refresh);

  serving::service_options service;
  service.workers = 5;
  service.session_ttl = std::chrono::milliseconds{90'000};
  service.engine.threads = 3;
  expect_round_trip(service);

  service_config cfg;
  cfg.ga.population = 24;
  cfg.service.scheduler.default_weight = 2;
  expect_round_trip(cfg);
}

TEST(config_round_trip, colocation_scenario_survives_json) {
  soc::contention_context scen;
  soc::resident_load r;
  r.name = "neighbor-dnn";
  r.interconnect_gbps = 2.5;
  r.dram_gbps = 3.25;
  r.power_w = 1.5;
  r.shared_memory_bytes = 4096;
  r.reserved_units = {1, 2};
  scen.residents.push_back(r);
  scen.dvfs_cap = {3, 0, 2};
  scen.thermal = soc::thermal_model{};
  scen.dram_energy_beta = 0.5;
  expect_round_trip(scen);
  EXPECT_EQ(json::dump(serving::to_json(scen)),
            R"({"residents":[{"name":"neighbor-dnn","interconnect_gbps":2.5,"dram_gbps":3.25,)"
            R"("power_w":1.5,"shared_memory_bytes":4096,"reserved_units":[1,2]}],)"
            R"("dvfs_cap":[3,0,2],"thermal":{"ambient_c":35,"r_thermal_c_per_w":1.8,"tau_s":18,)"
            R"("throttle_c":87},"interconnect_alpha":1,"dram_alpha":0.6,"dram_energy_beta":0.5})");

  // Through the whole service_config, and the parsed form is semantically
  // equal (same scenario key), not just textually stable.
  service_config cfg;
  cfg.scenario = scen;
  expect_round_trip(cfg);
  const service_config back = serving::parse_config(serving::dump_config(cfg));
  EXPECT_EQ(soc::scenario_key(back.scenario), soc::scenario_key(scen));
  ASSERT_TRUE(back.scenario.thermal.has_value());
  EXPECT_EQ(back.scenario.thermal->throttle_c, scen.thermal->throttle_c);

  // The default (idle) scenario stays idle across the round trip, so a
  // dumped-then-loaded config still takes the legacy evaluation path.
  const service_config defaults;
  EXPECT_TRUE(serving::parse_config(serving::dump_config(defaults)).scenario.idle());
}

TEST(config_round_trip, default_config_dump_is_stable) {
  // parse(dump(defaults)) == defaults, and the dump is deterministic.
  const service_config defaults;
  const std::string text = serving::dump_config(defaults);
  const service_config back = serving::parse_config(text);
  EXPECT_EQ(serving::dump_config(back), text);
  EXPECT_EQ(serving::dump_config(defaults), serving::dump_config(service_config{}));
}

// --- typed errors name the offending key path -------------------------------

void expect_config_error(const std::string& text, const std::string& path_substr) {
  try {
    (void)serving::parse_config(text);
    FAIL() << "accepted config with bad key near " << path_substr;
  } catch (const config_error& e) {
    EXPECT_NE(e.path().find(path_substr), std::string::npos)
        << "error path '" << e.path() << "' does not mention '" << path_substr << "'";
    EXPECT_NE(std::string(e.what()).find(path_substr), std::string::npos);
  }
}

/// Rejected at exactly `path` with exactly `message`, read over `base`.
void expect_error_at(const std::string& text, const std::string& path,
                     const std::string& message, service_config base = {}) {
  try {
    serving::from_json(json::parse(text), base);
    FAIL() << "accepted config with bad key " << path;
  } catch (const config_error& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_EQ(std::string(e.what()), "config error at " + path + ": " + message);
  }
}

/// An integer field given a number beyond 2^53: rejected by the one
/// non-negative-integer rule every integer field shares.
void expect_uint_error(const std::string& text, const std::string& path) {
  expect_error_at(text, path, "expected a non-negative integer");
}

TEST(config_errors, unknown_keys_are_rejected_by_path) {
  expect_config_error(R"({"typo_workers": 2})", "typo_workers");
  expect_config_error(R"({"engine": {"shard_count": 4}})", "engine.shard_count");
  expect_config_error(R"({"ga": {"island": {"migrantz": 1}}})", "ga.island.migrantz");
  expect_config_error(R"({"scheduler": {"policy": "drop"}})", "scheduler.policy");
  // Deleted knobs are unknown keys too: an old config fails loudly at boot.
  expect_error_at(R"({"engine": {"soa_batch": true}})", "engine.soa_batch", "unknown key");
  expect_error_at(R"({"scheduler": {"max_fused": 1}})", "scheduler.max_fused", "unknown key");
  expect_error_at(R"({"ga": {"threads": 4}})", "ga.threads", "unknown key");
  expect_error_at(R"({"engine": {"memoize": false}})", "engine.memoize", "unknown key");
  service_config cfg;
  for (const std::string key : {"ga.threads", "engine.memoize"}) {
    try {
      serving::apply_override(cfg, key + "=1");
      ADD_FAILURE() << "accepted --set " << key;
    } catch (const config_error& e) {
      EXPECT_EQ(std::string(e.what()), "config error at " + key + ": unknown key");
    }
  }
}

TEST(config_errors, out_of_range_values_are_rejected_by_path) {
  expect_config_error(R"({"ga": {"elite_fraction": 1.5}})", "ga.elite_fraction");
  expect_config_error(R"({"ga": {"crossover_prob": -0.1}})", "ga.crossover_prob");
  expect_config_error(R"({"ga": {"population": 2}})", "ga.population");
  expect_config_error(R"({"workers": 0})", "workers");
  expect_config_error(R"({"engine": {"shards": 0}})", "engine.shards");
  expect_config_error(R"({"refresh": {"holdout_fraction": 0}})", "refresh.holdout_fraction");
  expect_config_error(R"({"scheduler": {"weights": {"lane": 0}}})", "scheduler.weights.lane");
  // Wrong types are config errors too, not bare json errors.
  expect_config_error(R"({"ga": {"generations": "many"}})", "ga.generations");
  expect_config_error(R"({"engine": "fast"})", "engine");
  // Integers beyond 2^53, in a scalar field and in the weights map.
  for (const std::string big : {"1e300", "18446744073709551616"}) {
    SCOPED_TRACE(big);
    expect_uint_error(R"({"engine": {"capacity": )" + big + "}}", "engine.capacity");
    expect_uint_error(R"({"scheduler": {"weights": {"a": )" + big + "}}}",
                      "scheduler.weights.a");
  }
}

TEST(config_errors, islands_must_fit_the_population) {
  expect_config_error(R"({"ga": {"population": 8, "island": {"islands": 4}}})", "ga.island.islands");
}

// Every range rule and every rule across members, one fault per document:
// each fails at its key's exact path with its exact message.
TEST(config_errors, every_rule_fails_at_its_key) {
  const std::string at_least_1 = "must be at least 1";
  const std::string open = "must be strictly between 0 and 1";
  const std::string probability = "must be between 0 and 1";
  const std::string positive = "must be greater than 0";
  const std::string unit = "must be in (0, 1]";
  const std::string finite = "must be finite and non-negative";
  const struct {
    std::string text, path, message;
  } cases[] = {
      {R"({"workers": 0})", "workers", at_least_1},
      {R"({"engine": {"shards": 0}})", "engine.shards", at_least_1},
      {R"({"scheduler": {"default_weight": 0}})", "scheduler.default_weight", at_least_1},
      {R"({"scheduler": {"weights": {"lane": 0}}})", "scheduler.weights.lane", at_least_1},
      {R"({"refresh": {"log_capacity": 0}})", "refresh.log_capacity", at_least_1},
      {R"({"refresh": {"min_new_samples": 0}})", "refresh.min_new_samples", at_least_1},
      {R"({"refresh": {"holdout_fraction": 0}})", "refresh.holdout_fraction", open},
      {R"({"refresh": {"holdout_fraction": 1}})", "refresh.holdout_fraction", open},
      {R"({"refresh": {"promotion_margin": -0.5}})", "refresh.promotion_margin",
       "must not be negative"},
      {R"({"snapshot": {"spill_on_evict": true}})", "snapshot.spill_on_evict",
       R"(requires a snapshot directory (set "directory"))"},
      {R"({"group": {"shards": 0}})", "group.shards", at_least_1},
      {R"({"group": {"virtual_nodes": 0}})", "group.virtual_nodes", at_least_1},
      {R"({"ga": {"generations": 0}})", "ga.generations", at_least_1},
      {R"({"ga": {"population": 2}})", "ga.population", "must be at least 4"},
      {R"({"ga": {"elite_fraction": 0}})", "ga.elite_fraction", open},
      {R"({"ga": {"elite_fraction": 1.5}})", "ga.elite_fraction", open},
      {R"({"ga": {"crossover_prob": -0.1}})", "ga.crossover_prob", probability},
      {R"({"ga": {"ratio_mutation_prob": 1.5}})", "ga.ratio_mutation_prob", probability},
      {R"({"ga": {"forward_mutation_prob": 2}})", "ga.forward_mutation_prob", probability},
      {R"({"ga": {"mapping_swap_prob": -1}})", "ga.mapping_swap_prob", probability},
      {R"({"ga": {"dvfs_mutation_prob": 1.01}})", "ga.dvfs_mutation_prob", probability},
      {R"({"ga": {"island": {"polish_fraction": 1.5}}})", "ga.island.polish_fraction",
       probability},
      {R"({"ga": {"population": 8, "island": {"islands": 4}}})", "ga.island.islands",
       "would leave an island under 4 members (islands * 4 must not exceed population)"},
      {R"({"ga": {"portfolio": {"islands": [{}, {}]}}})", "ga.portfolio.islands",
       "has more assignments (2) than ga.island.islands (1)"},
      {R"({"ga": {"portfolio": {"sa": {"initial_temperature": 0}}}})",
       "ga.portfolio.sa.initial_temperature", positive},
      {R"({"ga": {"portfolio": {"sa": {"cooling": 0}}}})", "ga.portfolio.sa.cooling", unit},
      {R"({"ga": {"portfolio": {"sa": {"cooling": 1.5}}}})", "ga.portfolio.sa.cooling", unit},
      {R"({"ga": {"portfolio": {"prefilter": {"quantile": 0}}}})",
       "ga.portfolio.prefilter.quantile", unit},
      {R"({"ga": {"portfolio": {"prefilter": {"quantile": 1.5}}}})",
       "ga.portfolio.prefilter.quantile", unit},
      {R"({"scenario": {"residents": [{"name": ""}]}})", "scenario.residents[0].name",
       "must not be empty"},
      {R"({"scenario": {"residents": [{"name": "a"}, {"name": "a"}]}})",
       "scenario.residents[1].name", R"(duplicate resident name "a")"},
      {R"({"scenario": {"residents": [{"name": "a", "interconnect_gbps": -1}]}})",
       "scenario.residents[0].interconnect_gbps", finite},
      {R"({"scenario": {"residents": [{"name": "a", "dram_gbps": -1}]}})",
       "scenario.residents[0].dram_gbps", finite},
      {R"({"scenario": {"residents": [{"name": "a", "power_w": -1}]}})",
       "scenario.residents[0].power_w", finite},
      {R"({"scenario": {"residents": [{"name": "a", "shared_memory_bytes": -1}]}})",
       "scenario.residents[0].shared_memory_bytes", finite},
      {R"({"scenario": {"interconnect_alpha": -0.5}})", "scenario.interconnect_alpha", finite},
      {R"({"scenario": {"dram_alpha": -1}})", "scenario.dram_alpha", finite},
      {R"({"scenario": {"dram_energy_beta": -1}})", "scenario.dram_energy_beta", finite},
      {R"({"scenario": {"thermal": {"r_thermal_c_per_w": 0}}})",
       "scenario.thermal.r_thermal_c_per_w", positive},
      {R"({"scenario": {"thermal": {"tau_s": 0}}})", "scenario.thermal.tau_s", positive},
      {R"({"scenario": {"thermal": {"throttle_c": 10, "ambient_c": 50}}})",
       "scenario.thermal.throttle_c", "must exceed ambient_c"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    expect_error_at(c.text, c.path, c.message);
  }
}

// A block the document leaves out is checked as if it were read from {}:
// a bad value set in code before from_json fails as a bad value read would.
TEST(config_errors, omitted_blocks_are_still_checked) {
  service_config small;
  small.ga.population = 2;
  expect_error_at("{}", "ga.population", "must be at least 4", small);
  expect_error_at(R"({"ga": {"generations": 5}})", "ga.population", "must be at least 4", small);

  service_config thermal;
  thermal.scenario.thermal = soc::thermal_model{};
  thermal.scenario.thermal->tau_s = 0;
  expect_error_at("{}", "scenario.thermal.tau_s", "must be greater than 0", thermal);

  service_config resident;
  resident.scenario.residents.emplace_back();
  resident.scenario.residents[0].name = "neighbor";
  resident.scenario.residents[0].dram_gbps = -1;
  expect_error_at("{}", "scenario.residents[0].dram_gbps", "must be finite and non-negative",
                  resident);

  service_config weights;
  weights.service.scheduler.weights = {{"lane", 0}};
  expect_error_at("{}", "scheduler.weights.lane", "must be at least 1", weights);
}

TEST(config_errors, scenario_block_is_validated_by_path) {
  expect_config_error(R"({"scenario": {"residents": [{"name": ""}]}})",
                      "scenario.residents[0].name");
  expect_config_error(R"({"scenario": {"residents": [{"name": "a", "dram_gbps": -1}]}})",
                      "scenario.residents[0].dram_gbps");
  expect_config_error(
      R"({"scenario": {"residents": [{"name": "a"}, {"name": "a"}]}})", "scenario.residents");
  expect_config_error(R"({"scenario": {"interconnect_alpha": -0.5}})",
                      "scenario.interconnect_alpha");
  expect_config_error(R"({"scenario": {"thermal": {"throttle_c": 10, "ambient_c": 50}}})",
                      "scenario.thermal");
  expect_config_error(R"({"scenario": {"thermal": {"tau_z": 3}}})", "scenario.thermal.tau_z");
  expect_config_error(R"({"scenario": {"dvfs_cap": "high"}})", "scenario.dvfs_cap");
  for (const std::string big : {"1e300", "18446744073709551616"}) {
    SCOPED_TRACE(big);
    expect_uint_error(R"({"scenario": {"dvfs_cap": [)" + big + "]}}", "scenario.dvfs_cap[0]");
    const std::string resident = R"({"name": "a", "reserved_units": [)" + big + "]}";
    expect_uint_error(R"({"scenario": {"residents": [)" + resident + "]}}",
                      "scenario.residents[0].reserved_units[0]");
  }
}

TEST(config_errors, load_config_names_the_missing_file) {
  try {
    (void)serving::load_config("/nonexistent/mapcq.json");
    FAIL() << "opened a nonexistent file";
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/mapcq.json"), std::string::npos);
  }
}

// --- dotted-key overrides ---------------------------------------------------

TEST(config_override, dotted_keys_reach_nested_fields) {
  service_config cfg;
  serving::apply_override(cfg, "ga.generations=55");
  serving::apply_override(cfg, "ga.island.islands=2");
  serving::apply_override(cfg, "engine.capacity=4096");
  serving::apply_override(cfg, "scheduler.coalesce=false");
  serving::apply_override(cfg, "scheduler.policy=reject");  // bare-word enum
  EXPECT_EQ(cfg.ga.generations, 55u);
  EXPECT_EQ(cfg.ga.island.islands, 2u);
  EXPECT_EQ(cfg.service.engine.capacity, 4096u);
  EXPECT_FALSE(cfg.service.scheduler.coalesce);
  EXPECT_EQ(cfg.service.scheduler.policy, serving::admission_policy::reject);
}

TEST(config_override, bad_overrides_throw_typed_errors) {
  service_config cfg;
  EXPECT_THROW(serving::apply_override(cfg, "ga.generations"), config_error);   // no '='
  EXPECT_THROW(serving::apply_override(cfg, "ga.nope=1"), config_error);        // unknown key
  EXPECT_THROW(serving::apply_override(cfg, "ga.population=2"), config_error);  // out of range
  EXPECT_THROW(serving::apply_override(cfg, "workers.x=1"), config_error);      // scalar cursor
  // A failed override leaves the config untouched.
  EXPECT_EQ(serving::dump_config(cfg), serving::dump_config(service_config{}));
}

TEST(config_round_trip, seeds_above_2_pow_53_survive_dump_parse_and_override) {
  constexpr std::uint64_t two53 = std::uint64_t{1} << 53;
  for (const std::uint64_t seed : {two53, two53 + 1, std::uint64_t{0x9e3779b97f4a7c15},
                                   std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE(seed);
    service_config cfg;
    cfg.ga.seed = seed;
    const std::string text = serving::dump_config(cfg);
    EXPECT_NE(text.find("\"seed\": " + std::to_string(seed)), std::string::npos);
    EXPECT_EQ(serving::parse_config(text).ga.seed, seed);

    service_config overridden;
    serving::apply_override(overridden, "ga.seed=" + std::to_string(seed));
    EXPECT_EQ(overridden.ga.seed, seed);
    // Every later override re-reads the whole config, the seed included.
    serving::apply_override(overridden, "ga.generations=7");
    EXPECT_EQ(overridden.ga.seed, seed);
    cfg.ga.generations = 7;
    EXPECT_EQ(serving::dump_config(overridden), serving::dump_config(cfg));
  }
}

// --- the checked-in default config ------------------------------------------

/// A checked-in file of the source tree, read whole.
std::string source_file(const std::string& relative) {
  const char* src = std::getenv("MAPCQ_SOURCE_DIR");
  if (src == nullptr) {
    ADD_FAILURE() << "MAPCQ_SOURCE_DIR not set (run under ctest)";
    return "";
  }
  std::ifstream in{std::string(src) + "/" + relative};
  EXPECT_TRUE(in) << "cannot open " << relative;
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(default_config_file, boots_a_service_bit_identical_to_defaults) {
  const char* src = std::getenv("MAPCQ_SOURCE_DIR");
  ASSERT_NE(src, nullptr) << "MAPCQ_SOURCE_DIR not set (run under ctest)";
  const service_config from_file =
      serving::load_config(std::string(src) + "/examples/configs/default.json");

  // The checked-in file IS the library defaults, byte for byte.
  EXPECT_EQ(source_file("examples/configs/default.json"), serving::dump_config(service_config{}));
  EXPECT_EQ(serving::dump_config(from_file), serving::dump_config(service_config{}));

  const nn::network net = nn::build_simple_cnn();
  const soc::platform plat = soc::agx_xavier();
  const auto boot_and_map = [&](const service_config& cfg) {
    serving::mapping_service service{cfg.service};
    service.register_network(net);
    service.register_platform(plat);
    serving::mapping_request req;
    req.network = net.name;
    req.use_surrogate = false;
    req.ga = cfg.ga;
    req.ga.generations = 4;  // same tiny budget on both sides
    req.ga.population = 12;
    return service.map(req);
  };
  const serving::mapping_report a = boot_and_map(from_file);
  const serving::mapping_report b = boot_and_map(service_config{});

  ASSERT_FALSE(a.effective_config.empty());
  EXPECT_EQ(a.effective_config, b.effective_config);
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i].objective, b.front[i].objective);
    EXPECT_EQ(a.front[i].avg_latency_ms, b.front[i].avg_latency_ms);
    EXPECT_EQ(a.front[i].avg_energy_mj, b.front[i].avg_energy_mj);
  }
  EXPECT_EQ(a.ours_energy_index, b.ours_energy_index);
  EXPECT_EQ(a.ours_latency_index, b.ours_latency_index);
}

TEST(default_config_file, effective_config_stamp_parses_back) {
  const nn::network net = nn::build_simple_cnn();
  const soc::platform plat = soc::agx_xavier();
  serving::service_options opt;
  opt.workers = 3;
  serving::mapping_service service{opt};
  service.register_network(net);
  service.register_platform(plat);
  serving::mapping_request req;
  req.network = net.name;
  req.use_surrogate = false;
  req.ga.generations = 2;
  req.ga.population = 8;
  const serving::mapping_report rep = service.map(req);

  const service_config stamped = serving::parse_config(rep.effective_config);
  EXPECT_EQ(stamped.service.workers, 3u);
  EXPECT_EQ(stamped.ga.generations, 2u);
  // The stamp records the *effective* engine sizing (0 = auto resolved).
  EXPECT_GE(stamped.service.engine.threads, 1u);
}

// --- every key to_json emits ---------------------------------------------------

/// Calls fn(path, leaf) on every leaf of a config document: scalars, empty
/// arrays and `scheduler.weights` (whose keys are session keys, not config
/// keys). Array elements are named `path[i]`.
void for_each_leaf(json::value& v, const std::string& path,
                   const std::function<void(const std::string&, json::value&)>& fn) {
  if (v.is_object() && path != "scheduler.weights") {
    for (auto& [key, member] : v.as_object())
      for_each_leaf(member, path.empty() ? key : path + "." + key, fn);
  } else if (v.is_array() && !v.as_array().empty()) {
    for (std::size_t i = 0; i < v.as_array().size(); ++i)
      for_each_leaf(v.as_array()[i], path + "[" + std::to_string(i) + "]", fn);
  } else {
    fn(path, v);
  }
}

/// Every leaf of a config document, by path.
std::vector<std::pair<std::string, json::value>> leaves(json::value doc) {
  std::vector<std::pair<std::string, json::value>> out;
  for_each_leaf(doc, "", [&](const std::string& path, json::value& leaf) {
    out.emplace_back(path, leaf);
  });
  return out;
}

/// `base` with the leaf at `target` replaced, read back through from_json.
template <typename Opt>
Opt with_leaf(const Opt& base, const std::string& target, const json::value& replacement) {
  json::value doc = serving::to_json(base);
  for_each_leaf(doc, "", [&](const std::string& path, json::value& leaf) {
    if (path == target) leaf = replacement;
  });
  Opt out;
  serving::from_json(doc, out);
  return out;
}

/// `base` with `leaf`, found at `target`, moved to another valid value: a
/// bool flipped, an integer plus 1, a fraction halved, an enum switched to
/// another of the names its reader lists, any other string extended.
template <typename Opt>
Opt moved(const Opt& base, const std::string& target, const json::value& leaf) {
  if (leaf.is_bool()) return with_leaf(base, target, json::value{!leaf.as_bool()});
  if (leaf.is_number()) {
    const double d = leaf.as_number();
    return with_leaf(base, target, json::value{d == std::floor(d) ? d + 1 : d / 2});
  }
  if (!leaf.is_string()) {
    ADD_FAILURE() << target << ": no move for this kind of leaf";
    return base;
  }
  try {
    (void)with_leaf(base, target, json::value{"?"});
  } catch (const config_error& e) {
    // An enum: unknown value "?" (expected "a" | "b" ...).
    const std::string what = e.what();
    for (std::size_t open = what.find('"', what.find("(expected")); open != std::string::npos;) {
      const std::size_t close = what.find('"', open + 1);
      const std::string name = what.substr(open + 1, close - open - 1);
      if (name != leaf.as_string()) return with_leaf(base, target, json::value{name});
      open = what.find('"', close + 1);
    }
  }
  return with_leaf(base, target, json::value{leaf.as_string() + "x"});
}

TEST(config_keys, every_key_is_documented) {
  service_config cfg;
  cfg.ga.portfolio.islands.emplace_back();
  soc::resident_load resident;
  resident.name = "neighbor";
  cfg.scenario.residents.push_back(resident);
  cfg.scenario.thermal = soc::thermal_model{};
  cfg.service.scheduler.weights = {{"lane", 2}};

  // The backticked tokens of every table row of the knob reference.
  std::vector<std::string> tokens;
  std::istringstream doc{source_file("docs/SERVING.md")};
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind('|', 0) != 0) continue;
    for (std::size_t open = line.find('`'); open != std::string::npos;) {
      const std::size_t close = line.find('`', open + 1);
      if (close == std::string::npos) break;
      tokens.push_back(line.substr(open + 1, close - open - 1));
      open = line.find('`', close + 1);
    }
  }
  ASSERT_FALSE(tokens.empty());

  for (const auto& entry : leaves(serving::to_json(cfg))) {
    const std::string& path = entry.first;
    // A row names the key alone or under a dotted prefix; indices drop.
    std::string key = path.substr(path.find_last_of('.') + 1);
    key = key.substr(0, key.find('['));
    const bool documented = std::any_of(tokens.begin(), tokens.end(), [&](const std::string& t) {
      return t == key || t.ends_with("." + key);
    });
    EXPECT_TRUE(documented) << path << " has no row in docs/SERVING.md";
  }
}

/// A service with the network and platform requests name, for its lanes.
struct keyed_service {
  keyed_service() {
    service.register_network(net);
    service.register_platform(soc::agx_xavier());
    base.network = net.name;
  }
  nn::network net = nn::build_simple_cnn();
  serving::mapping_service service{serving::service_options{}};
  serving::mapping_request base;
};

// Invariant 3: every GA key changes the coalescing fingerprint; none keys a
// session.
TEST(config_keys, every_ga_key_moves_the_fingerprint_not_the_lane) {
  keyed_service ks;
  ks.base.ga.portfolio.islands.emplace_back();
  const std::string fingerprint = serving::request_fingerprint(ks.base);
  const std::string lane = ks.service.fairness_lane(ks.base);
  for (const auto& [path, leaf] : leaves(serving::to_json(ks.base.ga))) {
    SCOPED_TRACE(path);
    serving::mapping_request req = ks.base;
    req.ga = moved(ks.base.ga, path, leaf);
    ASSERT_NE(json::dump(serving::to_json(req.ga)), json::dump(serving::to_json(ks.base.ga)));
    EXPECT_NE(serving::request_fingerprint(req), fingerprint);
    EXPECT_EQ(ks.service.fairness_lane(req), lane);
  }
}

// Invariant 3: every key of a non-idle scenario changes what the evaluator
// computes, so it moves both the fingerprint and the session lane.
TEST(config_keys, every_scenario_key_moves_fingerprint_and_lane) {
  keyed_service ks;
  soc::resident_load resident;
  resident.name = "neighbor";
  resident.interconnect_gbps = 2.5;
  resident.dram_gbps = 3.25;
  resident.power_w = 1.5;
  resident.shared_memory_bytes = 4096;
  resident.reserved_units = {1};
  ks.base.eval.contention.residents.push_back(resident);
  ks.base.eval.contention.dvfs_cap = {3};
  ks.base.eval.contention.thermal = soc::thermal_model{};
  const std::string fingerprint = serving::request_fingerprint(ks.base);
  const std::string lane = ks.service.fairness_lane(ks.base);

  const auto all = leaves(serving::to_json(ks.base.eval.contention));
  // The walk reaches into the resident, down to its reserved unit.
  EXPECT_TRUE(std::any_of(all.begin(), all.end(), [](const auto& l) {
    return l.first == "residents[0].reserved_units[0]";
  }));
  for (const auto& [path, leaf] : all) {
    SCOPED_TRACE(path);
    serving::mapping_request req = ks.base;
    req.eval.contention = moved(ks.base.eval.contention, path, leaf);
    EXPECT_NE(serving::request_fingerprint(req), fingerprint);
    EXPECT_NE(ks.service.fairness_lane(req), lane);
  }
}

// Invariant 8: on an idle scenario the derate coefficients change nothing,
// so they move neither the fingerprint nor the lane.
TEST(config_keys, idle_scenario_coefficients_move_nothing) {
  keyed_service ks;
  const std::string fingerprint = serving::request_fingerprint(ks.base);
  const std::string lane = ks.service.fairness_lane(ks.base);
  std::size_t coefficients = 0;
  for (const auto& [path, leaf] : leaves(serving::to_json(ks.base.eval.contention))) {
    if (!leaf.is_number()) continue;  // residents, dvfs_cap, thermal: setting one ends idleness
    SCOPED_TRACE(path);
    ++coefficients;
    serving::mapping_request req = ks.base;
    req.eval.contention = moved(ks.base.eval.contention, path, leaf);
    ASSERT_TRUE(req.eval.contention.idle());
    EXPECT_EQ(serving::request_fingerprint(req), fingerprint);
    EXPECT_EQ(ks.service.fairness_lane(req), lane);
  }
  EXPECT_GE(coefficients, 3u);
}

}  // namespace

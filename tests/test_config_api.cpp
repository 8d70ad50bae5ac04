// Config-API tests: the util::json reader/writer, JSON round-trips for
// every options struct, typed validation errors that name the offending
// key path, dotted-key overrides, and the deployment guarantee behind the
// checked-in examples/configs/default.json — a service booted from that
// file produces a mapping_report bit-identical to one booted from
// default-constructed option structs (including the effective_config
// stamp).

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

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
  engine.memoize = false;
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

/// Rejected at exactly `path` with exactly `message`.
void expect_error_at(const std::string& text, const std::string& path,
                     const std::string& message) {
  try {
    (void)serving::parse_config(text);
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

// --- the checked-in default config ------------------------------------------

TEST(default_config_file, boots_a_service_bit_identical_to_defaults) {
  const char* src = std::getenv("MAPCQ_SOURCE_DIR");
  ASSERT_NE(src, nullptr) << "MAPCQ_SOURCE_DIR not set (run under ctest)";
  const service_config from_file =
      serving::load_config(std::string(src) + "/examples/configs/default.json");

  // The checked-in file IS the library defaults, byte for byte once dumped.
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

}  // namespace

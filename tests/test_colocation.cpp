// Co-location / contention-scenario tests: the soc::contention_context
// model (validation, platform derating, scenario keys, the reservation
// ledger), the evaluator's scenario axes (DVFS caps, reserved-CU /
// shared-memory / thermal rejections), the serving plumbing (fingerprints,
// session keys, the report scenario note) and serving::placement_group.
//
// The load-bearing invariant checked here at %.17g text equality: an IDLE
// contention context (no residents, no DVFS cap, no thermal budget) is
// bit-identical to the legacy contention-free path — whatever the derate
// coefficients say. Runs under ASan/UBSan (scenario-matrix job) and TSan
// (concurrent placement_group traffic).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.h"
#include "core/search_space.h"
#include "core/serialization.h"
#include "nn/models.h"
#include "serving/mapping_service.h"
#include "serving/placement_group.h"
#include "soc/contention.h"
#include "soc/platform.h"
#include "soc/thermal.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace mapcq;

soc::resident_load make_resident(std::string name, double ic_gbps, double dram_gbps,
                                 double power_w = 0.0, double mem_bytes = 0.0,
                                 std::vector<std::size_t> units = {}) {
  soc::resident_load r;
  r.name = std::move(name);
  r.interconnect_gbps = ic_gbps;
  r.dram_gbps = dram_gbps;
  r.power_w = power_w;
  r.shared_memory_bytes = mem_bytes;
  r.reserved_units = std::move(units);
  return r;
}

// ---------------------------------------------------------------------------
// Context model: validation, idleness, platform derating, scenario keys.
// ---------------------------------------------------------------------------

TEST(contention_context, idleness_ignores_coefficients) {
  soc::contention_context ctx;
  EXPECT_TRUE(ctx.idle());
  ctx.interconnect_alpha = 99.0;  // coefficients alone change nothing
  ctx.dram_energy_beta = 7.0;
  EXPECT_TRUE(ctx.idle());
  ctx.dvfs_cap = {0};
  EXPECT_FALSE(ctx.idle());
  ctx.dvfs_cap.clear();
  ctx.thermal = soc::thermal_model{};
  EXPECT_FALSE(ctx.idle());
  ctx.thermal.reset();
  ctx.residents.push_back(make_resident("a", 1.0, 1.0));
  EXPECT_FALSE(ctx.idle());
}

TEST(contention_context, validation_rejects_bad_loads) {
  soc::resident_load bad = make_resident("", 1.0, 1.0);
  EXPECT_THROW(bad.validate(), std::invalid_argument);  // empty name
  bad = make_resident("a", -1.0, 0.0);
  EXPECT_THROW(bad.validate(), std::invalid_argument);  // negative traffic
  bad = make_resident("a", std::nan(""), 0.0);
  EXPECT_THROW(bad.validate(), std::invalid_argument);  // non-finite

  soc::contention_context ctx;
  ctx.residents = {make_resident("a", 1.0, 1.0), make_resident("a", 2.0, 2.0)};
  EXPECT_THROW(ctx.validate(), std::invalid_argument);  // duplicate name
  ctx.residents = {make_resident("a", 1.0, 1.0)};
  ctx.dram_alpha = -0.1;
  EXPECT_THROW(ctx.validate(), std::invalid_argument);  // negative coefficient
}

TEST(contention_context, validation_against_platform) {
  const soc::platform plat = soc::agx_xavier();
  soc::contention_context ctx;
  ctx.residents = {make_resident("a", 1.0, 1.0, 0.0, 0.0, {plat.size()})};
  EXPECT_THROW(ctx.validate(plat), std::invalid_argument);  // unit out of range

  ctx.residents = {make_resident("a", 1.0, 1.0, 0.0, 0.0, {0}),
                   make_resident("b", 1.0, 1.0, 0.0, 0.0, {0})};
  EXPECT_THROW(ctx.validate(plat), std::invalid_argument);  // double-reserved CU

  ctx.residents.clear();
  ctx.dvfs_cap.assign(plat.size() + 1, 0);
  EXPECT_THROW(ctx.validate(plat), std::invalid_argument);  // longer than platform
  ctx.dvfs_cap = {plat.unit(0).dvfs.levels()};
  EXPECT_THROW(ctx.validate(plat), std::invalid_argument);  // cap not a valid level

  ctx.dvfs_cap = {0, 1};  // prefix cap is fine
  ctx.residents = {make_resident("a", 1.0, 1.0, 0.0, 0.0, {1, 2})};
  EXPECT_NO_THROW(ctx.validate(plat));
}

TEST(apply_contention, idle_context_returns_untouched_copy) {
  const soc::platform plat = soc::agx_xavier();
  soc::contention_context ctx;
  ctx.interconnect_alpha = 123.0;  // must not matter without residents
  const soc::platform out = soc::apply_contention(plat, ctx);
  EXPECT_EQ(out.xfer.bandwidth_gbps, plat.xfer.bandwidth_gbps);
  EXPECT_EQ(out.xfer.base_latency_ms, plat.xfer.base_latency_ms);
  EXPECT_EQ(out.xfer.energy_pj_per_byte, plat.xfer.energy_pj_per_byte);
  for (std::size_t u = 0; u < plat.size(); ++u)
    EXPECT_EQ(out.unit(u).mem_bandwidth_gbps, plat.unit(u).mem_bandwidth_gbps);
}

TEST(apply_contention, degradation_is_monotone_in_residents) {
  const soc::platform plat = soc::agx_xavier();
  soc::contention_context ctx;
  double prev_bw = plat.xfer.bandwidth_gbps;
  double prev_lat = plat.xfer.base_latency_ms;
  double prev_epb = plat.xfer.energy_pj_per_byte;
  double prev_mem = plat.unit(0).mem_bandwidth_gbps;
  for (int n = 1; n <= 4; ++n) {
    ctx.residents.push_back(make_resident("r" + std::to_string(n), 2.0, 3.0));
    const soc::platform out = soc::apply_contention(plat, ctx);
    EXPECT_LT(out.xfer.bandwidth_gbps, prev_bw);
    EXPECT_GT(out.xfer.base_latency_ms, prev_lat);
    EXPECT_GT(out.xfer.energy_pj_per_byte, prev_epb);
    EXPECT_LT(out.unit(0).mem_bandwidth_gbps, prev_mem);
    prev_bw = out.xfer.bandwidth_gbps;
    prev_lat = out.xfer.base_latency_ms;
    prev_epb = out.xfer.energy_pj_per_byte;
    prev_mem = out.unit(0).mem_bandwidth_gbps;
  }
}

TEST(scenario_key, idle_is_idle_and_keys_are_order_sensitive) {
  soc::contention_context ctx;
  ctx.interconnect_alpha = 42.0;
  EXPECT_EQ(soc::scenario_key(ctx), "idle");

  soc::contention_context a;
  a.residents = {make_resident("x", 1.0, 2.0), make_resident("y", 3.0, 4.0)};
  soc::contention_context b = a;
  std::swap(b.residents[0], b.residents[1]);
  EXPECT_EQ(soc::scenario_key(a), soc::scenario_key(a));  // deterministic
  // Resident order fixes the FP summation order, so it is part of identity.
  EXPECT_NE(soc::scenario_key(a), soc::scenario_key(b));

  soc::contention_context capped;
  capped.dvfs_cap = {0, 1};
  EXPECT_NE(soc::scenario_key(capped), "idle");
}

TEST(resident_ledger, reserve_release_owner_semantics) {
  soc::resident_ledger ledger{3};
  ledger.reserve(make_resident("a", 0.0, 0.0, 0.0, 0.0, {0}));
  ledger.reserve(make_resident("b", 0.0, 0.0, 0.0, 0.0, {2}));
  EXPECT_TRUE(ledger.reserved(0));
  EXPECT_FALSE(ledger.reserved(1));
  EXPECT_TRUE(ledger.reserved(2));
  EXPECT_FALSE(ledger.reserved(99));  // out of range: free, not UB
  ASSERT_NE(ledger.owner(2), nullptr);
  EXPECT_EQ(*ledger.owner(2), "b");
  EXPECT_EQ(ledger.owner(1), nullptr);
  EXPECT_EQ(ledger.residents().size(), 2u);

  EXPECT_THROW(ledger.reserve(make_resident("a", 0.0, 0.0, 0.0, 0.0, {1})),
               std::invalid_argument);  // duplicate name
  EXPECT_THROW(ledger.release("zzz"), std::invalid_argument);

  ledger.release("a");
  EXPECT_FALSE(ledger.reserved(0));
  EXPECT_EQ(ledger.residents().size(), 1u);
  ledger.reserve(make_resident("c", 0.0, 0.0, 0.0, 0.0, {0, 1}));
  EXPECT_TRUE(ledger.reserved(1));
}

TEST(resident_ledger, reserve_is_all_or_nothing) {
  soc::resident_ledger ledger{3};
  ledger.reserve(make_resident("a", 0.0, 0.0, 0.0, 0.0, {1}));
  // Unit 0 is free but unit 1 clashes: nothing may be claimed.
  EXPECT_THROW(ledger.reserve(make_resident("b", 0.0, 0.0, 0.0, 0.0, {0, 1})),
               std::invalid_argument);
  EXPECT_FALSE(ledger.reserved(0));
  ASSERT_NE(ledger.owner(1), nullptr);
  EXPECT_EQ(*ledger.owner(1), "a");
  // Out-of-range member: rejected before any mutation.
  EXPECT_THROW(ledger.reserve(make_resident("c", 0.0, 0.0, 0.0, 0.0, {2, 7})),
               std::invalid_argument);
  EXPECT_FALSE(ledger.reserved(2));
}

// ---------------------------------------------------------------------------
// Evaluator: idle bit-identity, monotone degradation, scenario rejections.
// ---------------------------------------------------------------------------

std::string eval_text(const core::evaluation& e) {
  std::ostringstream os;
  core::write_evaluation(os, e);
  return os.str();
}

struct colocation_evaluator : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();
  core::search_space space{net, plat};

  std::vector<core::configuration> random_configs(std::size_t n, std::uint64_t seed) const {
    util::rng gen{seed};
    std::vector<core::configuration> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(space.decode(space.random(gen)));
    return out;
  }
};

TEST_F(colocation_evaluator, idle_context_is_bit_identical_to_legacy_path) {
  const core::evaluator legacy{net, plat, {}};
  core::evaluator_options opt;
  opt.contention.interconnect_alpha = 999.0;  // idle: coefficients are inert
  opt.contention.dram_energy_beta = 999.0;
  const core::evaluator idle{net, plat, opt};
  for (const core::configuration& c : random_configs(24, 31)) {
    const core::evaluation a = legacy.evaluate(c);
    const core::evaluation b = idle.evaluate(c);
    EXPECT_EQ(eval_text(a), eval_text(b));  // %.17g round-trip equality
    EXPECT_EQ(a.objective, b.objective);
  }
}

TEST_F(colocation_evaluator, degradation_is_monotone_in_resident_count) {
  // Traffic-only residents (no reservations, memory or thermal terms), so
  // nothing is rejected and latency/energy must rise monotonically.
  std::vector<core::evaluator> evals;
  for (const std::size_t n : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    core::evaluator_options opt;
    for (std::size_t i = 0; i < n; ++i)
      opt.contention.residents.push_back(make_resident(util::format("r%zu", i), 3.0, 4.0));
    evals.emplace_back(net, plat, opt);
  }
  std::size_t strictly_worse = 0;
  for (const core::configuration& c : random_configs(12, 7)) {
    const core::evaluation idle = evals[0].evaluate(c);
    const core::evaluation two = evals[1].evaluate(c);
    const core::evaluation four = evals[2].evaluate(c);
    if (!idle.feasible) continue;
    ASSERT_TRUE(two.feasible);
    ASSERT_TRUE(four.feasible);
    EXPECT_GE(two.avg_latency_ms, idle.avg_latency_ms);
    EXPECT_GE(four.avg_latency_ms, two.avg_latency_ms);
    EXPECT_GE(two.avg_energy_mj, idle.avg_energy_mj);
    EXPECT_GE(four.avg_energy_mj, two.avg_energy_mj);
    if (four.avg_latency_ms > idle.avg_latency_ms) ++strictly_worse;
  }
  EXPECT_GT(strictly_worse, 0u);  // contention is not a no-op
}

TEST_F(colocation_evaluator, dvfs_caps_never_speed_up_a_mapping) {
  core::evaluator_options capped_opt;
  capped_opt.contention.dvfs_cap.assign(plat.size(), 0);  // floor every CU
  const core::evaluator uncapped{net, plat, {}};
  const core::evaluator capped{net, plat, capped_opt};
  std::size_t strictly_slower = 0;
  for (const core::configuration& c : random_configs(12, 13)) {
    const core::evaluation a = uncapped.evaluate(c);
    const core::evaluation b = capped.evaluate(c);
    if (!a.feasible || !b.feasible) continue;
    EXPECT_GE(b.avg_latency_ms, a.avg_latency_ms);
    if (b.avg_latency_ms > a.avg_latency_ms) ++strictly_slower;
  }
  EXPECT_GT(strictly_slower, 0u);
}

TEST_F(colocation_evaluator, reserved_units_reject_mappings) {
  core::evaluator_options opt;
  opt.contention.residents.push_back(
      make_resident("hog", 0.0, 0.0, 0.0, 0.0, {0, 1, 2}));  // owns every CU
  const core::evaluator eval{net, plat, opt};
  for (const core::configuration& c : random_configs(6, 17)) {
    const core::evaluation e = eval.evaluate(c);
    EXPECT_FALSE(e.feasible);
    EXPECT_NE(e.reject_reason.find("reserved"), std::string::npos) << e.reject_reason;
  }
}

TEST_F(colocation_evaluator, resident_memory_shrinks_the_fmap_budget) {
  const core::evaluator idle{net, plat, {}};
  core::evaluator_options opt;
  opt.contention.residents.push_back(
      make_resident("parker", 0.0, 0.0, 0.0, plat.shared_memory_bytes));
  const core::evaluator squeezed{net, plat, opt};
  std::size_t exercised = 0;
  for (const core::configuration& c : random_configs(32, 19)) {
    const core::evaluation a = idle.evaluate(c);
    if (!a.feasible || a.stored_fmap_bytes <= 0.0) continue;
    const core::evaluation b = squeezed.evaluate(c);
    EXPECT_FALSE(b.feasible);
    EXPECT_NE(b.reject_reason.find("co-residents"), std::string::npos) << b.reject_reason;
    ++exercised;
  }
  EXPECT_GT(exercised, 0u);
}

TEST_F(colocation_evaluator, shared_thermal_budget_rejects_unsustainable_mappings) {
  soc::thermal_model tight;
  tight.throttle_c = tight.ambient_c + 1e-3;  // essentially no headroom
  core::evaluator_options opt;
  opt.contention.thermal = tight;
  const core::evaluator eval{net, plat, opt};
  for (const core::configuration& c : random_configs(6, 23)) {
    const core::evaluation e = eval.evaluate(c);
    EXPECT_FALSE(e.feasible);
    EXPECT_NE(e.reject_reason.find("throttle"), std::string::npos) << e.reject_reason;
  }
}

TEST_F(colocation_evaluator, resident_power_tightens_the_thermal_budget) {
  // Find a mapping sustainable under a generous budget alone, then add a
  // resident drawing exactly the remaining headroom: it must now reject.
  soc::thermal_model roomy;
  roomy.throttle_c = roomy.ambient_c + 60.0;
  core::evaluator_options alone_opt;
  alone_opt.contention.thermal = roomy;
  const core::evaluator alone{net, plat, alone_opt};
  std::size_t exercised = 0;
  for (const core::configuration& c : random_configs(12, 29)) {
    const core::evaluation a = alone.evaluate(c);
    if (!a.feasible || !(a.avg_latency_ms > 0.0)) continue;
    const double mapping_w = a.avg_energy_mj / a.avg_latency_ms;
    core::evaluator_options crowded_opt;
    crowded_opt.contention.thermal = roomy;
    crowded_opt.contention.residents.push_back(
        make_resident("heater", 0.0, 0.0, roomy.max_sustained_power_w() - mapping_w + 0.5));
    const core::evaluation b = core::evaluator{net, plat, crowded_opt}.evaluate(c);
    EXPECT_FALSE(b.feasible);
    EXPECT_NE(b.reject_reason.find("co-residents"), std::string::npos) << b.reject_reason;
    ++exercised;
    if (exercised >= 3) break;  // the construction is per-config; a few suffice
  }
  EXPECT_GT(exercised, 0u);
}

TEST_F(colocation_evaluator, constructor_validates_the_scenario) {
  core::evaluator_options opt;
  opt.contention.residents.push_back(make_resident("a", 1.0, 1.0, 0.0, 0.0, {99}));
  EXPECT_THROW((core::evaluator{net, plat, opt}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Serialization + serving: the scenario note and scenario-aware identity.
// ---------------------------------------------------------------------------

core::report_summary one_entry_summary() {
  core::report_summary s;
  s.network = "n";
  s.platform = "p";
  const nn::network net = nn::build_simple_cnn();
  const soc::platform plat = soc::agx_xavier();
  const core::search_space space{net, plat};
  util::rng gen{2};
  core::summary_entry entry;
  entry.label = "front-0+ours-L+ours-E";
  entry.config = space.decode(space.random(gen));
  s.entries.push_back(std::move(entry));
  return s;
}

TEST(scenario_note_roundtrip, fields_survive_to_text_and_back) {
  core::report_summary s = one_entry_summary();
  core::scenario_note note;
  note.residents = 3;
  note.reserved_units = 2;
  note.dvfs_capped_units = 1;
  note.resident_interconnect_gbps = 4.25;
  note.resident_dram_gbps = 6.5;
  note.resident_power_w = 7.75;
  note.ambient_c = 25.0;
  note.throttle_c = 85.0;
  s.scenario = note;
  const core::report_summary back = core::report_summary_from_text(core::to_text(s));
  ASSERT_TRUE(back.scenario.has_value());
  EXPECT_EQ(back.scenario->residents, 3u);
  EXPECT_EQ(back.scenario->reserved_units, 2u);
  EXPECT_EQ(back.scenario->dvfs_capped_units, 1u);
  EXPECT_EQ(back.scenario->resident_interconnect_gbps, 4.25);
  EXPECT_EQ(back.scenario->resident_dram_gbps, 6.5);
  EXPECT_EQ(back.scenario->resident_power_w, 7.75);
  EXPECT_EQ(back.scenario->ambient_c, 25.0);
  EXPECT_EQ(back.scenario->throttle_c, 85.0);
}

TEST(scenario_note_roundtrip, legacy_documents_have_no_scenario) {
  const core::report_summary s = one_entry_summary();
  const std::string text = core::to_text(s);
  EXPECT_EQ(text.find("scenario"), std::string::npos);  // idle adds no row
  const core::report_summary back = core::report_summary_from_text(text);
  EXPECT_FALSE(back.scenario.has_value());
}

serving::mapping_request tiny_request(const std::string& network) {
  serving::mapping_request req;
  req.network = network;
  req.use_surrogate = false;
  req.ga.generations = 2;
  req.ga.population = 6;
  return req;
}

TEST(colocation_serving, fingerprints_gate_on_idleness) {
  serving::mapping_request legacy = tiny_request("net");
  serving::mapping_request idle = legacy;
  idle.eval.contention.interconnect_alpha = 5.0;  // still idle
  // Back-compat contract: idle scenarios add nothing to the fingerprint.
  EXPECT_EQ(serving::request_fingerprint(legacy), serving::request_fingerprint(idle));

  serving::mapping_request loaded = legacy;
  loaded.eval.contention.residents.push_back(make_resident("r", 1.0, 1.0));
  EXPECT_NE(serving::request_fingerprint(legacy), serving::request_fingerprint(loaded));

  serving::mapping_request capped = legacy;
  capped.eval.contention.dvfs_cap = {0};
  EXPECT_NE(serving::request_fingerprint(legacy), serving::request_fingerprint(capped));
}

struct colocation_service : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();

  serving::mapping_service make_service() const {
    serving::service_options opt;
    opt.engine.threads = 1;
    opt.workers = 1;
    return serving::mapping_service{opt};
  }
};

TEST_F(colocation_service, scenarios_key_their_own_sessions) {
  serving::mapping_service service = make_service();
  service.register_network(net);
  service.register_platform(plat);

  const serving::mapping_report a = service.map(tiny_request(net.name));
  EXPECT_EQ(service.session_count(), 1u);
  EXPECT_FALSE(a.scenario.has_value());  // idle: note absent, text unchanged

  serving::mapping_request loaded = tiny_request(net.name);
  loaded.eval.contention.residents.push_back(make_resident("r", 2.0, 3.0, 1.5, 0.0, {1}));
  loaded.eval.contention.dvfs_cap = {0};
  const serving::mapping_report b = service.map(loaded);
  EXPECT_EQ(service.session_count(), 2u);  // distinct scenario, distinct session
  EXPECT_NE(a.session_key, b.session_key);

  ASSERT_TRUE(b.scenario.has_value());
  EXPECT_EQ(b.scenario->residents, 1u);
  EXPECT_EQ(b.scenario->reserved_units, 1u);
  EXPECT_EQ(b.scenario->dvfs_capped_units, 1u);
  EXPECT_EQ(b.scenario->resident_interconnect_gbps, 2.0);
  EXPECT_EQ(b.scenario->resident_dram_gbps, 3.0);
  EXPECT_EQ(b.scenario->resident_power_w, 1.5);

  // The note survives the shipped-report round trip.
  const core::report_summary back = core::report_summary_from_text(core::to_text(b.summary()));
  ASSERT_TRUE(back.scenario.has_value());
  EXPECT_EQ(back.scenario->residents, 1u);

  // An idle rerun still lands in the original session (cache intact).
  (void)service.map(tiny_request(net.name));
  EXPECT_EQ(service.session_count(), 2u);
}

// ---------------------------------------------------------------------------
// placement_group: membership, per-member scenarios, concurrent traffic.
// ---------------------------------------------------------------------------

TEST_F(colocation_service, placement_group_membership_and_scenarios) {
  serving::mapping_service service = make_service();
  service.register_network(net);
  service.register_platform(plat);
  serving::placement_group group{service, plat};

  group.join(make_resident("a", 1.0, 1.0, 0.5, 0.0, {1}));
  group.join(make_resident("b", 2.0, 2.0, 0.5, 0.0, {2}));
  EXPECT_THROW(group.join(make_resident("a", 0.0, 0.0)), std::invalid_argument);
  EXPECT_THROW(group.join(make_resident("c", 0.0, 0.0, 0.0, 0.0, {1})),
               std::invalid_argument);  // unit 1 already owned
  EXPECT_EQ(group.members().size(), 2u);
  EXPECT_FALSE(group.unit_reserved(0));
  EXPECT_TRUE(group.unit_reserved(1));
  EXPECT_TRUE(group.unit_reserved(2));

  // Each member contends with every *other* member, never itself.
  const soc::contention_context for_a = group.scenario_for("a");
  ASSERT_EQ(for_a.residents.size(), 1u);
  EXPECT_EQ(for_a.residents[0].name, "b");
  EXPECT_THROW((void)group.scenario_for("zzz"), std::invalid_argument);

  const serving::mapping_request req = group.request_for("a", tiny_request(net.name));
  EXPECT_EQ(req.platform, plat.name);
  ASSERT_EQ(req.eval.contention.residents.size(), 1u);
  EXPECT_EQ(req.eval.contention.residents[0].name, "b");

  const serving::mapping_report rep = group.map("a", tiny_request(net.name));
  ASSERT_TRUE(rep.scenario.has_value());
  EXPECT_EQ(rep.scenario->residents, 1u);
  // Member a's own stages must avoid b's reserved CU 2.
  for (const core::evaluation& e : rep.front) EXPECT_TRUE(e.feasible);

  group.leave("b");
  EXPECT_FALSE(group.unit_reserved(2));
  EXPECT_THROW(group.leave("b"), std::invalid_argument);
  // Sole member with no base scenario: idle context, legacy-identical path.
  EXPECT_TRUE(group.scenario_for("a").idle());
}

TEST_F(colocation_service, placement_group_base_scenario_is_shared) {
  soc::contention_context base;
  base.residents.push_back(make_resident("external-dnn", 1.0, 1.0, 0.0, 0.0, {0}));
  base.dvfs_cap = {0, 0, 0};
  serving::mapping_service service = make_service();
  serving::placement_group group{service, plat, base};
  group.join(make_resident("a", 0.0, 0.0));
  // Base residents contend with members but are not members themselves.
  const soc::contention_context ctx = group.scenario_for("a");
  ASSERT_EQ(ctx.residents.size(), 1u);
  EXPECT_EQ(ctx.residents[0].name, "external-dnn");
  EXPECT_EQ(ctx.dvfs_cap, base.dvfs_cap);
  EXPECT_THROW(group.leave("external-dnn"), std::invalid_argument);
  EXPECT_THROW(group.join(make_resident("clash", 0.0, 0.0, 0.0, 0.0, {0})),
               std::invalid_argument);

  soc::contention_context bad;
  bad.residents.push_back(make_resident("x", 1.0, 1.0, 0.0, 0.0, {99}));
  EXPECT_THROW((serving::placement_group{service, plat, bad}), std::invalid_argument);
}

TEST_F(colocation_service, placement_group_serves_concurrent_members) {
  // TSan coverage: two members join and submit concurrently against one
  // service; the ledger and scheduler must stay coherent.
  serving::mapping_service service = make_service();
  service.register_network(net);
  service.register_platform(plat);
  serving::placement_group group{service, plat};
  group.join(make_resident("a", 1.0, 1.0, 0.0, 0.0, {1}));
  group.join(make_resident("b", 1.0, 1.0, 0.0, 0.0, {2}));

  std::vector<std::shared_future<serving::mapping_report>> futures(4);
  {
    std::vector<std::thread> threads;
    threads.reserve(2);
    for (int t = 0; t < 2; ++t)
      threads.emplace_back([&, t] {
        const std::string member = t == 0 ? "a" : "b";
        for (int i = 0; i < 2; ++i) {
          serving::mapping_request req = tiny_request(net.name);
          req.ga.seed = 100 + static_cast<std::uint64_t>(i);
          futures[static_cast<std::size_t>(t * 2 + i)] = group.submit(member, std::move(req));
        }
      });
    for (std::thread& th : threads) th.join();
  }
  for (auto& f : futures) {
    const serving::mapping_report rep = f.get();
    ASSERT_TRUE(rep.scenario.has_value());
    EXPECT_EQ(rep.scenario->residents, 1u);
    EXPECT_EQ(rep.scenario->reserved_units, 1u);  // the *other* member's CU
  }
  // Two members x two seeds, each scenario keyed apart: four sessions max,
  // two distinct scenario lanes at least.
  EXPECT_GE(service.session_count(), 2u);
}

}  // namespace

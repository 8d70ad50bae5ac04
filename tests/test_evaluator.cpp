// Evaluation pipeline tests: metrics, constraints, surrogate path, static
// vs dynamic exits, idle accounting, and `evaluate_batch` against
// element-wise `evaluate`.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/evaluator.h"
#include "core/search_space.h"
#include "core/serialization.h"
#include "nn/models.h"
#include "perf/calibration.h"
#include "surrogate/dataset.h"
#include "util/rng.h"

namespace {

using namespace mapcq;
using core::configuration;
using core::evaluation;
using core::evaluator;
using core::evaluator_options;

struct evaluator_fixture : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();

  configuration cfg() const { return core::make_static_configuration(net, plat); }
};

TEST_F(evaluator_fixture, static_config_dynamic_exits_metrics_consistent) {
  const evaluator ev{net, plat, {}};
  const evaluation e = ev.evaluate(cfg());
  EXPECT_TRUE(e.feasible) << e.reject_reason;
  EXPECT_GT(e.avg_latency_ms, 0.0);
  EXPECT_GT(e.avg_energy_mj, 0.0);
  EXPECT_LE(e.avg_latency_ms, e.worst_latency_ms + 1e-9);
  EXPECT_LE(e.avg_energy_mj, e.worst_energy_mj + 1e-9);
  EXPECT_EQ(e.stage_latency_ms.size(), plat.size());
  EXPECT_NEAR(e.fmap_reuse_pct, 100.0, 1e-9);
  // Full reuse, full width: last stage reaches ceiling.
  EXPECT_NEAR(e.last_stage_accuracy_pct, net.base_accuracy + net.multi_exit_bonus, 0.01);
}

TEST_F(evaluator_fixture, static_exits_put_everyone_at_last_stage) {
  evaluator_options opt;
  opt.dynamic_exits = false;
  const evaluator ev{net, plat, opt};
  const evaluation e = ev.evaluate(cfg());
  EXPECT_NEAR(e.exit_fractions.back(), 1.0, 1e-12);
  for (std::size_t i = 0; i + 1 < e.exit_fractions.size(); ++i)
    EXPECT_DOUBLE_EQ(e.exit_fractions[i], 0.0);
  // Everyone pays the full pipeline.
  EXPECT_NEAR(e.avg_latency_ms, e.worst_latency_ms, 1e-9);
}

TEST_F(evaluator_fixture, dynamic_exits_cheaper_than_static) {
  const evaluator dyn{net, plat, {}};
  evaluator_options sopt;
  sopt.dynamic_exits = false;
  const evaluator stat{net, plat, sopt};
  const auto cd = cfg();
  EXPECT_LT(dyn.evaluate(cd).avg_energy_mj, stat.evaluate(cd).avg_energy_mj);
  EXPECT_LT(dyn.evaluate(cd).avg_latency_ms, stat.evaluate(cd).avg_latency_ms + 1e-9);
}

TEST_F(evaluator_fixture, reuse_cap_flags_infeasible) {
  evaluator_options opt;
  opt.limits.fmap_reuse_cap = 0.5;
  const evaluator ev{net, plat, opt};
  const evaluation e = ev.evaluate(cfg());  // static cfg has 100% reuse
  EXPECT_FALSE(e.feasible);
  EXPECT_NE(e.reject_reason.find("reuse"), std::string::npos);
}

TEST_F(evaluator_fixture, memory_budget_flags_infeasible) {
  soc::platform tiny = plat;
  tiny.shared_memory_bytes = 64.0;  // nothing fits
  const evaluator ev{net, tiny, {}};
  const evaluation e = ev.evaluate(core::make_static_configuration(net, tiny));
  EXPECT_FALSE(e.feasible);
  EXPECT_NE(e.reject_reason.find("shared memory"), std::string::npos);
}

TEST_F(evaluator_fixture, latency_target_flags_infeasible) {
  evaluator_options opt;
  opt.limits.latency_target_ms = 1e-6;
  const evaluator ev{net, plat, opt};
  EXPECT_FALSE(ev.evaluate(cfg()).feasible);
}

TEST_F(evaluator_fixture, energy_target_flags_infeasible) {
  evaluator_options opt;
  opt.limits.energy_target_mj = 1e-9;
  const evaluator ev{net, plat, opt};
  EXPECT_FALSE(ev.evaluate(cfg()).feasible);
}

TEST_F(evaluator_fixture, idle_accounting_increases_energy) {
  evaluator_options with;
  with.count_idle_power = true;
  evaluator_options without;
  without.count_idle_power = false;
  const evaluator a{net, plat, with};
  const evaluator b{net, plat, without};
  const auto c = cfg();
  EXPECT_GT(a.evaluate(c).avg_energy_mj, b.evaluate(c).avg_energy_mj);
  EXPECT_NEAR(a.evaluate(c).avg_latency_ms, b.evaluate(c).avg_latency_ms, 1e-9);
}

TEST_F(evaluator_fixture, evaluation_is_deterministic) {
  const evaluator ev{net, plat, {}};
  const auto c = cfg();
  const evaluation a = ev.evaluate(c);
  const evaluation b = ev.evaluate(c);
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_DOUBLE_EQ(a.avg_energy_mj, b.avg_energy_mj);
  EXPECT_DOUBLE_EQ(a.accuracy_pct, b.accuracy_pct);
}

TEST_F(evaluator_fixture, surrogate_close_to_analytic) {
  const surrogate::dataset ds = surrogate::generate_benchmark({&net}, plat, {});
  const auto parts = surrogate::split(ds, 0.8, 9);
  const surrogate::hw_predictor pred{parts.train};

  evaluator_options opt;
  opt.predictor = &pred;
  const evaluator sur{net, plat, opt};
  const evaluator ana{net, plat, {}};
  const auto c = cfg();
  const evaluation es = sur.evaluate(c);
  const evaluation ea = ana.evaluate(c);
  EXPECT_NEAR(es.avg_latency_ms / ea.avg_latency_ms, 1.0, 0.25);
  EXPECT_NEAR(es.avg_energy_mj / ea.avg_energy_mj, 1.0, 0.25);
  // Accuracy path is independent of the cost source.
  EXPECT_DOUBLE_EQ(es.accuracy_pct, ea.accuracy_pct);
}

TEST_F(evaluator_fixture, reorder_ablation_reduces_early_accuracy) {
  evaluator_options ranked;
  evaluator_options unranked;
  unranked.reorder = false;
  const evaluator a{net, plat, ranked};
  const evaluator b{net, plat, unranked};
  const auto c = cfg();
  EXPECT_GT(a.evaluate(c).stage_accuracy_pct[0], b.evaluate(c).stage_accuracy_pct[0]);
}

TEST_F(evaluator_fixture, rejects_bad_options) {
  evaluator_options opt;
  opt.population = 0;
  EXPECT_THROW((evaluator{net, plat, opt}), std::invalid_argument);
  evaluator_options opt2;
  opt2.limits.fmap_reuse_cap = 1.5;
  EXPECT_THROW((evaluator{net, plat, opt2}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// evaluate_batch == evaluate, field-exact.
// ---------------------------------------------------------------------------

void expect_eval_identical(const evaluation& a, const evaluation& b) {
  EXPECT_TRUE(a.config == b.config);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.reject_reason, b.reject_reason);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.avg_latency_ms, b.avg_latency_ms);
  EXPECT_EQ(a.avg_energy_mj, b.avg_energy_mj);
  EXPECT_EQ(a.worst_latency_ms, b.worst_latency_ms);
  EXPECT_EQ(a.worst_energy_mj, b.worst_energy_mj);
  EXPECT_EQ(a.accuracy_pct, b.accuracy_pct);
  EXPECT_EQ(a.last_stage_accuracy_pct, b.last_stage_accuracy_pct);
  EXPECT_EQ(a.fmap_reuse_pct, b.fmap_reuse_pct);
  EXPECT_EQ(a.stored_fmap_bytes, b.stored_fmap_bytes);
  EXPECT_EQ(a.fmap_traffic_bytes, b.fmap_traffic_bytes);
  EXPECT_EQ(a.stage_latency_ms, b.stage_latency_ms);
  EXPECT_EQ(a.stage_energy_mj, b.stage_energy_mj);
  EXPECT_EQ(a.stage_accuracy_pct, b.stage_accuracy_pct);
  EXPECT_EQ(a.exit_fractions, b.exit_fractions);
}

/// The %.17g text check on top of field equality: a serialized evaluation
/// must round-trip byte-identically, which is the contract session
/// snapshots depend on.
std::string eval_text(const evaluation& e) {
  std::ostringstream os;
  core::write_evaluation(os, e);
  return os.str();
}

TEST(batch_evaluator, evaluate_batch_matches_scalar_across_networks) {
  const nn::network nets[] = {nn::build_simple_cnn(), nn::build_mobilenet_cifar()};
  const soc::platform plats[] = {soc::agx_xavier(), soc::agx_xavier_with_cpu()};
  for (const nn::network& net : nets) {
    for (const soc::platform& plat : plats) {
      for (const bool idle : {false, true}) {
        evaluator_options opt;
        opt.count_idle_power = idle;
        const evaluator eval{net, plat, opt};
        const core::search_space space{net, plat};
        util::rng gen{net.name.size() + plat.size() + (idle ? 1u : 0u)};
        for (const std::size_t batch :
             {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{37}}) {
          std::vector<configuration> configs;
          for (std::size_t i = 0; i < batch; ++i)
            configs.push_back(space.decode(space.random(gen)));
          std::vector<const configuration*> ptrs;
          for (const configuration& c : configs) ptrs.push_back(&c);
          const std::vector<evaluation> got = eval.evaluate_batch(ptrs);
          ASSERT_EQ(got.size(), batch);
          for (std::size_t i = 0; i < batch; ++i) {
            const evaluation want = eval.evaluate(configs[i]);
            expect_eval_identical(got[i], want);
            EXPECT_EQ(eval_text(got[i]), eval_text(want));
          }
        }
      }
    }
  }
}

TEST(batch_evaluator, evaluate_batch_matches_scalar_under_fixed_contention) {
  // Any *fixed* contention state, not just the idle one: co-resident
  // traffic (derated platform), a reserved CU (rejections + idle-power
  // exclusion) and DVFS caps.
  const nn::network net = nn::build_simple_cnn();
  const soc::platform plat = soc::agx_xavier();
  evaluator_options opt;
  soc::resident_load neighbor;
  neighbor.name = "neighbor";
  neighbor.interconnect_gbps = 3.0;
  neighbor.dram_gbps = 4.0;
  neighbor.power_w = 1.0;
  neighbor.reserved_units = {1};
  opt.contention.residents.push_back(neighbor);
  opt.contention.dvfs_cap.assign(plat.size(), 1);
  const evaluator eval{net, plat, opt};
  const core::search_space space{net, plat};
  util::rng gen{41};
  std::vector<configuration> configs;
  for (std::size_t i = 0; i < 37; ++i) configs.push_back(space.decode(space.random(gen)));
  std::vector<const configuration*> ptrs;
  for (const configuration& c : configs) ptrs.push_back(&c);
  const std::vector<evaluation> got = eval.evaluate_batch(ptrs);
  ASSERT_EQ(got.size(), configs.size());
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const evaluation want = eval.evaluate(configs[i]);
    expect_eval_identical(got[i], want);
    EXPECT_EQ(eval_text(got[i]), eval_text(want));
    if (!got[i].feasible) ++rejected;
  }
  EXPECT_GT(rejected, 0u);  // the reserved CU actually bites in this sweep
}

TEST(baselines, single_cu_matches_calibration_targets) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto cal = perf::calibrated_xavier(vis, vgg);
  const auto gpu = core::single_cu_baseline(vis, cal.plat, 0);
  EXPECT_NEAR(gpu.latency_ms, 15.01, 0.05);
  EXPECT_NEAR(gpu.energy_mj, 197.35, 1.0);
  EXPECT_DOUBLE_EQ(gpu.accuracy_pct, 88.09);
  const auto dla = core::single_cu_baseline(vis, cal.plat, 1);
  EXPECT_NEAR(dla.latency_ms, 69.22, 0.2);
  EXPECT_NEAR(dla.energy_mj, 53.71, 0.5);
}

TEST(baselines, static_mapping_between_extremes) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto cal = perf::calibrated_xavier(vis, vgg);
  const auto gpu = core::single_cu_baseline(vis, cal.plat, 0);
  const auto dla = core::single_cu_baseline(vis, cal.plat, 1);
  const auto stat = core::static_mapping_baseline(vis, cal.plat);
  EXPECT_TRUE(stat.feasible);
  // Fig. 1 shape: static partition is faster than DLA-only and cheaper
  // than GPU-only.
  EXPECT_LT(stat.avg_latency_ms, dla.latency_ms);
  EXPECT_LT(stat.avg_energy_mj, gpu.energy_mj);
}

}  // namespace

// Cross-module integration tests: four-CU mapping (M=4 with the CPU
// cluster), constraint-regime sweeps, alternative architectures through the
// whole optimizer, and end-to-end determinism.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/baselines.h"
#include "core/evolutionary.h"
#include "core/serialization.h"
#include "nn/models.h"
#include "serving/mapping_service.h"
#include "soc/platform.h"

namespace {

using namespace mapcq;

core::ga_options tiny(std::uint64_t seed) {
  core::ga_options opt;
  opt.generations = 5;
  opt.population = 12;
  opt.seed = seed;
  return opt;
}

TEST(integration, four_unit_platform_maps_four_stages) {
  const auto net = nn::build_simple_cnn();
  const auto plat = soc::agx_xavier_with_cpu();
  const core::search_space space{net, plat};
  EXPECT_EQ(space.stages(), 4u);
  const core::evaluator ev{net, plat, {}};
  const auto res = core::evolve(space, ev, tiny(3));
  ASSERT_FALSE(res.archive.empty());
  const auto& best = res.best();
  EXPECT_EQ(best.config.stages(), 4u);
  EXPECT_EQ(best.stage_latency_ms.size(), 4u);
}

TEST(integration, static_config_on_four_units_splits_quarters) {
  const auto net = nn::build_simple_cnn();
  const auto plat = soc::agx_xavier_with_cpu();
  const auto cfg = core::make_static_configuration(net, plat);
  for (const auto& row : cfg.partition)
    for (const double p : row) EXPECT_NEAR(p, 0.25, 1e-12);
  EXPECT_NO_THROW(cfg.validate(plat));
}

TEST(integration, reuse_regimes_monotone_in_constraint) {
  // Tighter reuse caps can only shrink the feasible set; best achievable
  // accuracy must be non-increasing as the cap tightens.
  const auto net = nn::build_simple_cnn();
  const auto plat = soc::agx_xavier();
  const core::search_space space{net, plat};
  double prev_best_acc = 1e9;
  for (const double cap : {1.0, 0.75, 0.5}) {
    core::evaluator_options eopt;
    eopt.limits.fmap_reuse_cap = cap;
    const core::evaluator ev{net, plat, eopt};
    const auto res = core::evolve(space, ev, tiny(11));
    double best_acc = 0.0;
    for (const auto& e : res.archive) best_acc = std::max(best_acc, e.accuracy_pct);
    EXPECT_LE(best_acc, prev_best_acc + 0.5);  // small GA noise tolerated
    prev_best_acc = best_acc;
  }
}

TEST(integration, mobilenet_through_full_optimizer) {
  const auto net = nn::build_mobilenet_cifar();
  serving::mapping_service service;
  service.register_network(net);
  service.register_platform(soc::agx_xavier());
  serving::mapping_request req;
  req.network = net.name;
  req.ga = tiny(13);
  req.use_surrogate = false;  // keep the test fast
  const serving::mapping_report rep = service.map(req);
  EXPECT_FALSE(rep.front.empty());
  EXPECT_GT(rep.ours_energy().accuracy_pct, 50.0);
}

TEST(integration, plain20_pipeline_vs_width_partition) {
  const auto net = nn::build_plain20();
  const auto plat = soc::agx_xavier();
  const auto pipe = core::pipeline_baseline(net, plat);
  const auto stat = core::static_mapping_baseline(net, plat);
  // Both must produce sane numbers; the width partition exploits
  // concurrency for single-input latency while the pipeline does not.
  EXPECT_GT(pipe.latency_ms, 0.0);
  EXPECT_GT(stat.avg_latency_ms, 0.0);
  EXPECT_LT(stat.avg_latency_ms, pipe.latency_ms);
}

TEST(integration, searched_config_roundtrips_through_serialization) {
  const auto net = nn::build_simple_cnn();
  const auto plat = soc::agx_xavier();
  const core::search_space space{net, plat};
  const core::evaluator ev{net, plat, {}};
  const auto res = core::evolve(space, ev, tiny(17));
  const auto& cfg = res.best().config;
  const auto back = core::configuration_from_text(core::to_text(cfg));
  const auto replay = ev.evaluate(back);
  EXPECT_DOUBLE_EQ(replay.objective, res.best().objective);
  EXPECT_DOUBLE_EQ(replay.avg_energy_mj, res.best().avg_energy_mj);
}

TEST(integration, thermal_constraint_shrinks_archive) {
  const auto net = nn::build_vgg19();
  const auto plat = soc::agx_xavier();
  const core::search_space space{net, plat};

  core::evaluator_options free_opt;
  const core::evaluator free_ev{net, plat, free_opt};
  const auto free_res = core::evolve(space, free_ev, tiny(19));

  core::evaluator_options hot_opt;
  soc::thermal_model weak;
  weak.r_thermal_c_per_w = 6.0;  // weak heatsink: ~8.7 W sustained budget
  hot_opt.thermal = weak;
  const core::evaluator hot_ev{net, plat, hot_opt};
  const auto hot_res = core::evolve(space, hot_ev, tiny(19));

  // Every surviving candidate respects the power budget.
  for (const auto& e : hot_res.archive)
    EXPECT_LE(e.avg_energy_mj / e.avg_latency_ms, weak.max_sustained_power_w() + 1e-6);
  EXPECT_LE(hot_res.archive.size(), free_res.archive.size());
}

TEST(integration, gpu_only_dominates_latency_dla_only_dominates_energy) {
  // The premise of the whole paper, across every architecture we ship.
  const auto plat = soc::agx_xavier();
  for (const auto& net : {nn::build_visformer(), nn::build_vgg19(), nn::build_simple_cnn(),
                          nn::build_mobilenet_cifar(), nn::build_plain20()}) {
    const auto gpu = core::single_cu_baseline(net, plat, 0);
    const auto dla = core::single_cu_baseline(net, plat, 1);
    EXPECT_LT(gpu.latency_ms, dla.latency_ms) << net.name;
    EXPECT_LT(dla.energy_mj, gpu.energy_mj) << net.name;
  }
}

}  // namespace

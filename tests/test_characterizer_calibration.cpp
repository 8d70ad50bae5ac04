// Characterizer (eqs. 13-14 + idle accounting) and calibration tests.

#include <gtest/gtest.h>

#include <string>

#include "nn/models.h"
#include "perf/calibration.h"
#include "perf/characterizer.h"
#include "perf/single_cu.h"
#include "soc/platform.h"
#include "util/strings.h"

namespace {

using namespace mapcq;

TEST(characterizer, avg_weighting_math) {
  perf::dynamic_profile p;
  p.latency_upto = {2.0, 5.0, 9.0};
  p.energy_upto = {10.0, 30.0, 70.0};
  const std::vector<double> fr = {0.5, 0.3, 0.2};
  EXPECT_NEAR(p.avg_latency_ms(fr), 0.5 * 2 + 0.3 * 5 + 0.2 * 9, 1e-12);
  EXPECT_NEAR(p.avg_energy_mj(fr), 0.5 * 10 + 0.3 * 30 + 0.2 * 70, 1e-12);
  EXPECT_DOUBLE_EQ(p.worst_latency_ms(), 9.0);
  EXPECT_DOUBLE_EQ(p.worst_energy_mj(), 70.0);
}

TEST(characterizer, rejects_bad_fractions) {
  perf::dynamic_profile p;
  p.latency_upto = {1.0, 2.0};
  p.energy_upto = {1.0, 2.0};
  EXPECT_THROW((void)p.avg_latency_ms(std::vector<double>{1.0}), std::invalid_argument);
  EXPECT_THROW((void)p.avg_latency_ms(std::vector<double>{0.7, 0.7}), std::invalid_argument);
  EXPECT_THROW((void)p.avg_latency_ms(std::vector<double>{1.2, -0.2}), std::invalid_argument);
}

TEST(characterizer, system_idle_adds_energy) {
  // Two-stage plan on Xavier; system accounting must cost more than the
  // paper's pure eq. 14 accounting.
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto cal = perf::calibrated_xavier(vis, vgg);

  perf::stage_plan plan;
  plan.steps.assign(2, std::vector<perf::stage_step>(1));
  for (auto& st : plan.steps) {
    st[0].cost.kind = nn::layer_kind::conv2d;
    st[0].cost.flops = 1e8;
    st[0].cost.width_frac = 1.0;
  }
  plan.cu_of_stage = {0, 1};
  plan.dvfs_level = {cal.plat.unit(0).dvfs.max_level(), cal.plat.unit(1).dvfs.max_level(),
                     cal.plat.unit(2).dvfs.max_level()};
  const auto res = perf::simulate(cal.plat, plan);
  const auto plain = perf::characterize(res);
  const auto system = perf::characterize_system(res, plan, cal.plat);
  for (std::size_t m = 0; m < plain.stages(); ++m) {
    EXPECT_GT(system.energy_upto[m], plain.energy_upto[m]);
    EXPECT_DOUBLE_EQ(system.latency_upto[m], plain.latency_upto[m]);
  }
}

TEST(single_cu, run_is_positive_and_level_sensitive) {
  const auto net = nn::build_simple_cnn();
  const auto plat = soc::agx_xavier();
  const auto& gpu = plat.unit(0);
  const auto fast = perf::single_cu_run(net, gpu, gpu.dvfs.max_level());
  const auto slow = perf::single_cu_run(net, gpu, 0);
  EXPECT_GT(fast.latency_ms, 0.0);
  EXPECT_GT(fast.energy_mj, 0.0);
  EXPECT_GT(slow.latency_ms, fast.latency_ms);
}

TEST(calibration, xavier_hits_all_four_anchors) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto cal = perf::calibrated_xavier(vis, vgg);
  ASSERT_EQ(cal.reports.size(), 3u);
  for (const auto& rep : cal.reports) {
    for (const double e : rep.latency_error) EXPECT_LT(std::abs(e), 1e-3) << rep.unit;
    for (const double e : rep.energy_error) EXPECT_LT(std::abs(e), 1e-3) << rep.unit;
  }
}

TEST(calibration, calibrated_baselines_match_paper) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto cal = perf::calibrated_xavier(vis, vgg);
  const auto& gpu = cal.plat.unit(0);
  const auto& dla = cal.plat.unit(1);

  const auto vis_gpu = perf::single_cu_run(vis, gpu, gpu.dvfs.max_level());
  EXPECT_NEAR(vis_gpu.latency_ms, 15.01, 0.05);
  const auto vis_dla = perf::single_cu_run(vis, dla, dla.dvfs.max_level());
  EXPECT_NEAR(vis_dla.latency_ms, 69.22, 0.2);
  const auto vgg_gpu = perf::single_cu_run(vgg, gpu, gpu.dvfs.max_level());
  EXPECT_NEAR(vgg_gpu.latency_ms, 25.23, 0.1);
  const auto vgg_dla = perf::single_cu_run(vgg, dla, dla.dvfs.max_level());
  EXPECT_NEAR(vgg_dla.latency_ms, 114.41, 0.3);
}

TEST(calibration, gpu_fast_and_hungry_dla_slow_and_frugal) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto cal = perf::calibrated_xavier(vis, vgg);
  const auto& gpu = cal.plat.unit(0);
  const auto& dla = cal.plat.unit(1);
  const auto g = perf::single_cu_run(vis, gpu, gpu.dvfs.max_level());
  const auto d = perf::single_cu_run(vis, dla, dla.dvfs.max_level());
  EXPECT_LT(g.latency_ms, d.latency_ms);   // GPU faster
  EXPECT_GT(g.energy_mj, d.energy_mj);     // DLA frugal
}

TEST(calibration, dlas_identical_after_calibration) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto cal = perf::calibrated_xavier(vis, vgg);
  const auto& dla0 = cal.plat.unit(1);
  const auto& dla1 = cal.plat.unit(2);
  EXPECT_DOUBLE_EQ(dla0.efficiency_spatial, dla1.efficiency_spatial);
  EXPECT_DOUBLE_EQ(dla0.activity_matmul, dla1.activity_matmul);
}

TEST(calibration, calibrated_xavier_is_pinned_bit_for_bit) {
  // Every calibrated scalar at %.17g. The bisections stop at their fixed
  // point instead of running all 100 steps; that must not move a bit.
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto cal = perf::calibrated_xavier(vis, vgg);
  const std::string gpu =
      "0.0029632286126736631 0.0038656780333981965 0.77848001218857554 0.2479719194432346 30";
  const std::string dla =
      "0.0025613328265993718 0.0032624409299173212 0.67085133244585848 0.11553420943632911 "
      "1.6000000000000001";
  ASSERT_EQ(cal.plat.size(), 3u);
  for (std::size_t u = 0; u < cal.plat.size(); ++u) {
    const soc::compute_unit& cu = cal.plat.unit(u);
    EXPECT_EQ(util::format("%.17g %.17g %.17g %.17g %.17g", cu.efficiency_spatial,
                           cu.efficiency_matmul, cu.activity_spatial, cu.activity_matmul,
                           cu.dynamic_power_w),
              u == 0 ? gpu : dla)
        << cu.name;
  }
}

TEST(calibration, rejects_bad_anchors) {
  auto plat = soc::agx_xavier();
  const auto net = nn::build_simple_cnn();
  const perf::reference_point bad_null[] = {{nullptr, 1.0, 1.0, soc::op_class::spatial}};
  EXPECT_THROW((void)perf::calibrate_unit(plat.units[0], bad_null), std::invalid_argument);
  const perf::reference_point bad_zero[] = {{&net, 0.0, 1.0, soc::op_class::spatial}};
  EXPECT_THROW((void)perf::calibrate_unit(plat.units[0], bad_zero), std::invalid_argument);
  EXPECT_THROW((void)perf::calibrate_unit(plat.units[0], std::span<const perf::reference_point>{}),
               std::invalid_argument);
}

TEST(calibration, unreachable_latency_throws) {
  auto plat = soc::agx_xavier();
  const auto net = nn::build_vgg19();
  // Absurdly fast target: even efficiency 1.0 cannot reach it.
  const perf::reference_point anchors[] = {{&net, 1e-6, 100.0, soc::op_class::spatial}};
  EXPECT_THROW((void)perf::calibrate_unit(plat.units[0], anchors), std::runtime_error);
}

TEST(calibration, dvfs_scaling_preserved_after_calibration) {
  const auto vis = nn::build_visformer();
  const auto vgg = nn::build_vgg19();
  const auto cal = perf::calibrated_xavier(vis, vgg);
  const auto& gpu = cal.plat.unit(0);
  const auto fast = perf::single_cu_run(vis, gpu, gpu.dvfs.max_level());
  const auto slow = perf::single_cu_run(vis, gpu, 0);
  // Compute-dominated: latency should grow roughly like 1/theta.
  EXPECT_GT(slow.latency_ms / fast.latency_ms, 2.0);
  // Energy at low DVFS: lower power but longer time.
  EXPECT_GT(slow.energy_mj, 0.0);
}

}  // namespace

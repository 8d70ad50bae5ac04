// Compute-unit, DVFS, platform and interconnect tests.

#include <gtest/gtest.h>

#include "soc/compute_unit.h"
#include "soc/dvfs.h"
#include "soc/interconnect.h"
#include "soc/platform.h"

namespace {

using namespace mapcq::soc;

TEST(dvfs, xavier_tables_ascend) {
  for (const auto& tbl : {xavier_gpu_dvfs(), xavier_dla_dvfs(), xavier_cpu_dvfs()}) {
    ASSERT_GT(tbl.levels(), 4u);
    double prev = 0.0;
    for (std::size_t l = 0; l < tbl.levels(); ++l) {
      EXPECT_GT(tbl.frequency_mhz(l), prev);
      prev = tbl.frequency_mhz(l);
    }
  }
}

TEST(dvfs, scale_is_fraction_of_max) {
  const dvfs_table t = xavier_gpu_dvfs();
  EXPECT_DOUBLE_EQ(t.scale(t.max_level()), 1.0);
  EXPECT_GT(t.scale(0), 0.0);
  EXPECT_LT(t.scale(0), 1.0);
}

TEST(dvfs, nearest_level) {
  const dvfs_table t{{100.0, 200.0, 400.0}};
  EXPECT_EQ(t.nearest_level(90.0), 0u);
  EXPECT_EQ(t.nearest_level(290.0), 1u);
  EXPECT_EQ(t.nearest_level(1000.0), 2u);
}

TEST(dvfs, rejects_bad_tables) {
  EXPECT_THROW((dvfs_table{std::vector<double>{}}), std::invalid_argument);
  EXPECT_THROW((dvfs_table{std::vector<double>{200.0, 100.0}}), std::invalid_argument);
  EXPECT_THROW((void)xavier_gpu_dvfs().frequency_mhz(99), std::out_of_range);
}

TEST(compute_unit, classify_op_classes) {
  using K = mapcq::nn::layer_kind;
  EXPECT_EQ(classify(K::conv2d), op_class::spatial);
  EXPECT_EQ(classify(K::pool), op_class::spatial);
  EXPECT_EQ(classify(K::norm), op_class::spatial);
  EXPECT_EQ(classify(K::attention), op_class::matmul);
  EXPECT_EQ(classify(K::mlp), op_class::matmul);
  EXPECT_EQ(classify(K::classifier), op_class::matmul);
}

TEST(compute_unit, occupancy_properties) {
  const platform p = agx_xavier();
  const compute_unit& gpu = p.unit(p.first_of(cu_kind::gpu));
  EXPECT_DOUBLE_EQ(gpu.occupancy(0.0), 0.0);
  EXPECT_NEAR(gpu.occupancy(1.0), 1.0, 1e-12);
  EXPECT_GT(gpu.occupancy(0.5), gpu.occupancy_floor);
  EXPECT_LT(gpu.occupancy(0.5), 1.0);
  EXPECT_LT(gpu.occupancy(0.25), gpu.occupancy(0.75));
}

TEST(compute_unit, sustained_gflops_scale_with_theta) {
  const platform p = agx_xavier();
  const compute_unit& gpu = p.unit(0);
  const double hi = gpu.sustained_gflops(mapcq::nn::layer_kind::conv2d, 1.0, gpu.dvfs.max_level());
  const double lo = gpu.sustained_gflops(mapcq::nn::layer_kind::conv2d, 1.0, 0);
  EXPECT_NEAR(lo / hi, gpu.dvfs.scale(0), 1e-12);
}

TEST(compute_unit, power_linear_in_theta) {
  const platform p = agx_xavier();
  const compute_unit& gpu = p.unit(0);
  using K = mapcq::nn::layer_kind;
  const std::size_t max = gpu.dvfs.max_level();
  const double p_hi = gpu.power_w(K::conv2d, max);
  const double p_lo = gpu.power_w(K::conv2d, 0);
  // P = alpha + beta*act*theta (paper eq. 10).
  EXPECT_NEAR(p_hi - p_lo,
              gpu.dynamic_power_w * gpu.activity_spatial * (1.0 - gpu.dvfs.scale(0)), 1e-9);
  EXPECT_GT(p_lo, gpu.static_power_w);
}

TEST(compute_unit, validate_catches_bad_params) {
  platform p = agx_xavier();
  compute_unit u = p.unit(0);
  u.efficiency_matmul = 0.0;
  EXPECT_THROW(u.validate(), std::logic_error);
  u = p.unit(0);
  u.activity_spatial = 1.5;
  EXPECT_THROW(u.validate(), std::logic_error);
  u = p.unit(0);
  u.peak_gflops = -1.0;
  EXPECT_THROW(u.validate(), std::logic_error);
}

TEST(platform, xavier_composition) {
  const platform p = agx_xavier();
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.unit(0).kind, cu_kind::gpu);
  EXPECT_EQ(p.unit(1).kind, cu_kind::dla);
  EXPECT_EQ(p.unit(2).kind, cu_kind::dla);
  EXPECT_GT(p.shared_memory_bytes, 0.0);
}

TEST(platform, with_cpu_variant) {
  const platform p = agx_xavier_with_cpu();
  EXPECT_EQ(p.size(), 4u);
  EXPECT_NO_THROW((void)p.first_of(cu_kind::cpu));
}

TEST(platform, first_of_throws_when_absent) {
  const platform p = agx_xavier();
  EXPECT_THROW((void)p.first_of(cu_kind::cpu), std::out_of_range);
}

TEST(platform, dvfs_configurations_product) {
  const platform p = agx_xavier();
  const double expect = static_cast<double>(p.unit(0).dvfs.levels()) *
                        static_cast<double>(p.unit(1).dvfs.levels()) *
                        static_cast<double>(p.unit(2).dvfs.levels());
  EXPECT_DOUBLE_EQ(p.dvfs_configurations(), expect);
}

TEST(platform, unit_out_of_range_throws) {
  const platform p = agx_xavier();
  EXPECT_THROW((void)p.unit(17), std::out_of_range);
}

TEST(interconnect, transfer_has_base_latency) {
  const interconnect x;
  EXPECT_DOUBLE_EQ(x.transfer_ms(0.0), x.base_latency_ms);
  EXPECT_GT(x.transfer_ms(1e6), x.transfer_ms(1e3));
}

TEST(interconnect, bandwidth_term_correct) {
  interconnect x;
  x.bandwidth_gbps = 10.0;
  x.base_latency_ms = 0.0;
  // 10 GB/s == 1e7 bytes per ms.
  EXPECT_NEAR(x.transfer_ms(1e7), 1.0, 1e-9);
}

TEST(interconnect, negative_bytes_treated_as_zero) {
  const interconnect x;
  EXPECT_DOUBLE_EQ(x.transfer_ms(-5.0), x.base_latency_ms);
  EXPECT_DOUBLE_EQ(x.transfer_mj(-5.0), 0.0);
}

TEST(interconnect, transfer_energy_scales) {
  const interconnect x;
  EXPECT_NEAR(x.transfer_mj(1e6), x.energy_pj_per_byte * 1e6 * 1e-9, 1e-12);
}

}  // namespace

// Concurrent executor tests: the eq. 8 recurrence, stalls (paper Fig. 3),
// transfer accounting, sequential-reference comparison, cost injection.

#include <gtest/gtest.h>

#include "perf/characterizer.h"
#include "perf/concurrent_executor.h"
#include "perf/trace.h"
#include "soc/platform.h"
#include "util/strings.h"

namespace {

using namespace mapcq;
using perf::stage_plan;
using perf::stage_step;

/// A platform with round numbers so expected times can be hand-computed:
/// every CU runs 1 GFLOP/ms at max level, no launch overhead, and the
/// interconnect costs exactly 1 ms per transfer.
soc::platform toy_platform(std::size_t units = 3) {
  soc::platform p;
  p.name = "toy";
  for (std::size_t i = 0; i < units; ++i) {
    soc::compute_unit u;
    u.name = util::format("U%zu", i);
    u.kind = soc::cu_kind::gpu;
    u.peak_gflops = 1000.0;  // * efficiency 1.0 -> 1e9 flop/ms... see below
    u.mem_bandwidth_gbps = 1e9;  // memory never binds
    u.launch_overhead_ms = 0.0;
    u.efficiency_spatial = 1.0;
    u.efficiency_matmul = 1.0;
    u.occupancy_floor = 1.0;  // no occupancy derate
    u.occupancy_exponent = 1.0;
    u.static_power_w = 1.0;
    u.dynamic_power_w = 1.0;
    u.gated_idle_w = 0.0;
    u.activity_spatial = 1.0;
    u.activity_matmul = 1.0;
    u.dvfs = soc::dvfs_table{{1000.0}};
    p.units.push_back(u);
  }
  p.xfer.base_latency_ms = 1.0;
  p.xfer.bandwidth_gbps = 1e9;
  p.xfer.energy_pj_per_byte = 0.0;
  p.shared_memory_bytes = 1e9;
  return p;
}

/// flops value that takes `ms` milliseconds on the toy platform:
/// sustained = 1000 GFLOPS = 1e9 flop/ms.
double flops_for_ms(double ms) { return ms * 1e9; }

stage_step step_ms(double ms) {
  stage_step s;
  s.cost.kind = nn::layer_kind::conv2d;
  s.cost.flops = flops_for_ms(ms);
  s.cost.width_frac = 1.0;
  return s;
}

perf::model_options no_contention() {
  perf::model_options o;
  o.enable_contention = false;
  return o;
}

TEST(executor, independent_stages_run_concurrently) {
  const auto plat = toy_platform(2);
  stage_plan plan;
  plan.steps = {{step_ms(2.0), step_ms(3.0)}, {step_ms(4.0), step_ms(1.0)}};
  plan.cu_of_stage = {0, 1};
  plan.dvfs_level = {0, 0};
  const auto res = perf::simulate(plat, plan, no_contention());
  EXPECT_NEAR(res.stages[0].latency_ms, 5.0, 1e-9);
  EXPECT_NEAR(res.stages[1].latency_ms, 5.0, 1e-9);
  // eq. 13: overall latency is the max over stages.
  EXPECT_NEAR(res.latency_ms(), 5.0, 1e-9);
}

TEST(executor, dependency_stalls_consumer) {
  // Fig. 3 scenario: stage 2's second sublayer needs stage 1's first output
  // (2 ms) plus a 1 ms transfer, but its own first sublayer ends at 1 ms
  // -> it stalls 2 ms.
  const auto plat = toy_platform(2);
  stage_plan plan;
  plan.steps = {{step_ms(2.0), step_ms(3.0)}, {step_ms(1.0), step_ms(1.0)}};
  plan.steps[1][1].incoming.push_back({0, 0.0});  // transfer = base 1 ms
  plan.cu_of_stage = {0, 1};
  plan.dvfs_level = {0, 0};
  const auto res = perf::simulate(plat, plan, no_contention());
  // T^0_1 = 2; T^1_2 = tau(1) + max(T^0_2 = 1, T^0_1 + u = 3) = 4.
  EXPECT_NEAR(res.stages[1].latency_ms, 4.0, 1e-9);
  EXPECT_NEAR(res.timeline[1][1].wait_ms, 2.0, 1e-9);
  EXPECT_NEAR(res.stages[1].wait_ms, 2.0, 1e-9);
}

TEST(executor, no_dependency_no_stall) {
  const auto plat = toy_platform(2);
  stage_plan plan;
  plan.steps = {{step_ms(5.0), step_ms(1.0)}, {step_ms(1.0), step_ms(1.0)}};
  plan.cu_of_stage = {0, 1};
  plan.dvfs_level = {0, 0};
  const auto res = perf::simulate(plat, plan, no_contention());
  EXPECT_NEAR(res.stages[1].wait_ms, 0.0, 1e-9);
  EXPECT_NEAR(res.stages[1].latency_ms, 2.0, 1e-9);
}

TEST(executor, transfer_traffic_and_energy_counted) {
  auto plat = toy_platform(2);
  plat.xfer.energy_pj_per_byte = 10.0;
  stage_plan plan;
  plan.steps = {{step_ms(1.0), step_ms(1.0)}, {step_ms(1.0), step_ms(1.0)}};
  plan.steps[1][1].incoming.push_back({0, 1e6});
  plan.cu_of_stage = {0, 1};
  plan.dvfs_level = {0, 0};
  const auto res = perf::simulate(plat, plan, no_contention());
  EXPECT_DOUBLE_EQ(res.fmap_traffic_bytes, 1e6);
  EXPECT_NEAR(res.transfer_energy_mj, 1e6 * 10.0 * 1e-9, 1e-15);
}

TEST(executor, energy_is_busy_time_times_power) {
  const auto plat = toy_platform(2);
  stage_plan plan;
  plan.steps = {{step_ms(2.0), step_ms(3.0)}, {step_ms(1.0), step_ms(1.0)}};
  plan.cu_of_stage = {0, 1};
  plan.dvfs_level = {0, 0};
  const auto res = perf::simulate(plat, plan, no_contention());
  // Toy platform: P = 1 + 1 = 2 W at theta 1 -> E = 2 * busy.
  EXPECT_NEAR(res.stages[0].energy_mj, 2.0 * 5.0, 1e-9);
  EXPECT_NEAR(res.stages[1].energy_mj, 2.0 * 2.0, 1e-9);
  // eq. 14: energies add across instantiated stages.
  EXPECT_NEAR(res.energy_mj(1), 10.0, 1e-9);
  EXPECT_NEAR(res.energy_mj(2), 14.0, 1e-9);
}

TEST(executor, empty_steps_cost_nothing_but_propagate) {
  const auto plat = toy_platform(2);
  stage_plan plan;
  plan.steps = {{step_ms(2.0), step_ms(2.0), step_ms(2.0)},
                {stage_step{}, stage_step{}, step_ms(1.0)}};
  // Stage 2 only works at the last group, fed by stage 1's group-2 output.
  plan.steps[1][2].incoming.push_back({0, 0.0});
  plan.cu_of_stage = {0, 1};
  plan.dvfs_level = {0, 0};
  const auto res = perf::simulate(plat, plan, no_contention());
  // T_1 chain: 2,4,6. Stage 2: idle, idle, starts at max(0, 4+1)=5, ends 6.
  EXPECT_NEAR(res.stages[1].latency_ms, 6.0, 1e-9);
  EXPECT_NEAR(res.stages[1].busy_ms, 1.0, 1e-9);
}

TEST(executor, chained_transfers_accumulate) {
  const auto plat = toy_platform(3);
  stage_plan plan;
  plan.steps.assign(3, std::vector<stage_step>(2));
  for (auto& st : plan.steps)
    for (auto& s : st) s = step_ms(1.0);
  plan.steps[1][1].incoming.push_back({0, 0.0});
  plan.steps[2][1].incoming.push_back({0, 0.0});
  plan.steps[2][1].incoming.push_back({1, 0.0});
  plan.cu_of_stage = {0, 1, 2};
  plan.dvfs_level = {0, 0, 0};
  const auto res = perf::simulate(plat, plan, no_contention());
  // Stage 3 layer 2: max(own 1, s1: 1+1, s2: 1+1) = 2 -> +1 = 3.
  EXPECT_NEAR(res.stages[2].latency_ms, 3.0, 1e-9);
}

TEST(executor, costed_injection_matches_analytic) {
  const auto plat = toy_platform(2);
  stage_plan plan;
  plan.steps = {{step_ms(2.0), step_ms(3.0)}, {step_ms(4.0), step_ms(1.0)}};
  plan.steps[1][1].incoming.push_back({0, 0.0});
  plan.cu_of_stage = {0, 1};
  plan.dvfs_level = {0, 0};
  const auto analytic = perf::simulate(plat, plan, no_contention());

  perf::step_costs costs;
  costs.tau_ms = {{2.0, 3.0}, {4.0, 1.0}};
  costs.energy_mj = {{4.0, 6.0}, {8.0, 2.0}};
  const auto injected = perf::simulate_costed(plat, plan, costs);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(injected.stages[i].latency_ms, analytic.stages[i].latency_ms, 1e-9);
    EXPECT_NEAR(injected.stages[i].energy_mj, analytic.stages[i].energy_mj, 1e-9);
  }
}

TEST(executor, costed_rejects_shape_mismatch) {
  const auto plat = toy_platform(2);
  stage_plan plan;
  plan.steps = {{step_ms(1.0)}, {step_ms(1.0)}};
  plan.cu_of_stage = {0, 1};
  plan.dvfs_level = {0, 0};
  perf::step_costs costs;
  costs.tau_ms = {{1.0}};
  costs.energy_mj = {{1.0}};
  EXPECT_THROW((void)perf::simulate_costed(plat, plan, costs), std::logic_error);
}

TEST(executor, sequential_never_faster_than_concurrent) {
  const auto plat = toy_platform(3);
  stage_plan plan;
  plan.steps.assign(3, std::vector<stage_step>(4));
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 4; ++j) plan.steps[i][j] = step_ms(1.0 + double(i + j) * 0.5);
  plan.steps[1][2].incoming.push_back({0, 0.0});
  plan.steps[2][3].incoming.push_back({1, 0.0});
  plan.cu_of_stage = {0, 1, 2};
  plan.dvfs_level = {0, 0, 0};
  const auto conc = perf::simulate(plat, plan, no_contention());
  const auto seq = perf::simulate_sequential(plat, plan, no_contention());
  EXPECT_GE(seq.stages.back().latency_ms + 1e-9, conc.latency_ms());
}

TEST(executor, latency_upto_is_monotone) {
  const auto plat = toy_platform(3);
  stage_plan plan;
  plan.steps.assign(3, std::vector<stage_step>(2));
  for (auto& st : plan.steps)
    for (auto& s : st) s = step_ms(2.0);
  plan.cu_of_stage = {0, 1, 2};
  plan.dvfs_level = {0, 0, 0};
  const auto res = perf::simulate(plat, plan, no_contention());
  const auto prof = perf::characterize(res);
  for (std::size_t m = 1; m < prof.stages(); ++m) {
    EXPECT_GE(prof.latency_upto[m], prof.latency_upto[m - 1] - 1e-12);
    EXPECT_GE(prof.energy_upto[m], prof.energy_upto[m - 1] - 1e-12);
  }
}

TEST(executor, rejects_invalid_plan) {
  const auto plat = toy_platform(2);
  stage_plan plan;  // empty
  EXPECT_THROW((void)perf::simulate(plat, plan), std::logic_error);
}

TEST(trace, gantt_renders_rows) {
  const auto plat = toy_platform(2);
  stage_plan plan;
  plan.steps = {{step_ms(2.0), step_ms(3.0)}, {step_ms(1.0), step_ms(1.0)}};
  plan.steps[1][1].incoming.push_back({0, 0.0});
  plan.cu_of_stage = {0, 1};
  plan.dvfs_level = {0, 0};
  const auto res = perf::simulate(plat, plan, no_contention());
  const std::string g = perf::render_gantt(res, plan, plat, 40);
  EXPECT_NE(g.find("S1"), std::string::npos);
  EXPECT_NE(g.find("S2"), std::string::npos);
  EXPECT_NE(g.find('#'), std::string::npos);
}

}  // namespace

// Differential harness pinning the SoA batch evaluator and cross-request
// batch fusion against the scalar/serial reference paths:
//   * perf::batch_characterizer == simulate()+characterize[_system]() cell
//     by cell at exact double equality, across seeded random plans x
//     platforms x batch shapes (including 0-plan, 1-plan, 0-group,
//     all-empty and max-stage degenerate cases);
//   * core::evaluator::evaluate_batch == evaluate() field-exact, across
//     seeded networks x platforms x batch shapes;
//   * the engine's chunked SoA dispatch is bit-identical to the scalar
//     ablation (engine_options::soa_batch = false) with identical cache
//     counters;
//   * fused scheduler dispatch produces the same reports as serial dispatch
//     (summaries compared with the scheduler note stripped) with exact
//     fused / fused_batches counter accounting and full reconciliation;
//   * util::wrr_queue::pop_from and the 7-or-9-token scheduler-note
//     round-trip that carries the new counters.
// Runs under ASan/UBSan and the TSan job (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/evaluation_engine.h"
#include "core/evaluator.h"
#include "core/serialization.h"
#include "nn/models.h"
#include "perf/batch_characterizer.h"
#include "perf/characterizer.h"
#include "perf/concurrent_executor.h"
#include "serving/mapping_service.h"
#include "serving/request_scheduler.h"
#include "soc/platform.h"
#include "util/rng.h"
#include "util/wrr_queue.h"

namespace {

using namespace mapcq;

// ---------------------------------------------------------------------------
// Random stage plans: the property-case generator of the plan-level sweep.
// Shapes cover the degenerate corners on purpose: empty cells, single
// groups, transfer-free plans and plans using every unit of the platform.
// ---------------------------------------------------------------------------

perf::stage_plan random_plan(util::rng& gen, const soc::platform& plat, std::size_t stages,
                            std::size_t groups) {
  perf::stage_plan plan;
  std::vector<std::size_t> units(plat.size());
  for (std::size_t u = 0; u < units.size(); ++u) units[u] = u;
  gen.shuffle(units);
  plan.cu_of_stage.assign(units.begin(), units.begin() + static_cast<std::ptrdiff_t>(stages));
  plan.dvfs_level.resize(plat.size());
  for (std::size_t u = 0; u < plat.size(); ++u)
    plan.dvfs_level[u] = static_cast<std::size_t>(
        gen.uniform_int(0, static_cast<std::int64_t>(plat.unit(u).dvfs.levels()) - 1));
  plan.steps.assign(stages, std::vector<perf::stage_step>(groups));
  for (std::size_t i = 0; i < stages; ++i) {
    for (std::size_t j = 0; j < groups; ++j) {
      perf::stage_step& step = plan.steps[i][j];
      if (gen.uniform() < 0.25) continue;  // empty cell: stage owns nothing here
      step.cost.kind = gen.uniform() < 0.5 ? nn::layer_kind::conv2d : nn::layer_kind::linear;
      step.cost.flops = gen.uniform(1e4, 5e8);
      step.cost.weight_bytes = gen.uniform(0.0, 4e6);
      step.cost.in_bytes = gen.uniform(0.0, 2e6);
      step.cost.out_bytes = gen.uniform(0.0, 2e6);
      step.cost.width_frac = gen.uniform(0.05, 1.0);
      // Cross-stage transfers into this cell (the u_{k->i} terms of eq. 8).
      if (j > 0) {
        for (std::size_t k = 0; k < i; ++k)
          if (gen.uniform() < 0.4)
            step.incoming.push_back({k, gen.uniform(1e3, 1e6)});
      }
    }
  }
  return plan;
}

void expect_exec_identical(const perf::execution_result& a, const perf::execution_result& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    EXPECT_EQ(a.stages[i].latency_ms, b.stages[i].latency_ms);
    EXPECT_EQ(a.stages[i].energy_mj, b.stages[i].energy_mj);
    EXPECT_EQ(a.stages[i].busy_ms, b.stages[i].busy_ms);
    EXPECT_EQ(a.stages[i].wait_ms, b.stages[i].wait_ms);
  }
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    ASSERT_EQ(a.timeline[i].size(), b.timeline[i].size());
    for (std::size_t j = 0; j < a.timeline[i].size(); ++j) {
      EXPECT_EQ(a.timeline[i][j].start_ms, b.timeline[i][j].start_ms);
      EXPECT_EQ(a.timeline[i][j].end_ms, b.timeline[i][j].end_ms);
      EXPECT_EQ(a.timeline[i][j].wait_ms, b.timeline[i][j].wait_ms);
      EXPECT_EQ(a.timeline[i][j].busy_ms, b.timeline[i][j].busy_ms);
    }
  }
  EXPECT_EQ(a.fmap_traffic_bytes, b.fmap_traffic_bytes);
  EXPECT_EQ(a.transfer_energy_mj, b.transfer_energy_mj);
  EXPECT_EQ(a.latency_ms(), b.latency_ms());
  EXPECT_EQ(a.energy_mj(), b.energy_mj());
}

void expect_profile_identical(const perf::dynamic_profile& a, const perf::dynamic_profile& b) {
  ASSERT_EQ(a.latency_upto.size(), b.latency_upto.size());
  for (std::size_t m = 0; m < a.latency_upto.size(); ++m) {
    EXPECT_EQ(a.latency_upto[m], b.latency_upto[m]);
    EXPECT_EQ(a.energy_upto[m], b.energy_upto[m]);
  }
}

/// Runs one batch of plans through the scalar reference and the SoA path
/// under the same options and demands exact equality everywhere.
void expect_batch_matches_scalar(const soc::platform& plat,
                                 const std::vector<perf::stage_plan>& plans,
                                 const perf::model_options& opt, bool count_idle_power) {
  std::vector<const perf::stage_plan*> ptrs;
  ptrs.reserve(plans.size());
  for (const perf::stage_plan& p : plans) ptrs.push_back(&p);

  perf::batch_characterizer characterizer{plat, opt};
  std::vector<perf::batch_profile> got(plans.size());
  characterizer.run(ptrs, count_idle_power, got);

  for (std::size_t p = 0; p < plans.size(); ++p) {
    const perf::execution_result exec = perf::simulate(plat, plans[p], opt);
    const perf::dynamic_profile profile = count_idle_power
                                              ? perf::characterize_system(exec, plans[p], plat)
                                              : perf::characterize(exec);
    expect_exec_identical(got[p].exec, exec);
    expect_profile_identical(got[p].profile, profile);
  }
}

TEST(batch_characterizer, property_sweep_is_bit_identical_to_scalar) {
  // >= 200 property cases: 2 platforms x 2 contention modes x 2 idle-power
  // modes x 2 seeds x batches of 13 random plans = 208 plan comparisons,
  // each checked cell-exactly.
  const soc::platform plats[] = {soc::agx_xavier(), soc::agx_xavier_with_cpu()};
  std::size_t cases = 0;
  for (const soc::platform& plat : plats) {
    for (const bool contention : {false, true}) {
      for (const bool idle : {false, true}) {
        for (const std::uint64_t seed : {11u, 97u}) {
          util::rng gen{seed};
          std::vector<perf::stage_plan> plans;
          for (std::size_t n = 0; n < 13; ++n) {
            const auto stages = static_cast<std::size_t>(
                gen.uniform_int(1, static_cast<std::int64_t>(plat.size())));
            const auto groups = static_cast<std::size_t>(gen.uniform_int(1, 5));
            plans.push_back(random_plan(gen, plat, stages, groups));
          }
          perf::model_options opt;
          opt.enable_contention = contention;
          expect_batch_matches_scalar(plat, plans, opt, idle);
          cases += plans.size();
        }
      }
    }
  }
  EXPECT_GE(cases, 200u);
}

TEST(batch_characterizer, degenerate_shapes_match_scalar) {
  const soc::platform plat = soc::agx_xavier();
  util::rng gen{5};

  // Empty batch: a no-op, not an error.
  perf::batch_characterizer characterizer{plat, {}};
  characterizer.run({}, true, {});

  // Single-plan batch.
  expect_batch_matches_scalar(plat, {random_plan(gen, plat, 1, 1)}, {}, true);

  // Zero-group plan: invalid on the scalar path (stage_plan::validate),
  // and the batch path must reject it identically rather than read past
  // an empty grid.
  perf::stage_plan hollow;
  hollow.steps.assign(2, std::vector<perf::stage_step>{});
  hollow.cu_of_stage = {0, 1};
  hollow.dvfs_level.assign(plat.size(), 0);
  EXPECT_THROW((void)perf::simulate(plat, hollow, {}), std::logic_error);
  perf::batch_characterizer hollow_runner{plat, {}};
  std::vector<perf::batch_profile> hollow_out(1);
  const perf::stage_plan* hollow_ptr[] = {&hollow};
  EXPECT_THROW(hollow_runner.run(hollow_ptr, false, hollow_out), std::logic_error);

  // All-empty cells (every stage idle) and max-stage plans, mixed into one
  // batch with a normal plan so arena offsets cross plan boundaries.
  perf::stage_plan idle_plan = random_plan(gen, plat, plat.size(), 3);
  for (auto& row : idle_plan.steps)
    for (perf::stage_step& s : row) s = perf::stage_step{};
  std::vector<perf::stage_plan> mixed;
  mixed.push_back(idle_plan);
  mixed.push_back(random_plan(gen, plat, plat.size(), 4));  // every unit mapped
  mixed.push_back(random_plan(gen, plat, 1, 1));
  expect_batch_matches_scalar(plat, mixed, {}, true);
}

TEST(batch_characterizer, rejects_invalid_plans_and_sizes) {
  const soc::platform plat = soc::agx_xavier();
  util::rng gen{7};
  const perf::stage_plan good = random_plan(gen, plat, 2, 2);
  perf::stage_plan bad = good;
  bad.cu_of_stage[1] = bad.cu_of_stage[0];  // duplicate CU: simulate() rejects it

  perf::batch_characterizer characterizer{plat, {}};
  std::vector<perf::batch_profile> out(2);
  const perf::stage_plan* both[] = {&good, &bad};
  EXPECT_THROW(characterizer.run(both, false, out), std::logic_error);

  std::vector<perf::batch_profile> short_out(1);
  const perf::stage_plan* two[] = {&good, &good};
  EXPECT_THROW(characterizer.run(two, false, short_out), std::logic_error);
  EXPECT_THROW(characterizer.run({}, false, short_out), std::logic_error);
}

TEST(batch_characterizer, arena_rejects_over_take) {
  perf::batch_arena arena;
  arena.reset(4, 1);
  const std::span<double> a = arena.take(4);
  ASSERT_EQ(a.size(), 4u);
  for (const double v : a) EXPECT_EQ(v, 0.0);
  EXPECT_THROW((void)arena.take(1), std::logic_error);
  const std::span<unsigned char> f = arena.take_flags(1);
  EXPECT_EQ(f[0], 0);
  EXPECT_THROW((void)arena.take_flags(1), std::logic_error);
}

TEST(batch_characterizer, reports_simd_toggle) {
  // Value depends on the build configuration; both must be callable.
  (void)perf::simd_enabled();
}

// ---------------------------------------------------------------------------
// Evaluator level: evaluate_batch == evaluate, field-exact.
// ---------------------------------------------------------------------------

void expect_eval_identical(const core::evaluation& a, const core::evaluation& b) {
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
/// must round-trip byte-identically between the two paths, which is the
/// contract session snapshots depend on.
std::string eval_text(const core::evaluation& e) {
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
        core::evaluator_options opt;
        opt.count_idle_power = idle;
        const core::evaluator eval{net, plat, opt};
        const core::search_space space{net, plat};
        util::rng gen{net.name.size() + plat.size() + (idle ? 1u : 0u)};
        // 37 spans three internal SoA chunks (chunk-boundary coverage).
        for (const std::size_t batch :
             {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{37}}) {
          std::vector<core::configuration> configs;
          for (std::size_t i = 0; i < batch; ++i)
            configs.push_back(space.decode(space.random(gen)));
          std::vector<const core::configuration*> ptrs;
          for (const core::configuration& c : configs) ptrs.push_back(&c);
          const std::vector<core::evaluation> got = eval.evaluate_batch(ptrs);
          ASSERT_EQ(got.size(), batch);
          for (std::size_t i = 0; i < batch; ++i) {
            const core::evaluation want = eval.evaluate(configs[i]);
            expect_eval_identical(got[i], want);
            EXPECT_EQ(eval_text(got[i]), eval_text(want));
          }
        }
      }
    }
  }
}

TEST(batch_evaluator, evaluate_batch_matches_scalar_under_fixed_contention) {
  // The SoA path must stay bit-identical under any *fixed* contention
  // state, not just the idle one: co-resident traffic (derated platform),
  // a reserved CU (rejections + idle-power exclusion) and DVFS caps all
  // flow through both paths identically.
  const nn::network net = nn::build_simple_cnn();
  const soc::platform plat = soc::agx_xavier();
  core::evaluator_options opt;
  soc::resident_load neighbor;
  neighbor.name = "neighbor";
  neighbor.interconnect_gbps = 3.0;
  neighbor.dram_gbps = 4.0;
  neighbor.power_w = 1.0;
  neighbor.reserved_units = {1};
  opt.contention.residents.push_back(neighbor);
  opt.contention.dvfs_cap.assign(plat.size(), 1);
  const core::evaluator eval{net, plat, opt};
  const core::search_space space{net, plat};
  util::rng gen{41};
  std::vector<core::configuration> configs;
  for (std::size_t i = 0; i < 37; ++i) configs.push_back(space.decode(space.random(gen)));
  std::vector<const core::configuration*> ptrs;
  for (const core::configuration& c : configs) ptrs.push_back(&c);
  const std::vector<core::evaluation> got = eval.evaluate_batch(ptrs);
  ASSERT_EQ(got.size(), configs.size());
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const core::evaluation want = eval.evaluate(configs[i]);
    expect_eval_identical(got[i], want);
    EXPECT_EQ(eval_text(got[i]), eval_text(want));
    if (!got[i].feasible) ++rejected;
  }
  EXPECT_GT(rejected, 0u);  // the reserved CU actually bites in this sweep
}

TEST(batch_characterizer, contention_context_threads_through_the_soa_path) {
  // characterize_system with a non-idle context excludes reserved CUs from
  // the gated-idle power accounting; the batch path must agree cell by cell.
  const soc::platform plat = soc::agx_xavier();
  soc::contention_context ctx;
  soc::resident_load owner;
  owner.name = "owner";
  owner.reserved_units = {2};
  ctx.residents.push_back(owner);
  util::rng gen{59};
  std::vector<perf::stage_plan> plans;
  for (std::size_t n = 0; n < 8; ++n)
    plans.push_back(random_plan(gen, plat, 1 + n % plat.size(), 1 + n % 4));
  std::vector<const perf::stage_plan*> ptrs;
  for (const perf::stage_plan& p : plans) ptrs.push_back(&p);
  perf::batch_characterizer characterizer{plat, {}, &ctx};
  std::vector<perf::batch_profile> got(plans.size());
  characterizer.run(ptrs, true, got);
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const perf::execution_result exec = perf::simulate(plat, plans[p], {});
    const perf::dynamic_profile want = perf::characterize_system(exec, plans[p], plat, &ctx);
    expect_exec_identical(got[p].exec, exec);
    expect_profile_identical(got[p].profile, want);
  }
}

// ---------------------------------------------------------------------------
// Engine level: chunked SoA dispatch vs the scalar ablation.
// ---------------------------------------------------------------------------

struct engine_pair : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();
  core::search_space space{net, plat};
  core::evaluator eval{net, plat, {}};

  std::vector<core::configuration> random_configs(std::size_t n, std::uint64_t seed) const {
    util::rng gen{seed};
    std::vector<core::configuration> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(space.decode(space.random(gen)));
    return out;
  }
};

TEST_F(engine_pair, soa_dispatch_is_bit_identical_to_scalar_with_same_counters) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    core::engine_options soa;
    soa.threads = threads;
    soa.soa_batch = true;
    core::engine_options scalar = soa;
    scalar.soa_batch = false;

    core::evaluation_engine a{eval, soa};
    core::evaluation_engine b{eval, scalar};

    std::vector<core::configuration> batch = random_configs(17, 23 + threads);
    batch.push_back(batch.front());  // in-batch duplicate exercises dedup
    batch.push_back(batch[3]);
    const std::vector<core::evaluation> ra = a.evaluate_batch(batch);
    const std::vector<core::evaluation> rb = b.evaluate_batch(batch);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) expect_eval_identical(ra[i], rb[i]);

    // Hit/miss/dedup accounting must not depend on the dispatch shape.
    EXPECT_EQ(a.stats().hits, b.stats().hits);
    EXPECT_EQ(a.stats().misses, b.stats().misses);
    EXPECT_EQ(a.stats().dedup, b.stats().dedup);

    // A warm rerun through the other entry points stays identical too.
    const std::vector<core::evaluation> warm = a.evaluate_batch(batch);
    for (std::size_t i = 0; i < warm.size(); ++i) expect_eval_identical(warm[i], ra[i]);
    expect_eval_identical(a.evaluate(batch.front()), rb.front());
  }
}

TEST_F(engine_pair, async_soa_batches_match_sync) {
  core::engine_options opt;
  opt.threads = 2;
  core::evaluation_engine sync_engine{eval, opt};
  core::evaluation_engine async_engine{eval, opt};
  const std::vector<core::configuration> batch = random_configs(9, 91);
  const std::vector<core::evaluation> want = sync_engine.evaluate_batch(batch);
  std::vector<core::evaluation> got = async_engine.evaluate_batch_async(batch).get();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) expect_eval_identical(got[i], want[i]);
}

// ---------------------------------------------------------------------------
// wrr_queue::pop_from — the fusion drain primitive.
// ---------------------------------------------------------------------------

TEST(wrr_pop_from, drains_one_lane_without_touching_others) {
  util::wrr_queue<int> q;
  EXPECT_FALSE(q.pop_from("missing").has_value());
  q.push("a", 1);
  q.push("a", 2);
  q.push("b", 10);
  EXPECT_EQ(q.pop_from("a").value(), 1);
  EXPECT_EQ(q.pop_from("a").value(), 2);
  EXPECT_FALSE(q.pop_from("a").has_value());
  EXPECT_EQ(q.size(), 1u);
  // The ring stays consistent after the direct drain: normal rotation and
  // re-push of the drained key keep working.
  EXPECT_EQ(q.pop().value(), 10);
  q.push("a", 3);
  q.push("c", 30);
  EXPECT_EQ(q.pop_from("c").value(), 30);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_TRUE(q.empty());
}

// ---------------------------------------------------------------------------
// Scheduler level: fused dispatch with a stub executor.
// ---------------------------------------------------------------------------

serving::mapping_report stub_report(const serving::mapping_request& req) {
  serving::mapping_report rep;
  rep.network = req.network;
  return rep;
}

TEST(scheduler_fusion, fuses_same_lane_requests_with_exact_counters) {
  serving::scheduler_options opt;
  opt.max_fused = 0;  // unbounded
  opt.coalesce = false;
  std::atomic<std::size_t> fused_calls{0};
  std::atomic<std::size_t> largest_group{0};
  serving::request_scheduler sched{
      opt, 1, [](const serving::mapping_request& r) { return stub_report(r); },
      [&](std::span<const serving::mapping_request> rs) {
        fused_calls.fetch_add(1);
        std::size_t seen = largest_group.load();
        while (rs.size() > seen && !largest_group.compare_exchange_weak(seen, rs.size())) {
        }
        std::vector<serving::fused_outcome> out(rs.size());
        for (std::size_t i = 0; i < rs.size(); ++i) out[i].report = stub_report(rs[i]);
        return out;
      }};

  sched.pause();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (int i = 0; i < 5; ++i) {
    serving::mapping_request req;
    req.network = "net-" + std::to_string(i);  // distinct: no coalescing either way
    futures.push_back(sched.submit("lane", std::to_string(i), std::move(req)));
  }
  sched.resume();
  sched.wait_idle();

  for (auto& f : futures) (void)f.get();
  const serving::scheduler_stats stats = sched.stats();
  // One worker, one lane, dispatch resumed atomically: one fused batch of 5.
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.completed, 5u);
  EXPECT_EQ(stats.fused, 4u);
  EXPECT_EQ(stats.fused_batches, 1u);
  EXPECT_EQ(fused_calls.load(), 1u);
  EXPECT_EQ(largest_group.load(), 5u);
  EXPECT_EQ(stats.admitted, stats.completed + stats.failed + stats.expired + stats.queued +
                                stats.inflight);
}

TEST(scheduler_fusion, max_fused_bounds_the_group) {
  serving::scheduler_options opt;
  opt.max_fused = 2;
  opt.coalesce = false;
  serving::request_scheduler sched{
      opt, 1, [](const serving::mapping_request& r) { return stub_report(r); },
      [](std::span<const serving::mapping_request> rs) {
        std::vector<serving::fused_outcome> out(rs.size());
        for (std::size_t i = 0; i < rs.size(); ++i) out[i].report = stub_report(rs[i]);
        return out;
      }};
  sched.pause();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(sched.submit("lane", std::to_string(i), serving::mapping_request{}));
  sched.resume();
  sched.wait_idle();
  for (auto& f : futures) (void)f.get();
  const serving::scheduler_stats stats = sched.stats();
  // Groups of at most 2: two batches, each with one follower.
  EXPECT_EQ(stats.fused, 2u);
  EXPECT_EQ(stats.fused_batches, 2u);
  EXPECT_EQ(stats.completed, 4u);
}

TEST(scheduler_fusion, default_options_never_fuse) {
  serving::scheduler_options opt;  // max_fused = 1
  opt.coalesce = false;
  serving::request_scheduler sched{
      opt, 1, [](const serving::mapping_request& r) { return stub_report(r); }};
  sched.pause();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(sched.submit("lane", std::to_string(i), serving::mapping_request{}));
  sched.resume();
  sched.wait_idle();
  for (auto& f : futures) (void)f.get();
  EXPECT_EQ(sched.stats().fused, 0u);
  EXPECT_EQ(sched.stats().fused_batches, 0u);
  EXPECT_EQ(sched.stats().completed, 3u);
}

TEST(scheduler_fusion, fused_group_without_executor_falls_back_per_member) {
  serving::scheduler_options opt;
  opt.max_fused = 0;
  opt.coalesce = false;
  std::atomic<std::size_t> runs{0};
  serving::request_scheduler sched{opt, 1, [&](const serving::mapping_request& r) {
                                     runs.fetch_add(1);
                                     return stub_report(r);
                                   }};
  sched.pause();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(sched.submit("lane", std::to_string(i), serving::mapping_request{}));
  sched.resume();
  sched.wait_idle();
  for (auto& f : futures) (void)f.get();
  // Still one dispatch group (counted as fused), executed per member.
  EXPECT_EQ(runs.load(), 3u);
  EXPECT_EQ(sched.stats().fused, 2u);
  EXPECT_EQ(sched.stats().fused_batches, 1u);
}

TEST(scheduler_fusion, wrong_sized_fused_return_fails_the_whole_group) {
  serving::scheduler_options opt;
  opt.max_fused = 0;
  opt.coalesce = false;
  serving::request_scheduler sched{
      opt, 1, [](const serving::mapping_request& r) { return stub_report(r); },
      [](std::span<const serving::mapping_request>) {
        return std::vector<serving::fused_outcome>{};  // wrong size on purpose
      }};
  sched.pause();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(sched.submit("lane", std::to_string(i), serving::mapping_request{}));
  sched.resume();
  sched.wait_idle();
  for (auto& f : futures) EXPECT_THROW((void)f.get(), std::runtime_error);
  EXPECT_EQ(sched.stats().failed, 3u);
  EXPECT_EQ(sched.stats().fused, 2u);
}

TEST(scheduler_fusion, per_member_errors_are_isolated) {
  serving::scheduler_options opt;
  opt.max_fused = 0;
  opt.coalesce = false;
  serving::request_scheduler sched{
      opt, 1, [](const serving::mapping_request& r) { return stub_report(r); },
      [](std::span<const serving::mapping_request> rs) {
        std::vector<serving::fused_outcome> out(rs.size());
        for (std::size_t i = 0; i < rs.size(); ++i) {
          if (rs[i].network == "doomed")
            out[i].error = std::make_exception_ptr(std::runtime_error("doomed"));
          else
            out[i].report = stub_report(rs[i]);
        }
        return out;
      }};
  sched.pause();
  serving::mapping_request good;
  good.network = "good";
  serving::mapping_request bad;
  bad.network = "doomed";
  auto f_good = sched.submit("lane", "g", good);
  auto f_bad = sched.submit("lane", "b", bad);
  sched.resume();
  sched.wait_idle();
  EXPECT_EQ(f_good.get().network, "good");
  EXPECT_THROW((void)f_bad.get(), std::runtime_error);
  const serving::scheduler_stats stats = sched.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.fused, 1u);
  EXPECT_EQ(stats.fused_batches, 1u);
}

TEST(scheduler_fusion, respects_per_session_inflight_cap) {
  serving::scheduler_options opt;
  opt.max_fused = 0;
  opt.max_inflight_per_session = 2;
  opt.coalesce = false;
  std::atomic<std::size_t> largest_group{0};
  serving::request_scheduler sched{
      opt, 1, [](const serving::mapping_request& r) { return stub_report(r); },
      [&](std::span<const serving::mapping_request> rs) {
        std::size_t seen = largest_group.load();
        while (rs.size() > seen && !largest_group.compare_exchange_weak(seen, rs.size())) {
        }
        std::vector<serving::fused_outcome> out(rs.size());
        for (std::size_t i = 0; i < rs.size(); ++i) out[i].report = stub_report(rs[i]);
        return out;
      }};
  sched.pause();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (int i = 0; i < 5; ++i)
    futures.push_back(sched.submit("lane", std::to_string(i), serving::mapping_request{}));
  sched.resume();
  sched.wait_idle();
  for (auto& f : futures) (void)f.get();
  // The whole group goes in flight at once, so it can never exceed the cap.
  EXPECT_LE(largest_group.load(), 2u);
  EXPECT_EQ(sched.stats().completed, 5u);
}

// ---------------------------------------------------------------------------
// Service level: fused dispatch == serial dispatch, report for report.
// ---------------------------------------------------------------------------

serving::mapping_request service_request(const std::string& network, std::uint64_t ga_seed) {
  serving::mapping_request req;
  req.network = network;
  req.use_surrogate = false;
  req.ga.generations = 3;
  req.ga.population = 8;
  req.ga.threads = 1;
  req.ga.seed = ga_seed;
  return req;
}

/// Summary text with the scheduler note stripped: everything about the
/// report except the stamped counters (which legitimately differ between
/// fused and serial dispatch) and the engine cache deltas (not part of the
/// summary at all).
std::string summary_without_scheduler(const serving::mapping_report& rep) {
  core::report_summary s = rep.summary();
  s.scheduler.reset();
  return core::to_text(s);
}

struct fused_service : ::testing::Test {
  nn::network net = nn::build_simple_cnn();
  soc::platform plat = soc::agx_xavier();

  serving::service_options options(std::size_t max_fused) const {
    serving::service_options opt;
    opt.engine.threads = 1;
    opt.workers = 1;
    opt.scheduler.max_fused = max_fused;
    return opt;
  }
};

TEST_F(fused_service, fused_reports_match_serial_with_exact_counters) {
  constexpr std::size_t kRequests = 3;

  serving::mapping_service serial{options(1)};
  serial.register_network(net);
  serial.register_platform(plat);
  std::vector<std::string> want;
  for (std::size_t i = 0; i < kRequests; ++i)
    want.push_back(summary_without_scheduler(serial.map(service_request(net.name, 100 + i))));

  serving::mapping_service fused{options(0)};
  fused.register_network(net);
  fused.register_platform(plat);
  fused.pause_scheduler();
  std::vector<std::shared_future<serving::mapping_report>> futures;
  for (std::size_t i = 0; i < kRequests; ++i)
    futures.push_back(fused.submit(service_request(net.name, 100 + i)));
  fused.resume_scheduler();

  for (std::size_t i = 0; i < kRequests; ++i)
    EXPECT_EQ(summary_without_scheduler(futures[i].get()), want[i]);

  const serving::scheduler_stats stats = fused.scheduler();
  EXPECT_EQ(stats.admitted, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.fused, kRequests - 1);
  EXPECT_EQ(stats.fused_batches, 1u);
  EXPECT_LE(stats.fused_batches, stats.fused);
  EXPECT_EQ(stats.admitted, stats.completed + stats.failed + stats.expired + stats.queued +
                                stats.inflight);

  // The stamped note propagates into the summary line of every report.
  const core::report_summary s = futures.back().get().summary();
  ASSERT_TRUE(s.scheduler.has_value());
  EXPECT_EQ(s.scheduler->fused, kRequests - 1);
  EXPECT_EQ(s.scheduler->fused_batches, 1u);
}

TEST_F(fused_service, doomed_member_fails_alone) {
  serving::mapping_service service{options(0)};
  service.register_network(net);
  service.register_platform(plat);
  service.pause_scheduler();
  auto ok = service.submit(service_request(net.name, 1));
  // Same session lane (the lane ignores GA knobs), but map() rejects the
  // prefilter + surrogate combination — the fused sibling must not care.
  serving::mapping_request bad = service_request(net.name, 2);
  bad.use_surrogate = true;
  bad.ga.portfolio.prefilter.enabled = true;
  auto doomed = service.submit(bad);
  service.resume_scheduler();

  EXPECT_FALSE(ok.get().front.empty());
  EXPECT_THROW((void)doomed.get(), std::invalid_argument);
  const serving::scheduler_stats stats = service.scheduler();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.fused, 1u);
}

// ---------------------------------------------------------------------------
// Serialization: the 9-field scheduler row and its 7-field legacy form.
// ---------------------------------------------------------------------------

/// A minimal-but-valid summary: report_summary_from_text rejects empty
/// entry lists (pick indices would be out of range), so every round-trip
/// carries one real configuration.
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

TEST(scheduler_note_roundtrip, fused_counters_survive_to_text_and_back) {
  core::report_summary s = one_entry_summary();
  core::scheduler_note note;
  note.submitted = 9;
  note.admitted = 6;
  note.coalesced = 2;
  note.rejected = 1;
  note.expired = 0;
  note.completed = 5;
  note.failed = 1;
  note.fused = 3;
  note.fused_batches = 2;
  s.scheduler = note;
  const core::report_summary back = core::report_summary_from_text(core::to_text(s));
  ASSERT_TRUE(back.scheduler.has_value());
  EXPECT_EQ(back.scheduler->fused, 3u);
  EXPECT_EQ(back.scheduler->fused_batches, 2u);
  EXPECT_EQ(back.scheduler->submitted, 9u);
  EXPECT_EQ(back.scheduler->failed, 1u);
}

TEST(scheduler_note_roundtrip, legacy_seven_field_row_parses_with_zero_fused) {
  core::report_summary s = one_entry_summary();
  s.scheduler = core::scheduler_note{9, 6, 2, 1, 0, 5, 1, 3, 2};
  std::string text = core::to_text(s);
  // Rewrite the scheduler row to the pre-fusion 7-value arity.
  const std::string nine = "scheduler 9 6 2 1 0 5 1 3 2";
  const std::string seven = "scheduler 9 6 2 1 0 5 1";
  const std::size_t pos = text.find(nine);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, nine.size(), seven);
  const core::report_summary back = core::report_summary_from_text(text);
  ASSERT_TRUE(back.scheduler.has_value());
  EXPECT_EQ(back.scheduler->completed, 5u);
  EXPECT_EQ(back.scheduler->fused, 0u);
  EXPECT_EQ(back.scheduler->fused_batches, 0u);
}

}  // namespace

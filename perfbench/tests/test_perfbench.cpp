// Tests of the benchmark's own pieces: workload generation, the tail rule,
// open-loop timing, the hypervolume and the metric catalog.

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/pareto.h"
#include "harness.h"
#include "metrics.h"
#include "serving/mapping_types.h"
#include "util/rng.h"
#include "workloads.h"

namespace {

using namespace perfbench;

const network_names kNets{"visformer_cifar", "vgg19_cifar"};

std::vector<std::string> fingerprints(const workload& w, std::uint64_t seed) {
  std::vector<std::string> out;
  if (w.open_loop) {
    for (const planned_request& p : open_loop_schedule(w, seed, 5.0, kNets))
      out.push_back(std::to_string(p.due_s) + "|" + std::to_string(static_cast<int>(p.kind)) +
                    "|" + mapcq::serving::request_fingerprint(p.req));
  } else {
    for (std::size_t i = 0; i < 8; ++i)
      out.push_back(mapcq::serving::request_fingerprint(closed_loop_request(w, seed, i, kNets)));
  }
  return out;
}

TEST(Workloads, SameSeedSameInputsOtherSeedOtherInputs) {
  for (const workload& w : all_workloads()) {
    SCOPED_TRACE(w.name);
    const auto a = fingerprints(w, 11);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, fingerprints(w, 11));
    EXPECT_NE(a, fingerprints(w, 12));
  }
}

TEST(Workloads, ClosedLoopsAlternateNetworksWithFreshSeeds) {
  const workload& analytic = find_workload("analytic_search");
  std::set<std::uint64_t> ga_seeds;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto req = closed_loop_request(analytic, 3, i, kNets);
    EXPECT_FALSE(req.use_surrogate);
    EXPECT_EQ(req.network, i % 2 == 0 ? kNets.visformer : kNets.vgg19);
    ga_seeds.insert(req.ga.seed);
  }
  EXPECT_EQ(ga_seeds.size(), 6u);

  const workload& cold = find_workload("surrogate_cold");
  std::set<std::uint64_t> ranking;
  for (std::size_t i = 0; i < 6; ++i) {
    const auto req = closed_loop_request(cold, 3, i, kNets);
    EXPECT_TRUE(req.use_surrogate);
    ranking.insert(req.ranking_seed);
  }
  EXPECT_EQ(ranking.size(), 6u);  // every request keys a new session
}

TEST(Workloads, ServingMixShape) {
  const workload& w = find_workload("serving_mix");
  const auto plan = open_loop_schedule(w, 5, 30.0, kNets);
  ASSERT_GT(plan.size(), 100u);
  std::size_t fresh = 0, repeats = 0, dups = 0;
  std::set<std::string> lanes;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const planned_request& p = plan[i];
    if (i > 0) {
      EXPECT_GE(p.due_s, plan[i - 1].due_s);
    }
    EXPECT_LT(p.due_s, 30.0);
    EXPECT_LE(p.first, i);
    EXPECT_EQ(plan[p.first].kind, arrival_kind::fresh);
    EXPECT_EQ(mapcq::serving::request_fingerprint(p.req),
              mapcq::serving::request_fingerprint(plan[p.first].req));
    switch (p.kind) {
      case arrival_kind::fresh:
        ++fresh;
        EXPECT_EQ(p.first, i);
        lanes.insert(p.req.network + std::to_string(p.req.eval.limits.fmap_reuse_cap));
        break;
      case arrival_kind::duplicate:
        ++dups;
        EXPECT_EQ(p.first, i - 1);  // sent right behind its original
        EXPECT_EQ(p.due_s, plan[i - 1].due_s);
        break;
      case arrival_kind::repeat:
        ++repeats;
        EXPECT_LT(p.first, i);
        break;
    }
  }
  EXPECT_EQ(lanes.size(), 6u);
  EXPECT_GT(repeats, fresh + dups);  // mostly warm repeats
  EXPECT_GT(dups, 0u);
  EXPECT_LT(fresh, plan.size() / 3);  // new seeds are a minority
}

TEST(Workloads, ThreadBudgetStaysWithinNproc) {
  for (const workload& w : all_workloads())
    for (const std::size_t nproc : {1u, 2u, 4u, 16u}) {
      const auto opt = w.service(nproc);
      const std::size_t engine_threads = opt.engine.threads > 1 ? opt.engine.threads : 0;
      const std::size_t workers = w.open_loop ? opt.workers : 0;
      EXPECT_LE(engine_threads + workers + 1, std::max<std::size_t>(nproc, 2)) << w.name;
    }
}

TEST(Stats, TailLeavesAtLeastTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  tail_stat t = tail(v);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);

  v.resize(20);
  t = tail(v);
  EXPECT_EQ(t.value, 10.0);  // exactly ten values lie beyond the tenth
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.beyond, 10u);

  v.resize(19);  // the rule would land below the median: the maximum instead
  t = tail(v);
  EXPECT_EQ(t.value, 19.0);
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.beyond, 0u);

  for (int i = 20; i <= 1000; ++i) v.push_back(i);
  t = tail(v);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);

  t = tail({3.0, 1.0, 2.0});  // too few samples: the maximum at p100
  EXPECT_EQ(t.value, 3.0);
  EXPECT_EQ(t.percentile, 100.0);
  EXPECT_EQ(t.beyond, 0u);
}

TEST(Stats, MedianAndPercentile) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 99.0), 198.0);
  EXPECT_EQ(percentile(v, 100.0), 200.0);
}

TEST(OpenLoop, SojournCountsFromDueAndLatenessIsReported) {
  using namespace std::chrono_literals;
  const std::vector<double> due = {0.0, 0.010, 0.200};
  std::size_t samples = 0;
  std::vector<std::size_t> done_order;
  const auto times = run_open_loop(
      due,
      [&](std::size_t i) {
        // The first submit stalls the load thread for 60 ms; the second arrival,
        // due at 10 ms, is sent about 50 ms late.
        if (i == 0) std::this_thread::sleep_for(60ms);
        std::promise<int> p;
        p.set_value(static_cast<int>(i));
        return p.get_future().share();
      },
      [&](std::size_t i, const std::shared_future<int>& f) {
        EXPECT_EQ(f.get(), static_cast<int>(i));
        done_order.push_back(i);
      },
      [&] { ++samples; });
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(done_order.size(), 3u);
  EXPECT_GT(samples, 0u);
  EXPECT_GE(times[1].late(), 0.045);
  EXPECT_GE(times[1].sojourn(), times[1].late());
  EXPECT_GE(times[1].sojourn(), 0.045);
  EXPECT_EQ(times[1].due, 0.010);
  EXPECT_LT(times[2].late(), 0.045);  // the load thread caught up
  for (const arrival_times& t : times) {
    EXPECT_GE(t.submit, t.due);
    EXPECT_GE(t.done, t.submit);
  }
}

TEST(Quality, UnitHypervolumeMatchesTheLibrary) {
  mapcq::util::rng rng{42};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::array<double, 3>> pts;
    std::vector<std::vector<double>> lib;
    const int n = 1 + trial * 3;
    for (int i = 0; i < n; ++i) {
      std::array<double, 3> p = {rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.2), rng.uniform()};
      pts.push_back(p);
      lib.push_back({p[0], p[1], p[2]});
    }
    EXPECT_NEAR(unit_hypervolume3(pts), mapcq::core::hypervolume(lib, {1.0, 1.0, 1.0}), 1e-12)
        << "trial " << trial;
  }
  EXPECT_EQ(unit_hypervolume3({}), 0.0);
  EXPECT_DOUBLE_EQ(unit_hypervolume3({{0.0, 0.0, 0.0}}), 1.0);
  EXPECT_DOUBLE_EQ(unit_hypervolume3({{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5}}), 0.125);
}

TEST(Metrics, NamesAreValidAndUnique) {
  std::set<std::string_view> seen;
  const auto check = [&](const metric_def& m) {
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    EXPECT_FALSE(m.unit.empty());
    EXPECT_EQ(find_metric(m.name), &m);
  };
  for (const metric_def& m : kEndToEndMetrics) check(m);
  for (const metric_def& m : kPerLayerMetrics) check(m);
  EXPECT_EQ(find_metric("no_such_metric"), nullptr);
  EXPECT_EQ(kEndToEndMetrics[0].name, "setup_s");
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name("core.engine.hit_us"));
}

TEST(Tracer, ChildrenAndTotals) {
  tracer tr;
  const long root = tr.open("serving.map", 7);
  const int v = tr.time("core.evolve", 7, root, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return 3;
  });
  tr.close(root);
  EXPECT_EQ(v, 3);
  EXPECT_EQ(tr.count("serving.map"), 1u);
  EXPECT_EQ(tr.spans()[1].parent, root);
  EXPECT_EQ(tr.spans()[1].request, 7u);
  EXPECT_GE(tr.total_seconds("core.evolve"), 0.005);
  EXPECT_DOUBLE_EQ(tr.children_seconds("serving.map"), tr.total_seconds("core.evolve"));
  EXPECT_GE(tr.total_seconds("serving.map"), tr.children_seconds("serving.map"));
}

}  // namespace

// The repository benchmark. Drives serving::mapping_service with one named
// workload for a fixed time, checks every report it gets back, and prints
// every metric by name and unit; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 1 it then
// re-executes the run's first requests as the calls map() is built from and
// reports per-layer metrics instead (see perfbench/README.md).
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-file <path>] [--commit <sha>] [--setup-only 1]
// --setup-only 1 only times the set-up and prints {"setup_s": <median>}.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/baselines.h"
#include "harness.h"
#include "metrics.h"
#include "nn/models.h"
#include "perf/batch_characterizer.h"
#include "perf/calibration.h"
#include "traced.h"
#include "workloads.h"

namespace {

using namespace mapcq;
using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

constexpr int kSetupRepeats = 9;

struct cli {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_file;
  std::string commit = "unknown";
};

cli parse_cli(int argc, char** argv) {
  cli c;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") c.workload = value;
    else if (flag == "--seed") c.seed = std::stoull(value);
    else if (flag == "--seconds") c.seconds = std::stod(value);
    else if (flag == "--trace") c.trace = value == "1";
    else if (flag == "--setup-only") c.setup_only = value == "1";
    else if (flag == "--trace-file") c.trace_file = value;
    else if (flag == "--commit") c.commit = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (c.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(c.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return c;
}

std::size_t available_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// What set-up builds: the calibrated testbed and a service ready to serve.
struct environment {
  nn::network visformer = nn::build_visformer();
  nn::network vgg19 = nn::build_vgg19();
  soc::platform xavier;
  std::unique_ptr<serving::mapping_service> service;

  explicit environment(const serving::service_options& opt) {
    xavier = perf::calibrated_xavier(visformer, vgg19).plat;
    service = std::make_unique<serving::mapping_service>(opt);
    service->register_network(visformer);
    service->register_network(vgg19);
    service->register_platform(xavier);
  }
  [[nodiscard]] network_names names() const { return {visformer.name, vgg19.name}; }
};

/// The paper's single-CU deployments of one network: unit 0 is the GPU,
/// unit 1 a DLA.
struct baselines {
  core::baseline_result gpu;
  core::baseline_result dla;
};

/// One request as the benchmark saw it.
struct outcome {
  double latency_s = 0.0;  ///< closed loop: map() wall time; open loop: sojourn from due
  std::string failure;     ///< empty = served and passed every check
  std::uint64_t digest = 0;       ///< summary text without the scheduler note
  std::uint64_t full_digest = 0;  ///< summary text with it
  core::engine_stats cache;  ///< search + validation deltas; misses = evaluator runs
  bool executed = true;      ///< false when coalesced onto another submit's execution
  bool timed = true;         ///< false for warm-up requests (checked, not timed)

  [[nodiscard]] bool ok() const { return failure.empty(); }
  void fail(const std::string& why) {
    if (failure.empty()) failure = why;
  }
};

struct quality {
  double hypervolume = 0.0;
  double energy_gain = 0.0;
  double latency_gain = 0.0;
};

struct run_result {
  std::vector<planned_request> plan;  ///< every request, in send order
  std::vector<outcome> outcomes;      ///< index-aligned with `plan`
  std::vector<quality> qualities;     ///< the workload's first fresh requests
  double window_s = 0.0;              ///< time the throughput is counted over
  std::size_t check_failures = 0;     ///< failed checks not tied to one request
  // open loop only
  std::vector<double> submit_us;
  std::vector<double> late_s;
  std::vector<double> queued;
  serving::scheduler_stats scheduler;
  std::size_t cache_bytes = 0;
};

void check_report(const serving::mapping_report& rep, outcome& o) {
  o.digest = report_digest(rep);
  o.full_digest = report_digest(rep, true);
  o.cache = rep.search_cache;
  o.cache.hits += rep.validation_cache.hits;
  o.cache.misses += rep.validation_cache.misses;
  o.cache.dedup += rep.validation_cache.dedup;
  o.cache.inflight += rep.validation_cache.inflight;
  if (rep.front.empty()) o.fail("empty front");
  for (const core::evaluation& e : rep.front)
    if (!e.feasible) o.fail("infeasible front entry: " + e.reject_reason);
}

quality quality_of(const serving::mapping_report& rep, const baselines& b) {
  // Unit cube: latency and energy over the worse single-CU deployment,
  // accuracy as the top-1 error; the reference point is (1, 1, 1).
  const double lat_ref = std::max(b.gpu.latency_ms, b.dla.latency_ms);
  const double en_ref = std::max(b.gpu.energy_mj, b.dla.energy_mj);
  std::vector<std::array<double, 3>> points;
  for (const core::evaluation& e : rep.front)
    points.push_back({e.avg_latency_ms / lat_ref, e.avg_energy_mj / en_ref,
                      (100.0 - e.accuracy_pct) / 100.0});
  quality q;
  q.hypervolume = unit_hypervolume3(std::move(points));
  q.energy_gain = b.gpu.energy_mj / rep.ours_energy().avg_energy_mj;
  // The paper's headline pairs: the energy-oriented pick against GPU-only
  // energy, the latency-oriented pick against DLA-only latency.
  q.latency_gain = b.dla.latency_ms / rep.ours_latency().avg_latency_ms;
  return q;
}

bool reconciles(const serving::scheduler_stats& s) {
  return s.submitted == s.admitted + s.coalesced + s.rejected &&
         s.admitted == s.completed + s.failed + s.expired + s.queued + s.inflight;
}

run_result run_closed_loop(const workload& w, const cli& c, environment& env,
                           const std::map<std::string, baselines>& base) {
  run_result r;
  const steady::time_point start = steady::now();
  for (std::size_t i = 0;
       seconds_between(start, steady::now()) < c.seconds || i < w.quality_requests; ++i) {
    planned_request p;
    p.req = closed_loop_request(w, c.seed, i, env.names());
    p.first = i;
    outcome o;
    o.timed = i >= w.warmup_requests;
    const steady::time_point t0 = steady::now();
    try {
      const serving::mapping_report rep = env.service->map(p.req);
      o.latency_s = seconds_between(t0, steady::now());
      check_report(rep, o);
      if (i < w.quality_requests && o.ok())
        r.qualities.push_back(quality_of(rep, base.at(rep.network)));
    } catch (const std::exception& e) {
      o.latency_s = seconds_between(t0, steady::now());
      o.fail(e.what());
    }
    if (o.timed) r.window_s += o.latency_s;
    r.plan.push_back(std::move(p));
    r.outcomes.push_back(std::move(o));
  }
  r.cache_bytes = env.service->engine_totals().cache_bytes;
  return r;
}

run_result run_open_loop(const workload& w, const cli& c, environment& env,
                         const std::map<std::string, baselines>& base) {
  run_result r;
  r.plan = open_loop_schedule(w, c.seed, c.seconds, env.names());
  const std::size_t n = r.plan.size();
  r.outcomes.resize(n);
  std::vector<double> due(n);
  std::vector<std::size_t> quality_slot(n, SIZE_MAX);
  std::size_t fresh_seen = 0;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = r.plan[i].due_s;
    if (r.plan[i].kind == arrival_kind::fresh && fresh_seen < w.quality_requests)
      quality_slot[i] = fresh_seen++;
  }
  r.qualities.resize(fresh_seen);
  std::vector<char> coalesced(n, 0), done(n, 0), original_done(n, 0);
  serving::mapping_service& svc = *env.service;

  const std::vector<arrival_times> times = perfbench::run_open_loop(
      due,
      [&](std::size_t i) {
        const std::size_t before = svc.scheduler().coalesced;
        original_done[i] = done[r.plan[i].first];
        const steady::time_point t0 = steady::now();
        std::shared_future<serving::mapping_report> f = svc.submit(r.plan[i].req);
        r.submit_us.push_back(1e6 * seconds_between(t0, steady::now()));
        coalesced[i] = svc.scheduler().coalesced > before;
        return f;
      },
      [&](std::size_t i, const std::shared_future<serving::mapping_report>& f) {
        done[i] = 1;
        try {
          const serving::mapping_report& rep = f.get();
          check_report(rep, r.outcomes[i]);
          if (quality_slot[i] != SIZE_MAX && r.outcomes[i].ok())
            r.qualities[quality_slot[i]] = quality_of(rep, base.at(rep.network));
        } catch (const std::exception& e) {
          r.outcomes[i].fail(e.what());
        }
      },
      [&] {
        const serving::scheduler_stats s = svc.scheduler();
        r.queued.push_back(static_cast<double>(s.queued));
        if (!reconciles(s)) ++r.check_failures;
      });

  for (std::size_t i = 0; i < n; ++i) {
    outcome& o = r.outcomes[i];
    const planned_request& p = r.plan[i];
    const outcome& original = r.outcomes[p.first];
    o.latency_s = times[i].sojourn();
    o.executed = !coalesced[i];
    r.late_s.push_back(times[i].late());
    r.window_s = std::max(r.window_s, times[i].done);
    if (!o.ok() || p.kind == arrival_kind::fresh) continue;
    if (o.digest != original.digest) o.fail("report differs from its original's");
    if (p.kind == arrival_kind::duplicate && coalesced[i] && o.full_digest != original.full_digest)
      o.fail("coalesced duplicate got a different report");
    if (p.kind == arrival_kind::repeat && !coalesced[i] && original_done[i] && o.cache.misses != 0)
      o.fail("warm repeat ran the evaluator");
  }
  // Every future is resolved; wait for the workers to retire their items,
  // then the counters must reconcile with nothing queued or in flight.
  serving::scheduler_stats s = svc.scheduler();
  for (int k = 0; k < 5000 && (s.queued != 0 || s.inflight != 0); ++k) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    s = svc.scheduler();
  }
  if (!reconciles(s) || s.queued != 0 || s.inflight != 0 || s.submitted != n) ++r.check_failures;
  r.scheduler = s;
  r.cache_bytes = svc.engine_totals().cache_bytes;
  return r;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Metrics in emission order, each with its catalog unit.
class metric_sink {
 public:
  void add(std::string_view name, double value) {
    const metric_def* d = find_metric(name);
    if (d == nullptr)
      throw std::logic_error("metric " + std::string(name) + " is not in the catalog");
    metrics_.push_back(
        {std::string(name), std::isfinite(value) ? value : 0.0, std::string(d->unit)});
  }
  void print_table(std::ostream& os) const {
    char buf[192];
    for (const auto& m : metrics_) {
      std::snprintf(buf, sizeof buf, "  %-36s %20.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      os << buf;
    }
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      os << (i ? ", " : "") << '"' << metrics_[i].name << "\": {\"value\": " << buf
         << ", \"unit\": \"" << metrics_[i].unit << "\"}";
    }
    os << '}';
    return os.str();
  }

 private:
  struct metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<metric> metrics_;
};

double mean_of(const std::vector<quality>& qs, double quality::*field) {
  if (qs.empty()) return 0.0;
  double s = 0.0;
  for (const quality& q : qs) s += q.*field;
  return s / static_cast<double>(qs.size());
}

/// Failed requests plus failed checks not tied to one request, capped at
/// the number attempted.
std::size_t failed_count(const run_result& r) {
  std::size_t failed = r.check_failures;
  for (const outcome& o : r.outcomes) failed += o.ok() ? 0 : 1;
  return std::min(failed, r.outcomes.size());
}

void end_to_end_metrics(const workload& w, const run_result& r, double setup_s, metric_sink& m,
                        std::ostream& log) {
  std::vector<double> lat;
  std::size_t within = 0;
  for (const outcome& o : r.outcomes) {
    if (!o.timed) continue;
    lat.push_back(o.latency_s);
    within += o.ok() && o.latency_s <= w.limit_s ? 1 : 0;
  }
  const double n = static_cast<double>(lat.size());
  const tail_stat t = tail(lat);
  log << "requests: " << r.outcomes.size() << " (" << lat.size() << " timed), tail at p"
      << t.percentile << " with " << t.beyond << " samples beyond it, latency limit "
      << w.limit_s << " s\n";
  m.add("setup_s", setup_s);
  m.add("request_p50_s", median(lat));
  m.add("request_tail_s", t.value);
  m.add("requests_per_s", n / r.window_s);
  m.add("within_limit_share", static_cast<double>(within) / n);
  m.add("success_share",
        1.0 - static_cast<double>(failed_count(r)) / static_cast<double>(r.outcomes.size()));
  m.add("peak_rss_mb", peak_rss_mb());
  m.add("front_hypervolume", mean_of(r.qualities, &quality::hypervolume));
  m.add("energy_gain_vs_gpu", mean_of(r.qualities, &quality::energy_gain));
  m.add("latency_gain_vs_dla", mean_of(r.qualities, &quality::latency_gain));
}

/// Re-executes the run's first requests with tracing and emits the
/// per-layer metrics. Marks a request failed when its traced report digests
/// differently from the untraced one.
void traced_pass(const workload& w, const cli& c, const serving::service_options& opt,
                 run_result& r, metric_sink& m, const std::string& meta, std::ostream& log) {
  std::vector<std::size_t> entries;
  for (std::size_t i = 0; i < r.plan.size() && entries.size() < w.traced_requests; ++i)
    if (r.plan[i].kind != arrival_kind::duplicate) entries.push_back(i);

  // Untraced wall time of the same requests, served one at a time: the
  // closed-loop run already did exactly that; the open-loop run queued them.
  double untraced_s = 0.0;
  if (w.open_loop) {
    environment ref{opt};
    for (const std::size_t i : entries) {
      const steady::time_point t0 = steady::now();
      (void)ref.service->map(r.plan[i].req);
      untraced_s += seconds_between(t0, steady::now());
    }
  } else {
    for (const std::size_t i : entries) untraced_s += r.outcomes[i].latency_s;
  }

  environment env{opt};
  tracer tr;
  layer_probe probe;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    const std::size_t i = entries[k];
    const traced_outcome t =
        traced_map(*env.service, r.plan[i].req, opt.engine, tr, i, k == 0 ? &probe : nullptr);
    if (t.digest != r.outcomes[i].digest) r.outcomes[i].fail("traced report differs");
    if (!t.warm_rerun_ok) r.outcomes[i].fail("warm re-run was not all hits");
  }
  if (!c.trace_file.empty() && !tr.write_jsonl(c.trace_file, meta))
    log << "warning: could not write " << c.trace_file << '\n';

  const auto per_request = [&](const char* name) {
    const std::size_t k = tr.count(name);
    return k == 0 ? 0.0 : tr.total_seconds(name) / static_cast<double>(k);
  };
  core::engine_stats cache;
  std::size_t executions = 0;
  for (const outcome& o : r.outcomes) {
    if (!o.executed) continue;
    ++executions;
    cache.hits += o.cache.hits;
    cache.misses += o.cache.misses;
    cache.dedup += o.cache.dedup;
    cache.inflight += o.cache.inflight;
  }
  const double per_exec = executions == 0 ? 0.0 : 1.0 / static_cast<double>(executions);
  const double maps = static_cast<double>(std::max<std::size_t>(1, tr.count("serving.map")));
  const serving::scheduler_stats& s = r.scheduler;
  double queued_max = 0.0;
  for (const double q : r.queued) queued_max = std::max(queued_max, q);
  double queued_mean = 0.0;
  for (const double q : r.queued) queued_mean += q / static_cast<double>(r.queued.size());

  m.add("core.evaluator.scalar_us", probe.scalar_us);
  m.add("core.evaluator.batch_us", probe.batch_us);
  m.add("core.engine.miss_us", probe.miss_us);
  m.add("core.engine.misses", static_cast<double>(cache.misses) * per_exec);
  m.add("core.evaluator.configs_per_s", probe.miss_us > 0 ? 1e6 / probe.miss_us : 0.0);
  m.add("core.engine.hit_us", probe.hit_us);
  m.add("core.engine.hits", static_cast<double>(cache.hits) * per_exec);
  m.add("core.engine.dedup", static_cast<double>(cache.dedup) * per_exec);
  m.add("core.engine.inflight", static_cast<double>(cache.inflight) * per_exec);
  m.add("core.engine.hit_rate", cache.hit_rate());
  m.add("core.evolve.warm_s", per_request("core.evolve.warm"));
  m.add("core.pareto_front_s", per_request("core.pareto_front"));
  m.add("surrogate.generate_benchmark_s", per_request("surrogate.generate_benchmark"));
  m.add("surrogate.fit_s", per_request("surrogate.fit"));
  m.add("surrogate.predict_ns_per_row", probe.predict_ns_per_row);
  m.add("core.evaluator.surrogate_us", probe.surrogate_us);
  m.add("surrogate.fidelity_r2", probe.fidelity_r2);
  m.add("serving.map_s", per_request("serving.map"));
  m.add("serving.session_for_s", per_request("serving.session_for"));
  m.add("core.evolve_s", per_request("core.evolve"));
  m.add("core.validate_s", per_request("core.validate"));
  m.add("serving.map.unaccounted_s",
        (tr.total_seconds("serving.map") - tr.children_seconds("serving.map")) / maps);
  m.add("serving.submit_us", median(r.submit_us));
  m.add("serving.scheduler.coalesced_share",
        s.submitted == 0 ? 0.0
                         : static_cast<double>(s.coalesced) / static_cast<double>(s.submitted));
  m.add("serving.scheduler.queued_mean", queued_mean);
  m.add("serving.scheduler.queued_max", queued_max);
  m.add("serving.scheduler.rejected", static_cast<double>(s.rejected));
  m.add("serving.scheduler.expired", static_cast<double>(s.expired));
  m.add("serving.scheduler.failed", static_cast<double>(s.failed));
  m.add("core.engine.cache_bytes", static_cast<double>(r.cache_bytes));
  m.add("driver.late_p99_s", percentile(r.late_s, 99.0));
  m.add("trace.overhead_share",
        untraced_s > 0 ? tr.total_seconds("serving.map") / untraced_s - 1.0 : 0.0);
}

std::string metadata(const workload& w, const cli& c, const serving::service_options& opt,
                     std::size_t nproc, std::size_t generations, std::size_t population) {
  std::ostringstream os;
  os << "{\"meta\": {\"workload\": \"" << w.name << "\", \"seed\": " << c.seed
     << ", \"seconds\": " << c.seconds << ", \"trace\": " << (c.trace ? 1 : 0)
     << ", \"nproc\": " << nproc << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"simd\": " << (perf::simd_enabled() ? "true" : "false") << ", \"commit\": \""
     << c.commit << "\", \"ga_scale\": \"" << generations << "x" << population
     << "\", \"engine_threads\": " << opt.engine.threads
     << ", \"dispatch_workers\": " << (w.open_loop ? opt.workers : 0) << "}}";
  return os.str();
}

int run(const cli& c) {
  const workload& w = find_workload(c.workload);
  const std::size_t nproc = available_cpus();
  const serving::service_options opt = w.service(nproc);

  std::vector<double> setup;
  std::unique_ptr<environment> env;
  for (int k = 0; k < kSetupRepeats; ++k) {
    env.reset();
    const steady::time_point t0 = steady::now();
    env = std::make_unique<environment>(opt);
    setup.push_back(seconds_between(t0, steady::now()));
  }
  if (c.setup_only) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "{\"setup_s\": %.17g}", median(setup));
    std::cout << buf << std::endl;
    return 0;
  }
  std::map<std::string, baselines> base;
  for (const nn::network* net : {&env->visformer, &env->vgg19})
    base[net->name] = {core::single_cu_baseline(*net, env->xavier, 0),
                       core::single_cu_baseline(*net, env->xavier, 1)};

  run_result r = w.open_loop ? run_open_loop(w, c, *env, base) : run_closed_loop(w, c, *env, base);
  const core::ga_options& ga = r.plan.front().req.ga;
  const std::string meta = metadata(w, c, opt, nproc, ga.generations, ga.population);
  env.reset();

  metric_sink m;
  if (c.trace) traced_pass(w, c, opt, r, m, meta, std::cout);
  else end_to_end_metrics(w, r, median(setup), m, std::cout);

  const std::size_t failed = failed_count(r);
  for (const outcome& o : r.outcomes)
    if (!o.ok()) {
      std::cout << "check failed: " << o.failure << '\n';
      break;
    }
  std::cout << w.name << " seed " << c.seed << (c.trace ? " (traced)" : "") << ":\n";
  m.print_table(std::cout);
  std::cout << meta << '\n';
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.outcomes.size() << ", \"failed\": " << failed
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_cli(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}

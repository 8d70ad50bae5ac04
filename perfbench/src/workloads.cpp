#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/rng.h"

namespace perfbench {

namespace {

using mapcq::serving::mapping_request;

// serving_mix traffic shape: every fifth arrival is a fresh (session, seed)
// pair, the sessions taken in turn, and half of them are followed at once by
// an exact duplicate; the rest are warm repeats. A fixed fresh share and an
// even spread over sessions keep the cache growth, and so the memory and
// load of a run, the same from seed to seed.
constexpr std::size_t kFreshEvery = 5;
constexpr double kDuplicateShare = 0.5;
constexpr double kReuseCaps[] = {1.0, 0.75, 0.5};  // §VI-B fmap reuse regimes

}  // namespace

const std::vector<workload>& all_workloads() {
  static const std::vector<workload> all = [] {
    std::vector<workload> v(3);
    v[0].name = "analytic_search";
    v[0].limit_s = 2.0;
    v[0].quality_requests = 12;
    v[0].warmup_requests = 4;
    // Small enough that both session caches reach their eviction steady
    // state within the warm-up requests.
    v[0].engine_capacity = std::size_t{1} << 14;
    v[0].traced_requests = 6;
    v[1].name = "surrogate_cold";
    v[1].limit_s = 20.0;
    v[1].generations = 50;  // the two GBT fits dominate each request
    v[1].quality_requests = 4;
    v[1].traced_requests = 2;
    v[1].surrogate = true;
    v[1].max_sessions = 2;
    v[2].name = "serving_mix";
    v[2].open_loop = true;
    v[2].limit_s = 0.25;
    v[2].generations = 40;
    v[2].population = 24;
    v[2].quality_requests = std::numeric_limits<std::size_t>::max();  // every fresh arrival
    v[2].traced_requests = 120;
    v[2].rate_per_s = 20.0;
    return v;
  }();
  return all;
}

namespace {

const std::string& network(const network_names& nets, std::size_t i) {
  return i % 2 == 0 ? nets.visformer : nets.vgg19;
}

}  // namespace

mapcq::serving::service_options workload::service(std::size_t nproc) const {
  mapcq::serving::service_options opt;
  const std::size_t spare = nproc > 1 ? nproc - 1 : 1;
  if (open_loop) {
    // Dispatch workers are the only parallelism; with one request per
    // session in flight, every report's cache deltas are its own traffic.
    // One core stays free for the load thread, which stamps completions:
    // competing with busy workers for a core delays the stamps and adds
    // its own noise to every sojourn.
    opt.engine.threads = 1;
    opt.workers = spare > 1 ? spare - 1 : 1;
    opt.scheduler.max_queued = 256;
    opt.scheduler.policy = mapcq::serving::admission_policy::reject;
    opt.scheduler.max_inflight_per_session = 1;
  } else {
    // map() runs on the load thread, which coordinates the GA while the
    // engine pool evaluates.
    opt.engine.threads = spare;
    opt.workers = 1;
  }
  opt.max_sessions = max_sessions;
  if (engine_capacity != 0) opt.engine.capacity = engine_capacity;
  return opt;
}

const workload& find_workload(std::string_view name) {
  for (const workload& w : all_workloads())
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

mapping_request closed_loop_request(const workload& w, std::uint64_t seed, std::size_t i,
                                    const network_names& nets) {
  if (w.open_loop) throw std::invalid_argument(w.name + " is an open-loop workload");
  mapping_request req;
  req.network = network(nets, i);
  req.ga.generations = w.generations;
  req.ga.population = w.population;
  req.ga.seed = derive_seed(seed, 0x1000 + i);
  if (!w.surrogate) {
    req.use_surrogate = false;
    req.ranking_seed = derive_seed(seed, 0x10 + i % 2);
  } else {
    // A fresh ranking seed keys a fresh session: every request trains.
    req.use_surrogate = true;
    req.ranking_seed = derive_seed(seed, 0x2000 + i);
    req.bench.seed = derive_seed(seed, 0x20);
    req.gbt.seed = derive_seed(seed, 0x21);
  }
  return req;
}

std::vector<planned_request> open_loop_schedule(const workload& w, std::uint64_t seed,
                                                double seconds, const network_names& nets) {
  if (!w.open_loop) throw std::invalid_argument(w.name + " is a closed-loop workload");
  mapcq::util::rng rng{derive_seed(seed, 0x5e55)};
  const std::size_t sessions = 2 * std::size(kReuseCaps);
  std::vector<planned_request> out;
  std::vector<std::size_t> fresh;
  const auto first_session =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(sessions) - 1));
  // A Poisson process given its count: rate * seconds arrivals, uniformly
  // placed. A fixed count keeps the offered work, and so the memory a run
  // ends with, the same from seed to seed.
  const auto n =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(w.rate_per_s * seconds)));
  std::vector<double> due(n);
  for (double& t : due) t = rng.uniform(0.0, seconds);
  std::sort(due.begin(), due.end());
  for (std::size_t k = 0; k < n; ++k) {
    planned_request p;
    p.due_s = due[k];
    if (k % kFreshEvery == 0) {
      const std::size_t s = (first_session + fresh.size()) % sessions;
      p.req.network = network(nets, s);
      p.req.use_surrogate = false;
      p.req.ranking_seed = derive_seed(seed, 0x600 + s);
      p.req.eval.limits.fmap_reuse_cap = kReuseCaps[s / 2];
      p.req.ga.generations = w.generations;
      p.req.ga.population = w.population;
      p.req.ga.seed = rng.next_u64();
      p.first = out.size();
      fresh.push_back(out.size());
      out.push_back(p);
      if (rng.bernoulli(kDuplicateShare)) {
        p.kind = arrival_kind::duplicate;
        out.push_back(p);
      }
    } else {
      const std::size_t of = fresh[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(fresh.size()) - 1))];
      p.req = out[of].req;
      p.kind = arrival_kind::repeat;
      p.first = of;
      out.push_back(p);
    }
  }
  return out;
}

}  // namespace perfbench

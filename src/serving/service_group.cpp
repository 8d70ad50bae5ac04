#include "serving/service_group.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/hashing.h"

namespace mapcq::serving {

service_group::service_group(group_options group, service_options service)
    : group_opt_(group), service_opt_(std::move(service)) {
  if (group_opt_.shards == 0)
    throw std::invalid_argument("service_group: shards must be at least 1");
  if (group_opt_.virtual_nodes == 0)
    throw std::invalid_argument("service_group: virtual_nodes must be at least 1");
  build_shards(group_opt_.shards);
}

void service_group::build_shards(std::size_t count) {
  shards_.clear();
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    shards_.push_back(std::make_unique<mapping_service>(service_opt_));
  // Replaying the full sequence (replacements included) reproduces every
  // registration generation, so session keys — and the snapshot filenames
  // derived from them — match across rebuilds.
  for (const auto& reg : registrations_) {
    for (const auto& shard : shards_) {
      if (const nn::network* net = std::get_if<nn::network>(&reg))
        shard->register_network(*net);
      else
        shard->register_platform(std::get<soc::platform>(reg));
    }
  }
  // The ring hashes "shard-<i>#<v>" labels, not shard object identities:
  // the same (count, virtual_nodes) always yields the same ring in any
  // process, which is what lets a restarted group route a session to the
  // shard holding its snapshot.
  ring_.clear();
  ring_.reserve(count * group_opt_.virtual_nodes);
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t v = 0; v < group_opt_.virtual_nodes; ++v) {
      const std::string label = "shard-" + std::to_string(i) + "#" + std::to_string(v);
      ring_.push_back(ring_point{util::stable_hash64(label), i});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const ring_point& a, const ring_point& b) {
    return a.point < b.point || (a.point == b.point && a.shard < b.shard);
  });
}

std::size_t service_group::route(const std::string& lane) const {
  const std::uint64_t h = util::stable_hash64(lane);
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const ring_point& p, std::uint64_t key) { return p.point < key; });
  return it == ring_.end() ? ring_.front().shard : it->shard;
}

void service_group::register_network(const nn::network& net) {
  const std::unique_lock<std::shared_mutex> lock{mu_};
  for (const auto& shard : shards_) shard->register_network(net);
  registrations_.emplace_back(net);
}

void service_group::register_platform(const soc::platform& plat) {
  const std::unique_lock<std::shared_mutex> lock{mu_};
  for (const auto& shard : shards_) shard->register_platform(plat);
  registrations_.emplace_back(plat);
}

mapping_report service_group::map(const mapping_request& req) {
  // The routed shard is resolved and the call issued under the reader
  // lock: a concurrent reshard() waits for in-flight requests instead of
  // destroying the shard under them.
  const std::shared_lock<std::shared_mutex> lock{mu_};
  return shards_[route(shards_.front()->fairness_lane(req))]->map(req);
}

std::shared_future<mapping_report> service_group::submit(mapping_request req) {
  const std::shared_lock<std::shared_mutex> lock{mu_};
  const std::size_t target = route(shards_.front()->fairness_lane(req));
  return shards_[target]->submit(std::move(req));
}

std::size_t service_group::shard_index_for(const mapping_request& req) {
  const std::shared_lock<std::shared_mutex> lock{mu_};
  return route(shards_.front()->fairness_lane(req));
}

std::size_t service_group::snapshot_all() {
  const std::shared_lock<std::shared_mutex> lock{mu_};
  std::size_t written = 0;
  for (const auto& shard : shards_) written += shard->spill_sessions();
  return written;
}

void service_group::carry_shard_counters(const mapping_service& svc) {
  carried_.sessions_evicted += svc.sessions_evicted();
  carried_.sessions_spilled += svc.sessions_spilled();
  carried_.spill_failures += svc.spill_failures();
  carried_.sessions_restored += svc.sessions_restored();
  carried_.restore_failures += svc.restore_failures();
  // Gauges (queued/inflight, per-lane breakdowns, cache_bytes) die with the
  // shard: carrying them would report load on hardware that no longer
  // exists.
  scheduler_stats sched = svc.scheduler();
  sched.queued = 0;
  sched.inflight = 0;
  sched.inflight_per_session.clear();
  carried_.scheduler += sched;
  core::engine_stats eng = svc.engine_totals();
  eng.cache_bytes = 0;
  carried_.engines += eng;
}

void service_group::reshard(std::size_t new_shards) {
  if (new_shards == 0) throw std::invalid_argument("service_group: shards must be at least 1");
  const std::unique_lock<std::shared_mutex> lock{mu_};
  if (service_opt_.snapshot.directory.empty())
    throw std::logic_error(
        "service_group: reshard requires a snapshot directory "
        "(service.snapshot.directory) — without one every warm session would be discarded");
  // Spill first (the warm state to migrate), then tear down — shard
  // destruction joins each scheduler's workers, so by the time the new
  // topology exists no old-shard request is still running.
  for (const auto& shard : shards_) {
    shard->spill_sessions();
    carry_shard_counters(*shard);
  }
  shards_.clear();
  build_shards(new_shards);
  ++carried_.reshards;
}

group_stats service_group::stats() const {
  const std::shared_lock<std::shared_mutex> lock{mu_};
  group_stats g = carried_;
  g.shards = shards_.size();
  for (const auto& shard : shards_) {
    g.sessions += shard->session_count();
    g.sessions_evicted += shard->sessions_evicted();
    g.sessions_spilled += shard->sessions_spilled();
    g.spill_failures += shard->spill_failures();
    g.sessions_restored += shard->sessions_restored();
    g.restore_failures += shard->restore_failures();
    g.scheduler += shard->scheduler();
    g.engines += shard->engine_totals();
  }
  return g;
}

std::size_t service_group::shard_count() const {
  const std::shared_lock<std::shared_mutex> lock{mu_};
  return shards_.size();
}

mapping_service& service_group::shard(std::size_t index) {
  const std::shared_lock<std::shared_mutex> lock{mu_};
  return *shards_.at(index);
}

}  // namespace mapcq::serving

#pragma once
// The benchmark's three workloads: what each sends to the mapping service,
// derived only from the workload seed, and how the service is configured
// for it. docs: perfbench/README.md explains why each one exists.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serving/mapping_service.h"

namespace perfbench {

/// Names the two networks every workload maps (Visformer and VGG19 on the
/// calibrated Xavier).
struct network_names {
  std::string visformer;
  std::string vgg19;
};

/// How one open-loop arrival relates to the arrivals before it.
enum class arrival_kind {
  fresh,      ///< a (session, GA seed) pair not seen before
  repeat,     ///< the same request as an earlier fresh arrival
  duplicate,  ///< the same request, sent right after its fresh original
};

struct planned_request {
  mapcq::serving::mapping_request req;
  double due_s = 0.0;  ///< send time, seconds after the run starts (open loop)
  arrival_kind kind = arrival_kind::fresh;
  std::size_t first = 0;  ///< index of the fresh arrival this one repeats (itself if fresh)
};

struct workload {
  std::string name;
  bool open_loop = false;
  /// Latency limit of `within_limit_share`.
  double limit_s = 0.0;
  /// GA budget of every request.
  std::size_t generations = 200;
  std::size_t population = 60;
  /// The first this-many fresh requests define the search-quality metrics;
  /// a closed-loop run always completes at least this many.
  std::size_t quality_requests = 0;
  /// Closed loop: leading requests that fill the engine caches and are left
  /// out of the latency metrics (they are still checked).
  std::size_t warmup_requests = 0;
  /// Memo-cache entries per session engine; 0 keeps the service default.
  std::size_t engine_capacity = 0;
  /// Requests the traced pass re-executes (the first non-duplicate ones).
  std::size_t traced_requests = 0;
  /// Closed loop: search on the session surrogate (each request a fresh
  /// session) instead of the analytic model.
  bool surrogate = false;
  /// Live-session cap; 0 = unbounded.
  std::size_t max_sessions = 0;
  /// Open loop: Poisson arrivals per second.
  double rate_per_s = 0.0;

  /// Service configuration on a machine with `nproc` hardware threads:
  /// engine threads plus dispatch workers plus the load thread never
  /// exceed `nproc`.
  [[nodiscard]] mapcq::serving::service_options service(std::size_t nproc) const;
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] const workload& find_workload(std::string_view name);
[[nodiscard]] const std::vector<workload>& all_workloads();

/// Splitmix64 of (seed, salt): the one source of every seed a workload uses.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

/// Request `i` of a closed-loop workload's request sequence.
[[nodiscard]] mapcq::serving::mapping_request closed_loop_request(const workload& w,
                                                                  std::uint64_t seed,
                                                                  std::size_t i,
                                                                  const network_names& nets);

/// Every arrival of an open-loop workload due within `seconds`, ascending
/// in due time.
[[nodiscard]] std::vector<planned_request> open_loop_schedule(const workload& w,
                                                              std::uint64_t seed,
                                                              double seconds,
                                                              const network_names& nets);

}  // namespace perfbench

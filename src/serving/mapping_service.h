#pragma once
// The multi-network serving front-end (ROADMAP: "multi-network serving
// front-end reusing one engine per (net, platform, options) tuple").
//
// A `mapping_service` owns registries of networks and platforms plus a
// registry of immutable `mapping_session`s keyed by (network, platform,
// evaluator options, ranking seed). Requests against the same tuple share
// one session and therefore one memo cache: the second `map()` of a request
// costs a fraction of the first and validation of an analytic search is pure
// cache hits. Requests for different tuples get isolated sessions and never
// contend on each other's cache shards. The surrogate is fitted once per
// (network, platform, bench, gbt) across all sessions: the service's
// `predictor_pool` keeps the fit, also after the session that ran it is
// evicted.
//
// Under many distinct (network, options) tuples the registry is kept
// memory-bounded: `service_options::max_sessions` caps it with LRU
// eviction and `service_options::session_ttl` expires idle sessions.
// See docs/ARCHITECTURE.md for session-key and cache-lifetime semantics.
//
// Asynchronous traffic (`submit()`) flows through a `request_scheduler`:
// a bounded admission queue with weighted round-robin fairness across
// sessions, coalescing of identical requests, and priority/deadline lanes
// (`service_options::scheduler`; operator guide in docs/SERVING.md).

#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serving/mapping_types.h"
#include "serving/predictor_pool.h"
#include "serving/request_scheduler.h"
#include "serving/session.h"

namespace mapcq::serving {

class trace_log;  // serving/request_trace.h

/// Durable-snapshot knobs (see serving/session_snapshot.h and the
/// persistence section of docs/SERVING.md).
struct snapshot_options {
  /// Directory session snapshots are written to / restored from. Empty
  /// (the default) disables persistence entirely — no spill, no restore.
  /// Must already exist; the service never creates it.
  std::string directory;
  /// Evicted sessions (LRU cap, idle TTL) are snapshotted to `directory`
  /// before they are dropped, instead of discarding their warm caches and
  /// trained surrogate. Spilling is best-effort: a failed write counts in
  /// `spill_failures()` and the eviction proceeds.
  bool spill_on_evict = false;
  /// A cold session_for() miss checks `directory` for a snapshot of the
  /// session's key and warm-starts from it. Restoring is best-effort: a
  /// corrupt or mismatched snapshot counts in `restore_failures()` and the
  /// session starts cold.
  bool restore_on_miss = true;
};

/// Service tuning knobs.
struct service_options {
  service_options() {
    // Long-lived serving defaults: bounded LRU cache per engine (hot
    // configurations survive capacity pressure across requests) and
    // auto-sized batch workers.
    engine.capacity = std::size_t{1} << 16;
    engine.threads = 0;  // 0 = one worker per hardware thread
  }

  core::engine_options engine;  ///< per-session engine tuning
  std::size_t workers = 2;      ///< scheduler dispatch threads serving submit() (>= 1)

  /// Online surrogate-refresh knobs, applied to every session (see
  /// surrogate::refresh_options and docs/SERVING.md). Default-off: with
  /// `refresh.enabled == false` the service is bit-identical to the
  /// pre-refresh behavior — no ground-truth tap, no background refits, no
  /// predictor swaps.
  surrogate::refresh_options refresh;

  /// Admission/fairness/coalescing knobs of the request scheduler that
  /// fronts `submit()` (see serving::request_scheduler and docs/SERVING.md).
  /// The defaults are permissive: unbounded queue, coalescing on, equal
  /// session weights — production deployments should bound `max_queued`.
  scheduler_options scheduler;

  /// Maximum live sessions; 0 = unbounded. When a new session would exceed
  /// the cap, the least-recently-used session is evicted (its caches are
  /// dropped; requests in flight keep it alive via their shared_ptr and a
  /// later identical request rebuilds it cold). Its fitted surrogate stays
  /// in the service's predictor pool (bounded by predictor_pool::capacity),
  /// so the rebuilt session adopts it instead of fitting again; a promoted
  /// refresh model is not pooled and is dropped with the session.
  std::size_t max_sessions = 0;
  /// Idle time after which a session expires; zero = never. A session is
  /// "used" when a request resolves it and again when the request
  /// completes (so a search longer than the TTL cannot expire its own
  /// session). Expiry is lazy: checked whenever the registry is touched.
  std::chrono::milliseconds session_ttl{0};

  /// Durable session snapshots: spill-on-evict and warm-start restore
  /// (default-off via an empty directory; see snapshot_options).
  snapshot_options snapshot;
};

/// Thread-safe, long-lived serving front-end.
///
/// Ownership: the service copies registered networks/platforms (callers
/// may drop theirs) and owns every session it creates. `session_for` hands
/// out shared_ptrs, so an evicted or expired session stays valid for
/// whoever still holds it. The predictor pool is shared with every session
/// (shared_ptr), so it lives as long as its last holder.
///
/// Thread-safety: every public member may be called concurrently. Requests
/// that share a session share its engines; thanks to the engine's
/// cross-thread in-flight dedup, racing requests never evaluate the same
/// candidate twice on one session.
class mapping_service {
 public:
  /// Throws std::invalid_argument when `opt.workers` is 0 (the config
  /// reader rejects the same value at `workers`).
  explicit mapping_service(service_options opt = {});

  mapping_service(const mapping_service&) = delete;
  mapping_service& operator=(const mapping_service&) = delete;

  /// Registers (or replaces) a network under `net.name`; the service keeps
  /// its own copy. Replacement takes effect for new requests -- the session
  /// key carries a per-name registration generation, so the next request
  /// builds a fresh session against the new snapshot while sessions already
  /// created keep serving the one they were built with. Throws
  /// std::invalid_argument on an empty name.
  void register_network(const nn::network& net);

  /// Registers (or replaces) a platform under `plat.name`, with the same
  /// generation semantics as register_network; the first registered
  /// platform becomes the default for requests with an empty `platform`
  /// field. Throws std::invalid_argument on an empty name.
  void register_platform(const soc::platform& plat);

  /// Serves one request synchronously: blocks the calling thread through
  /// the surrogate fit (first surrogate request for a network, platform and
  /// set of training knobs; other sessions wait on it or adopt it), the GA
  /// search (including `req.ga.island` sharded searches) and the analytic
  /// validation of the Pareto picks. Safe to call from any thread; racing
  /// calls on one session share its memo cache and in-flight runs.
  [[nodiscard]] mapping_report map(const mapping_request& req);

  /// Admits the request into the service scheduler and returns immediately
  /// (except under `admission_policy::block` with a full queue, where the
  /// caller is backpressured until space frees). The future resolves to the
  /// same report `map()` would produce, stamped with a `scheduler_stats`
  /// snapshot. A submit identical to a queued or in-flight one joins that
  /// request's shared_future instead of enqueuing ("coalescing"); requests
  /// are dispatched highest `req.priority` first, weighted-round-robin
  /// across sessions within a priority, and dropped if they out-wait
  /// `req.deadline` in the queue. Exceptions — unknown network, surrogate
  /// knob mismatch, typed `admission_error` rejections — surface at
  /// future::get().
  [[nodiscard]] std::shared_future<mapping_report> submit(mapping_request req);

  /// Counter/gauge snapshot of the request scheduler (all zero until the
  /// first submit() creates it). See scheduler_stats for the reconciliation
  /// invariants.
  [[nodiscard]] scheduler_stats scheduler() const;

  /// Installs a capture tap: every subsequent submit() appends one
  /// trace_record (arrival offset, priority, deadline, fairness lane,
  /// fingerprint) to `log` before admission — coalesced and rejected
  /// submits included, so a replay reproduces the traffic's full shape.
  /// Null removes the tap. See serving/request_trace.h.
  void capture_trace(std::shared_ptr<trace_log> log);

  /// Pauses/resumes the request scheduler's dispatch (creating it on first
  /// use). While paused, submit() still admits and coalesces — the
  /// deterministic-replay primitive (see request_scheduler::pause).
  void pause_scheduler();
  void resume_scheduler();

  /// The session that serves `req`, created on first use (and counted as a
  /// use for TTL/LRU purposes). Throws std::invalid_argument for an
  /// unregistered network/platform.
  [[nodiscard]] std::shared_ptr<mapping_session> session_for(const mapping_request& req);

  /// Live sessions currently in the registry (evicted/expired excluded).
  [[nodiscard]] std::size_t session_count() const;
  [[nodiscard]] std::vector<std::string> session_keys() const;
  /// Sessions dropped so far by the LRU cap or the idle TTL.
  [[nodiscard]] std::size_t sessions_evicted() const;

  /// The session key `req` would resolve to, without validating or creating
  /// anything (unknown names key on generation 0) — the scheduler's
  /// fairness lane, computable even for requests that will fail in map().
  /// Also the consistent-hash routing key of serving::service_group.
  [[nodiscard]] std::string fairness_lane(const mapping_request& req) const;

  /// Snapshots every live session to `snapshot.directory` (existing files
  /// for the same keys are overwritten); the sessions stay in the registry
  /// and keep serving. This is the orderly-shutdown / pre-reshard drain
  /// primitive. Returns the number spilled; 0 when no directory is
  /// configured. Failed writes count in `spill_failures()` and are skipped.
  ///
  /// Blocking: snapshotting drains each refresh session's in-flight refit.
  std::size_t spill_sessions();

  /// @name Persistence counters (all monotonic)
  /// @{
  [[nodiscard]] std::size_t sessions_spilled() const;   ///< snapshots written
  [[nodiscard]] std::size_t spill_failures() const;     ///< snapshot writes that failed
  [[nodiscard]] std::size_t sessions_restored() const;  ///< cold misses warm-started from disk
  [[nodiscard]] std::size_t restore_failures() const;   ///< snapshots that failed to load
  /// @}

  /// Summed engine counters (analytic + surrogate) across every live
  /// session — the service-level cache dashboard; `cache_bytes` sums into
  /// the service's total memo-table footprint.
  [[nodiscard]] core::engine_stats engine_totals() const;

 private:
  struct session_entry {
    std::shared_ptr<mapping_session> session;
    std::chrono::steady_clock::time_point last_used;
  };

  [[nodiscard]] std::string session_key(const mapping_request& req,
                                        const std::string& platform_name,
                                        std::uint64_t network_generation,
                                        std::uint64_t platform_generation) const;
  /// Best-effort snapshot of an eviction victim (no-op unless
  /// spill_on_evict with a directory). Caller must hold `mu_`.
  void spill_session_locked(const std::shared_ptr<mapping_session>& session);
  /// Best-effort warm-start of a freshly created session from the snapshot
  /// directory. Caller must hold `mu_`.
  void maybe_restore_locked(const std::string& key, mapping_session& session);
  /// Lazily constructs the scheduler on first submit(). Caller must NOT
  /// hold `mu_`.
  [[nodiscard]] request_scheduler& ensure_scheduler();
  /// Drops idle sessions past the TTL. Caller must hold `mu_`.
  void prune_expired_locked(std::chrono::steady_clock::time_point now);
  /// Refreshes a session's last-used stamp (no-op if already evicted).
  void touch_session(const std::string& key);
  /// Enforces `max_sessions` by evicting LRU entries other than `keep`.
  /// Caller must hold `mu_`.
  void enforce_capacity_locked(const std::string& keep);

  service_options opt_;
  /// Fitted surrogates shared by every session this service creates.
  std::shared_ptr<predictor_pool> predictors_;
  mutable std::mutex mu_;  ///< guards the three registries + scheduler creation
  std::unordered_map<std::string, std::shared_ptr<const nn::network>> networks_;
  std::unordered_map<std::string, std::shared_ptr<const soc::platform>> platforms_;
  /// Bumped on every (re-)registration; part of the session key so a
  /// replaced network/platform stops matching pre-replacement sessions.
  std::unordered_map<std::string, std::uint64_t> network_generations_;
  std::unordered_map<std::string, std::uint64_t> platform_generations_;
  std::string default_platform_;
  std::unordered_map<std::string, session_entry> sessions_;
  std::size_t sessions_evicted_ = 0;
  std::size_t sessions_spilled_ = 0;
  std::size_t spill_failures_ = 0;
  std::size_t sessions_restored_ = 0;
  std::size_t restore_failures_ = 0;
  /// Capture tap; null when no capture is active (the common case).
  std::shared_ptr<trace_log> trace_;
  /// Lazily created on first submit(). Declared last so it is destroyed
  /// first: its destructor joins the dispatch workers, which may be inside
  /// map() touching the registries above.
  std::unique_ptr<request_scheduler> scheduler_;
};

}  // namespace mapcq::serving

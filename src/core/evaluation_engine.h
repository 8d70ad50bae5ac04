#pragma once
// Memoizing, batched evaluation service — the shared evaluation back-end of
// the ROADMAP's caching/batching/async serving architecture.
//
// The GA re-visits many candidates: elites survive generations unchanged,
// crossover and mutation regenerate earlier children, and Pareto validation
// re-evaluates archived configurations. `evaluation_engine` wraps a
// `core::evaluator` with a sharded, mutex-striped memo table keyed by the
// canonical `configuration::hash()`, collapses identical configurations
// inside a batch onto one evaluator run, and fans the distinct misses out
// over a `util::thread_pool`. Cached results are bit-identical to direct
// evaluation: `evaluator::evaluate` is deterministic and const, so serving
// a stored `evaluation` is indistinguishable from recomputing it.
//
// Concurrency model (see docs/ARCHITECTURE.md for the full picture):
//   * every public member is safe to call from any thread;
//   * racing callers never evaluate the same configuration twice: a request
//     for a candidate that another thread is currently evaluating joins the
//     *in-flight slot* and waits for that run instead of starting its own
//     ("in-flight dedup", counted in `engine_stats::inflight`);
//   * `evaluate_batch_async` lets several batches overlap on one worker
//     pool — the island-model GA keeps the pool busy across generations by
//     having K islands' batches in flight at once.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/configuration.h"
#include "core/evaluator.h"
#include "util/thread_pool.h"

namespace mapcq::core {

/// Engine tuning knobs.
struct engine_options {
  std::size_t shards = 16;   ///< mutex stripes of the memo table
  std::size_t capacity = 0;  ///< max cached evaluations, evicted LRU; 0 = unbounded
  std::size_t threads = 1;   ///< batch-evaluation workers (1 = inline)
  /// false turns the engine into a pass-through (every call runs the
  /// evaluator, and in-flight dedup is disabled too); kept for A/B benches
  /// and bit-identity tests.
  bool memoize = true;
};

/// Monotonic counters. One batch element is exactly one of: a `hit` (served
/// from the table), a `dedup` (identical to an earlier element of the same
/// batch, collapsed onto its run), an `inflight` (identical to a candidate
/// another thread was already evaluating, served by waiting on that run) or
/// a `miss` (an actual evaluator run).
struct engine_stats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t dedup = 0;
  std::size_t inflight = 0;
  std::size_t evictions = 0;
  /// Entries purged because their predictor epoch went stale (see
  /// `advance_epoch`); distinct from capacity `evictions`.
  std::size_t invalidated = 0;
  /// Gauge (not a counter): approximate bytes currently held by the memo
  /// table — sum of `approx_evaluation_bytes` over the live entries,
  /// maintained on insert/evict/purge. Spill and capacity decisions read
  /// this instead of flying blind on entry counts (records vary wildly
  /// with stage counts). Being a gauge it passes through `operator-`
  /// unchanged (a delta keeps the minuend's footprint; subtracting
  /// snapshots would underflow whenever the cache shrank).
  std::size_t cache_bytes = 0;

  [[nodiscard]] std::size_t lookups() const noexcept {
    return hits + misses + dedup + inflight;
  }
  /// Fraction of lookups that avoided an evaluator run.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::size_t n = lookups();
    return n == 0 ? 0.0 : static_cast<double>(hits + dedup + inflight) / static_cast<double>(n);
  }
};

[[nodiscard]] inline engine_stats operator-(engine_stats a, const engine_stats& b) noexcept {
  a.hits -= b.hits;
  a.misses -= b.misses;
  a.dedup -= b.dedup;
  a.inflight -= b.inflight;
  a.evictions -= b.evictions;
  a.invalidated -= b.invalidated;
  // cache_bytes is a gauge: the delta reports the minuend's live footprint.
  return a;
}

/// Approximate memory footprint of one cached evaluation: the struct plus
/// its heap payloads (configuration matrices, per-stage vectors, reject
/// reason). An estimate, not an accounting — allocator overhead and
/// small-string storage are ignored — but proportional to the real cost,
/// which is what capacity/spill decisions need.
[[nodiscard]] std::size_t approx_evaluation_bytes(const evaluation& e) noexcept;

/// Thread-safe memoizing front-end of one `evaluator`.
///
/// Ownership: the engine borrows the evaluator (and every later one handed
/// to `advance_epoch`; each must stay alive until no batch planned against
/// it is in flight — in practice, for the engine's lifetime) and owns its
/// memo table and worker pool. Engines are neither copyable nor movable;
/// long-lived callers (serving sessions) hold them by reference.
///
/// Thread-safety: every public member may be called concurrently from any
/// thread. Results are pure functions of the configuration, so racing
/// callers always observe bit-identical evaluations regardless of which
/// thread actually ran the evaluator.
class evaluation_engine {
 public:
  explicit evaluation_engine(const evaluator& eval, engine_options opt = {});

  evaluation_engine(const evaluation_engine&) = delete;
  evaluation_engine& operator=(const evaluation_engine&) = delete;

  /// One candidate, served from the cache when possible.
  ///
  /// Blocking: returns immediately on a cache hit; blocks for one evaluator
  /// run on a miss; blocks until the owning thread finishes when the same
  /// configuration is already in flight elsewhere (never runs it twice).
  [[nodiscard]] evaluation evaluate(const configuration& config);

  /// A whole population, synchronously: probes the cache, collapses
  /// in-batch duplicates, joins candidates already in flight on other
  /// threads, then evaluates the distinct misses across the worker pool.
  /// The result vector is index-aligned with `configs` regardless of thread
  /// count. Blocks the calling thread until every element is resolved.
  [[nodiscard]] std::vector<evaluation> evaluate_batch(std::span<const configuration> configs);

  /// A whole population, asynchronously. The cache probe, in-batch dedup
  /// and in-flight registration happen synchronously on the calling thread
  /// (so the engine's counters are already final for this batch when the
  /// call returns); the distinct misses are then enqueued on the worker
  /// pool and the call returns without waiting for them.
  ///
  /// The returned future assembles the index-aligned result vector lazily:
  /// call `get()` (or `wait()`) to block until every element — including
  /// candidates joined from other threads' in-flight runs — is resolved.
  /// Worker threads never block on other batches, so any number of async
  /// batches may safely overlap on one engine; this is what lets the
  /// island GA keep the pool busy while individual islands rank and breed.
  ///
  /// Dropping the future without calling `get()` is safe: the enqueued
  /// evaluations still run and populate the cache. An evaluator exception
  /// rethrows at `get()` (never inside a pool worker).
  ///
  /// With `threads <= 1` (no pool) the batch is evaluated inline before the
  /// call returns and the future is immediately ready.
  [[nodiscard]] std::future<std::vector<evaluation>> evaluate_batch_async(
      std::vector<configuration> configs);

  /// Snapshot of the counters (cheap; callers diff snapshots for deltas).
  [[nodiscard]] engine_stats stats() const noexcept;

  /// Number of evaluations currently cached (stale-epoch stragglers, which
  /// can never be served, included until the next advance purges them).
  [[nodiscard]] std::size_t size() const;

  /// Drops every cached entry (counters are kept). In-flight evaluations
  /// are unaffected: they complete and re-insert their results.
  void clear();

  /// Observer of every actual evaluator run ("ground truth"): invoked with
  /// the configuration and its fresh evaluation after the run completes and
  /// publishes, outside any engine lock. Cache hits, in-batch dedups and
  /// in-flight joins do NOT fire it — exactly one call per evaluator
  /// execution. The refresh pipeline hangs off this to learn from
  /// cache-miss traffic.
  ///
  /// The tap must not throw (exceptions are swallowed — an observer must
  /// never fail a successful evaluation). Passing nullptr uninstalls it and
  /// BLOCKS until every in-flight invocation has returned, so the owner of
  /// the tap's captures may destroy them right after.
  using ground_truth_tap = std::function<void(const configuration&, const evaluation&)>;
  void set_ground_truth_tap(ground_truth_tap tap);

  /// Atomically swaps the evaluator this engine fronts and bumps the cache
  /// epoch: entries and in-flight slots of earlier epochs are purged (the
  /// stragglers that in-flight old-epoch batches re-insert afterwards stay
  /// tagged stale and are never served — counted in
  /// `engine_stats::invalidated` when the next advance sweeps them).
  ///
  /// Batches already planned keep the evaluator they captured at submit
  /// time, so in-flight work finishes on the old model while every new
  /// call sees `next`; this is the predictor-promotion primitive of the
  /// surrogate refresh pipeline. `next` must outlive every batch planned
  /// against it — for the old evaluator that means until all in-flight
  /// batches at swap time have completed (serving sessions retire old
  /// evaluators into a keep-alive list).
  void advance_epoch(const evaluator& next);

  /// Current epoch (0 until the first advance). Cached results are only
  /// served to callers of the same epoch.
  [[nodiscard]] std::uint64_t epoch() const;

  /// The evaluator behind the *current* epoch.
  [[nodiscard]] const evaluator& base() const noexcept { return *current()->eval; }
  [[nodiscard]] const engine_options& options() const noexcept { return opt_; }

  /// Copies out every *current-epoch* cache entry, in deterministic order
  /// (shard 0..N, coldest first within a shard — so a capacity-bounded
  /// import replays the eviction order faithfully). Stale-epoch stragglers
  /// and in-flight runs are excluded: the export is exactly what the
  /// engine could serve right now. This is the session-snapshot primitive
  /// (serving/session_snapshot.h).
  [[nodiscard]] std::vector<evaluation> export_cache() const;

  /// Inserts `entries` into the cache at the *current* epoch — the restore
  /// half of `export_cache`. Entries already present are kept (first copy
  /// wins, as with racing batches); capacity eviction applies as usual.
  /// No hit/miss counters are bumped: importing is not traffic.
  void import_cache(std::span<const evaluation> entries);

 private:
  // Hash collisions are resolved by exact configuration equality against
  // the `evaluation::config` stored in each entry. Entries live on the
  // eviction list (coldest at the front); the map indexes them by key. A
  // hit splices its entry to the back, so a full shard evicts LRU.
  // Every entry and slot is tagged with the epoch that produced it; lookups
  // and joins only match their caller's epoch, so a promotion can never
  // serve a stale prediction.
  //
  // The in-flight table shares the shard mutex with the memo table, which
  // gives the dedup protocol its key invariant for free: an owner inserts
  // its result into the cache and retires its in-flight slot under one lock
  // acquisition, so a prober that sees neither (under the same lock) knows
  // the candidate has never been started and can safely claim ownership.
  struct cache_entry {
    std::size_t key = 0;
    std::uint64_t epoch = 0;
    std::size_t bytes = 0;  ///< approx_evaluation_bytes(value), frozen at insert
    evaluation value;
  };
  using entry_list = std::list<cache_entry>;
  struct inflight_slot {
    configuration config;
    std::uint64_t epoch = 0;
    std::shared_future<evaluation> result;
  };
  struct shard {
    mutable std::mutex mu;
    entry_list order;
    std::unordered_map<std::size_t, std::vector<entry_list::iterator>> map;
    std::unordered_map<std::size_t, std::vector<inflight_slot>> inflight;
  };

  /// Outcome of claiming one candidate under the shard lock.
  struct claim {
    enum class kind { hit, join, owner } outcome;
    evaluation value;  ///< filled for `hit`
    /// Pending result: a foreign run for `join`, our own promise's future
    /// for `owner` (so batch assembly reads values and exceptions alike).
    std::shared_future<evaluation> pending;
    std::promise<evaluation> promise;  ///< owned by `owner`
  };

  /// Immutable (evaluator, epoch) pair: batches capture one at submit so
  /// in-flight work keeps its model across an advance_epoch swap.
  struct epoch_state {
    const evaluator* eval = nullptr;
    std::uint64_t epoch = 0;
  };

  /// One batch, planned: every element classified as hit / in-batch dup /
  /// cross-thread join / owned miss, with all counters already bumped.
  struct batch_plan {
    struct group {
      std::size_t rep = 0;  ///< index of the group's representative element
      std::size_t key = 0;
      std::vector<std::size_t> dups;           ///< later in-batch duplicates
      bool owner = false;                      ///< we run the evaluator
      std::shared_future<evaluation> pending;  ///< the rep's eventual result
      std::promise<evaluation> promise;        ///< when owner
    };
    /// The (evaluator, epoch) this whole batch runs against.
    std::shared_ptr<const epoch_state> state;
    /// Async batches own their configurations here; synchronous batches
    /// leave it empty and `configs` views the caller's span (no copy).
    std::vector<configuration> storage;
    std::span<const configuration> configs;
    std::vector<evaluation> out;      ///< hits pre-filled
    std::vector<group> groups;        ///< joins and owned misses
    std::vector<std::size_t> owners;  ///< indices into `groups`
  };

  [[nodiscard]] shard& shard_for(std::size_t key) noexcept {
    return shards_[key % shards_.size()];
  }
  /// The live (evaluator, epoch) snapshot.
  [[nodiscard]] std::shared_ptr<const epoch_state> current() const;
  void insert(std::size_t key, const evaluation& result, std::uint64_t epoch);
  /// Cache-or-inflight-or-register, atomically per shard (counters bumped).
  /// Only entries/slots of `epoch` match.
  [[nodiscard]] claim claim_slot(std::size_t key, const configuration& config,
                                 std::uint64_t epoch);
  /// Removes a claimed in-flight slot (shared by completion and abandon).
  void retire_slot(std::size_t key, const configuration& config, std::uint64_t epoch);
  /// Owner completion: publishes to the cache, retires the in-flight slot
  /// and fulfills the promise.
  void complete_owner(std::size_t key, const configuration& config, std::uint64_t epoch,
                      std::promise<evaluation>& promise, const evaluation& result);
  /// Owner failure: retires the slot and propagates the exception to joiners.
  void abandon_owner(std::size_t key, const configuration& config, std::uint64_t epoch,
                     std::promise<evaluation>& promise);
  /// Invokes the ground-truth tap, if any (never throws; see the setter).
  void fire_tap(const configuration& config, const evaluation& result) noexcept;
  /// Classifies `plan.configs` (which must already be set) in place and
  /// stamps `plan.state`.
  void plan_batch(batch_plan& plan);
  /// Evaluates one owned group. Never throws: an evaluator exception is
  /// parked in the group's promise (via abandon_owner) so pool workers
  /// never unwind; `finish_plan` rethrows it on the consuming thread.
  void run_owner(batch_plan& plan, std::size_t group_index);
  /// Collects every group's result (own runs and foreign joins alike) and
  /// copies duplicates into place; rethrows the first failed run.
  void finish_plan(batch_plan& plan);

  engine_options opt_;
  std::size_t shard_capacity_;  ///< per-shard entry cap (0 = unbounded)
  std::vector<shard> shards_;

  mutable std::mutex state_mu_;  ///< guards `state_`
  std::shared_ptr<const epoch_state> state_;
  /// Tap invocations hold this shared; set_ground_truth_tap takes it
  /// unique, so uninstalling waits out in-flight observer calls.
  mutable std::shared_mutex tap_mu_;
  ground_truth_tap tap_;

  /// Declared after every member its drained tasks touch (shards_, the
  /// epoch state, the tap): the pool's destructor runs queued evaluations
  /// to completion, and those publish to the cache and fire the tap.
  std::unique_ptr<util::thread_pool> pool_;  ///< null when threads <= 1

  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> dedup_{0};
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::size_t> evictions_{0};
  std::atomic<std::size_t> invalidated_{0};
  std::atomic<std::size_t> bytes_{0};  ///< live-entry footprint (stats().cache_bytes)
};

}  // namespace mapcq::core

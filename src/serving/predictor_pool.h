#pragma once
// Service-wide pool of fitted surrogates. The paper fits its XGBoost
// surrogate once, on one platform's layer-wise measurements (§V-E, Fig. 5),
// and searches against it from then on. A fit reads only the network, the
// platform and the `bench`/`gbt` knobs, while a session key also holds the
// ranking seed, the limits, the co-location scenario and more. So sessions
// that differ only in those share one fit: the first session for a
// (network, platform, bench, gbt) key runs it, and every later one adopts
// the same immutable predictor, scoring bit-identically to a fresh fit.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>

#include "nn/graph.h"
#include "soc/platform.h"
#include "surrogate/dataset.h"
#include "surrogate/gbt.h"
#include "surrogate/predictor.h"

namespace mapcq::serving {

/// A fitted surrogate and its held-out fidelity.
struct pooled_fit {
  std::shared_ptr<const surrogate::hw_predictor> predictor;
  surrogate::hw_predictor::fidelity fidelity;
};

/// The benchmark a session surrogate is fitted on, split 80/20 into its
/// training and held-out parts (deterministic per arguments). A refresh
/// session regenerates the training part with this instead of keeping it
/// in the pool.
[[nodiscard]] surrogate::dataset_split surrogate_split(const nn::network& net,
                                                       const soc::platform& plat,
                                                       const surrogate::benchmark_options& bench);

/// Fits a predictor on `surrogate_split`'s training part and scores it on
/// the held-out part (blocking: one benchmark generation and two GBT fits).
/// Throws std::invalid_argument on an empty training set (`bench.samples`
/// of 0).
[[nodiscard]] pooled_fit fit_surrogate(const nn::network& net, const soc::platform& plat,
                                       const surrogate::benchmark_options& bench,
                                       const surrogate::gbt_params& gbt);

/// Monotonic pool counters.
struct predictor_pool_stats {
  std::size_t fits = 0;       ///< fits started (one per key miss)
  std::size_t hits = 0;       ///< acquires served by a pooled or in-flight fit
  std::size_t failures = 0;   ///< fits that threw (their entries were dropped)
  std::size_t evictions = 0;  ///< entries dropped by the capacity bound
};

/// Single-flight, LRU-bounded pool of fitted surrogates.
///
/// Key: the network and platform snapshots (by identity) plus `bench` and
/// `gbt` (by value). A re-registered network or platform is a new
/// snapshot, so it misses. Each entry holds its snapshots, so their
/// addresses cannot be reused while the entry lives.
///
/// Ownership: a `mapping_service` owns its pool through a shared_ptr and
/// shares it with every session it creates; sessions may outlive the
/// service's registry. Pooled predictors are shared with the sessions
/// that adopted them and die with their last holder.
///
/// Thread-safety: every member may be called concurrently. The first
/// caller for a key runs the fit outside the pool mutex; concurrent callers
/// for the same key wait on its one shared_future. A fit that throws
/// reaches every waiter, and its entry (that entry only) is dropped, so the
/// next caller fits again.
class predictor_pool {
 public:
  /// Entries kept; the least recently acquired goes first. A default fit is
  /// ~21k tree nodes per head pair, ~1.6 MB, so a full pool holds ~13 MB.
  static constexpr std::size_t capacity = 8;

  using fit_fn = std::function<pooled_fit(const nn::network&, const soc::platform&,
                                          const surrogate::benchmark_options&,
                                          const surrogate::gbt_params&)>;

  /// `fit` computes an entry on a miss; tests substitute a counting one.
  explicit predictor_pool(fit_fn fit = fit_surrogate);

  /// The fit for (net, plat, bench, gbt): pooled, joined in flight, or run
  /// on this thread. `fitted_now` (optional out) reports whether this call
  /// ran the fit. Rethrows the fit's exception, also to joined waiters.
  [[nodiscard]] pooled_fit acquire(const std::shared_ptr<const nn::network>& net,
                                   const std::shared_ptr<const soc::platform>& plat,
                                   const surrogate::benchmark_options& bench,
                                   const surrogate::gbt_params& gbt, bool* fitted_now = nullptr);

  /// Entries held now (finished and in flight).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] predictor_pool_stats stats() const;

 private:
  struct entry {
    std::uint64_t id = 0;  ///< identifies this entry for removal after a failed fit
    std::shared_ptr<const nn::network> net;
    std::shared_ptr<const soc::platform> plat;
    surrogate::benchmark_options bench;
    surrogate::gbt_params gbt;
    std::shared_future<pooled_fit> result;
  };

  fit_fn fit_;
  mutable std::mutex mu_;    ///< guards everything below
  std::list<entry> entries_;  ///< most recently acquired first
  std::uint64_t next_id_ = 0;
  predictor_pool_stats stats_;
};

}  // namespace mapcq::serving

#include "serving/predictor_pool.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace mapcq::serving {

surrogate::dataset_split surrogate_split(const nn::network& net, const soc::platform& plat,
                                         const surrogate::benchmark_options& bench) {
  const std::vector<const nn::network*> nets = {&net};
  return surrogate::split(surrogate::generate_benchmark(nets, plat, bench), 0.8,
                          bench.seed ^ 0x5eed);
}

pooled_fit fit_surrogate(const nn::network& net, const soc::platform& plat,
                         const surrogate::benchmark_options& bench,
                         const surrogate::gbt_params& gbt) {
  const surrogate::dataset_split parts = surrogate_split(net, plat, bench);
  pooled_fit fit;
  fit.predictor = std::make_shared<const surrogate::hw_predictor>(parts.train, gbt);
  fit.fidelity = fit.predictor->evaluate(parts.test);
  return fit;
}

predictor_pool::predictor_pool(fit_fn fit) : fit_(std::move(fit)) {}

pooled_fit predictor_pool::acquire(const std::shared_ptr<const nn::network>& net,
                                   const std::shared_ptr<const soc::platform>& plat,
                                   const surrogate::benchmark_options& bench,
                                   const surrogate::gbt_params& gbt, bool* fitted_now) {
  std::promise<pooled_fit> promise;
  std::shared_future<pooled_fit> result;
  std::uint64_t id = 0;  // stays 0 unless this call runs the fit
  {
    const std::lock_guard<std::mutex> lock{mu_};
    const auto it = std::find_if(entries_.begin(), entries_.end(), [&](const entry& e) {
      return e.net == net && e.plat == plat && e.bench == bench && e.gbt == gbt;
    });
    if (it != entries_.end()) {
      entries_.splice(entries_.begin(), entries_, it);
      result = it->result;
      ++stats_.hits;
    } else {
      id = ++next_id_;
      result = promise.get_future().share();
      entries_.push_front({id, net, plat, bench, gbt, result});
      ++stats_.fits;
      if (entries_.size() > capacity) {
        // An evicted in-flight entry still completes: its fitter holds the
        // promise and its waiters hold the future.
        entries_.pop_back();
        ++stats_.evictions;
      }
    }
  }
  if (fitted_now) *fitted_now = id != 0;
  if (id == 0) return result.get();
  try {
    promise.set_value(fit_(*net, *plat, bench, gbt));
  } catch (...) {
    {
      // Drop this entry (not whatever now holds the key) before waking the
      // waiters, so every caller after the failure fits again.
      const std::lock_guard<std::mutex> lock{mu_};
      std::erase_if(entries_, [id](const entry& e) { return e.id == id; });
      ++stats_.failures;
    }
    promise.set_exception(std::current_exception());
  }
  return result.get();
}

std::size_t predictor_pool::size() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return entries_.size();
}

predictor_pool_stats predictor_pool::stats() const {
  const std::lock_guard<std::mutex> lock{mu_};
  return stats_;
}

}  // namespace mapcq::serving

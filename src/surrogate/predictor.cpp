#include "surrogate/predictor.h"

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace mapcq::surrogate {

namespace {

/// Hash of a feature row's bits, so rows that differ only in the sign of a
/// zero or in a NaN payload hash apart, as they compare apart.
std::uint64_t row_hash(const double* row) noexcept {
  std::uint64_t h = 0;
  for (std::size_t f = 0; f < feature_count; ++f)
    h = (std::rotl(h, 5) ^ std::bit_cast<std::uint64_t>(row[f])) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 33;  // fold the high bits into the low ones the set index reads
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

}  // namespace

/// The scores of recently seen rows, keyed by the rows' exact bits.
/// Set-associative: a row may sit only in the set its hash picks, and a
/// full set replaces its oldest entry. Stripe `s` guards every set whose
/// index is `s` modulo `stripes`.
struct hw_predictor::row_memo {
  static constexpr std::size_t ways = 4;
  static constexpr std::size_t sets = memo_capacity / ways;
  static constexpr std::size_t stripes = 16;
  static_assert(sets * ways == memo_capacity && sets % stripes == 0);

  struct entry {  // 168 B
    std::uint64_t hash = 0;
    std::array<double, feature_count> row{};
    double latency_ms = 0.0;
    double energy_mj = 0.0;
  };
  struct set {
    std::array<entry, ways> entries;
    std::uint8_t size = 0;  ///< entries filled, front first
    std::uint8_t next = 0;  ///< oldest entry once the set is full
  };
  struct alignas(64) stripe {  // one cache line each, so stripes do not contend
    std::mutex mu;
  };

  std::array<stripe, stripes> locks;
  std::vector<set> table = std::vector<set>(sets);

  /// The entry holding `row` in `s`, or nullptr; the caller holds the
  /// set's stripe.
  static const entry* find(const set& s, std::uint64_t hash, const double* row) noexcept {
    for (std::size_t w = 0; w < s.size; ++w) {
      const entry& e = s.entries[w];
      if (e.hash == hash && std::memcmp(e.row.data(), row, sizeof e.row) == 0) return &e;
    }
    return nullptr;
  }

  bool lookup(std::uint64_t hash, const double* row, double& latency_ms, double& energy_mj) {
    const std::size_t i = hash % sets;
    const std::lock_guard<std::mutex> lock{locks[i % stripes].mu};
    const entry* e = find(table[i], hash, row);
    if (e == nullptr) return false;
    latency_ms = e->latency_ms;
    energy_mj = e->energy_mj;
    return true;
  }

  /// Stores a scored row unless a racing call (or a repeat earlier in the
  /// same batch) already did.
  void store(std::uint64_t hash, const double* row, double latency_ms, double energy_mj) {
    const std::size_t i = hash % sets;
    const std::lock_guard<std::mutex> lock{locks[i % stripes].mu};
    set& s = table[i];
    if (find(s, hash, row) != nullptr) return;
    entry& e = s.size < ways ? s.entries[s.size++]
                             : s.entries[std::exchange(s.next, (s.next + 1) % ways)];
    e.hash = hash;
    std::memcpy(e.row.data(), row, sizeof e.row);
    e.latency_ms = latency_ms;
    e.energy_mj = energy_mj;
  }
};

hw_predictor::hw_predictor(const dataset& train_set, const gbt_params& params) {
  if (train_set.size() == 0) throw std::invalid_argument("hw_predictor: empty training set");
  latency_ = std::make_unique<gbt_regressor>(std::span<const std::vector<double>>(train_set.x),
                                             std::span<const double>(train_set.latency_ms),
                                             params);
  energy_ = std::make_unique<gbt_regressor>(std::span<const std::vector<double>>(train_set.x),
                                            std::span<const double>(train_set.energy_mj), params);
}

hw_predictor::hw_predictor(gbt_regressor latency, gbt_regressor energy)
    : latency_(std::make_unique<gbt_regressor>(std::move(latency))),
      energy_(std::make_unique<gbt_regressor>(std::move(energy))) {}

hw_predictor::~hw_predictor() = default;

void hw_predictor::predict(std::span<const double> rows, std::span<double> latency_ms,
                           std::span<double> energy_mj) const {
  const std::size_t n = latency_ms.size();
  if (energy_mj.size() != n)
    throw std::invalid_argument("hw_predictor::predict: output sizes differ");
  if (rows.size() != n * feature_count)
    throw std::invalid_argument("hw_predictor::predict: rows do not match feature_count x count");
  if (n == 0) return;
  std::call_once(memo_once_, [this] { memo_ = std::make_unique<row_memo>(); });

  // Serve what the memo holds; gather the misses into one batch.
  std::vector<std::pair<std::size_t, std::uint64_t>> missed;  // (row index, hash)
  std::vector<double> miss_rows;
  for (std::size_t k = 0; k < n; ++k) {
    const double* row = rows.data() + k * feature_count;
    const std::uint64_t hash = row_hash(row);
    if (memo_->lookup(hash, row, latency_ms[k], energy_mj[k])) continue;
    missed.emplace_back(k, hash);
    miss_rows.insert(miss_rows.end(), row, row + feature_count);
  }
  if (missed.empty()) return;

  // Score them, then scatter and store.
  std::vector<double> scores(2 * missed.size());
  const std::span<double> lat{scores.data(), missed.size()};
  const std::span<double> en{scores.data() + missed.size(), missed.size()};
  latency_->predict(miss_rows, feature_count, lat);
  energy_->predict(miss_rows, feature_count, en);
  for (std::size_t m = 0; m < missed.size(); ++m) {
    const auto [k, hash] = missed[m];
    latency_ms[k] = lat[m];
    energy_mj[k] = en[m];
    memo_->store(hash, rows.data() + k * feature_count, lat[m], en[m]);
  }
}

hw_predictor::fidelity hw_predictor::evaluate(const dataset& test_set) const {
  if (test_set.size() == 0) throw std::invalid_argument("hw_predictor::evaluate: empty test set");
  const auto lat_pred = latency_->predict(std::span<const std::vector<double>>(test_set.x));
  const auto en_pred = energy_->predict(std::span<const std::vector<double>>(test_set.x));
  fidelity f;
  f.latency_rmse = util::rmse(lat_pred, test_set.latency_ms);
  f.latency_mape = util::mape(lat_pred, test_set.latency_ms);
  f.latency_r2 = util::r_squared(lat_pred, test_set.latency_ms);
  f.energy_rmse = util::rmse(en_pred, test_set.energy_mj);
  f.energy_mape = util::mape(en_pred, test_set.energy_mj);
  f.energy_r2 = util::r_squared(en_pred, test_set.energy_mj);
  return f;
}

}  // namespace mapcq::surrogate

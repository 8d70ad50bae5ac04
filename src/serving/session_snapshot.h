#pragma once
// Durable session snapshots (ROADMAP: "sharded serving with durable session
// snapshots and warm-start restore").
//
// A long-lived `mapping_session` accumulates state that is expensive to
// rebuild: the analytic memo cache (thousands of evaluator runs), the
// once-trained GBT predictor with its surrogate cache, and the refresh
// pipeline's ground-truth reservoir. Eviction and process restarts used to
// discard all of it; a snapshot captures the whole set in one versioned
// text document (mapcq-snapshot-v1) so a restored session serves warm
// traffic bit-identically — cached evaluations are replayed verbatim, the
// GBT is rebuilt from its fitted trees without retraining, and reservoir
// probabilities stay correct across the restart.
//
// The format follows the PR 6 serialization idiom: line-oriented key/value
// rows, length-prefixed vectors, embedded self-delimiting mapcq-eval-v1 and
// mapcq-config-v1 blocks, full 17-digit precision. Every parse failure —
// truncation, corruption, version skew — throws the typed `snapshot_error`,
// never UB: the spill/restore paths treat a bad snapshot as a cold start,
// not a crash.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "surrogate/dataset.h"
#include "surrogate/predictor.h"
#include "surrogate/trainer.h"

namespace mapcq::serving {

/// Typed snapshot failure: malformed or truncated snapshot text, a version
/// mismatch, or an I/O error in the file wrappers. Restore paths catch this
/// (and only this) to fall back to a cold session.
class snapshot_error : public std::runtime_error {
 public:
  explicit snapshot_error(const std::string& message);
};

/// Everything a `mapping_session` needs to resume warm after a restart:
/// plain value type, no thread-affinity, produced by
/// `mapping_session::snapshot()` and consumed by
/// `mapping_session::restore()`.
struct session_snapshot {
  /// The session key the state was captured under. Restore refuses a key
  /// mismatch — a snapshot must never warm-start a session built from
  /// different evaluator knobs.
  std::string session_key;

  /// Current-epoch entries of the analytic engine's memo cache, coldest
  /// first (import replays the eviction order).
  std::vector<core::evaluation> analytic_entries;

  /// The lazily trained surrogate half; absent when the session never
  /// trained one.
  struct surrogate_state {
    /// The training knobs locked in by the session's first surrogate
    /// request — restored so later requests pass the immutability check
    /// without retraining.
    surrogate::benchmark_options bench;
    surrogate::gbt_params gbt;
    /// Held-out fidelity of the initial session GBT (reported verbatim).
    surrogate::hw_predictor::fidelity fidelity;
    /// The serving predictor's two fitted ensembles at snapshot time (the
    /// epoch-N model when refresh promoted N times) — rebuilt via the
    /// restore constructors, bit-identical, never retrained.
    surrogate::fitted_ensemble latency;
    surrogate::fitted_ensemble energy;
    /// The surrogate engine's cache epoch at capture, equal to the refresh
    /// promotion count. Captured under the same lock as the ensembles and
    /// the entries below, so the triple is consistent; a restored engine
    /// restarts at epoch 0 with this model as its base.
    std::uint64_t predictor_epoch = 0;
    /// Current-epoch surrogate cache entries (predictions of exactly the
    /// serialized model; stale-epoch stragglers are excluded).
    std::vector<core::evaluation> entries;
  };
  std::optional<surrogate_state> surrogate;

  /// The refresh pipeline's reservoir; absent when the session ran without
  /// refresh (or never trained the surrogate that owns the pipeline).
  struct refresh_state {
    /// The original benchmark training slice candidates refit on.
    surrogate::dataset base_train;
    /// The reservoir's retained rows plus the total ever offered — what
    /// keeps Algorithm R's retention probabilities correct after restore.
    surrogate::dataset log_rows;
    std::size_t log_seen = 0;
  };
  std::optional<refresh_state> refresh;
};

/// Serializes a snapshot to the mapcq-snapshot-v1 text format.
[[nodiscard]] std::string to_text(const session_snapshot& snap);

/// Parses a snapshot back; exact round-trip of to_text. Throws
/// snapshot_error on any malformed input — bad header, truncation mid-
/// section, non-numeric fields, out-of-range tree children.
[[nodiscard]] session_snapshot snapshot_from_text(const std::string& text);

/// File convenience wrappers; both throw snapshot_error on I/O failure.
/// save_snapshot writes a temp file beside `path` and renames it over
/// `path`: a failed save leaves the previous snapshot and no temp file, and
/// a reader that opened the previous snapshot keeps reading it whole.
void save_snapshot(const std::string& path, const session_snapshot& snap);
[[nodiscard]] session_snapshot load_snapshot(const std::string& path);

/// The on-disk file name for a session's snapshot: a stable 64-bit content
/// hash of the session key in hex plus ".snapshot". Session keys contain
/// path-hostile characters ('/', '|'); the hash is filesystem-safe and
/// stable across processes (std::hash is not), so a restarted service finds
/// the files its predecessor wrote.
[[nodiscard]] std::string snapshot_filename(const std::string& session_key);

}  // namespace mapcq::serving

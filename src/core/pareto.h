#pragma once
// Pareto-front extraction over minimization objectives (paper §V-C: "a
// Pareto set is calculated from all the generated populations from which
// the ideal dynamic mapping strategy is extracted").
//
// All three functions are pure (no shared state, no allocation visible to
// the caller beyond the returned vectors): safe to call concurrently from
// any thread, and they never block.

#include <cstddef>
#include <span>
#include <vector>

namespace mapcq::core {

/// Returns true if `a` dominates `b`: a <= b in every component and a < b
/// in at least one (all objectives minimized). `a` and `b` must have equal
/// width; the spans are borrowed for the duration of the call only.
[[nodiscard]] bool dominates(std::span<const double> a, std::span<const double> b);

/// Indices of the non-dominated rows of `points`, in ascending order. Each
/// row is one candidate's objective vector of 1 to 3 components; every row
/// must have the same width. Identical rows all stay on the front when no
/// other row dominates them. O(n log n): a lexicographic sort and a
/// staircase sweep (the 3-D maxima algorithm of Kung, Luccio & Preparata,
/// JACM 1975); rows of width 1 or 2 are swept as if padded with zeros.
///
/// Throws std::invalid_argument on width 0, width above 3, ragged rows or a
/// NaN component (NaN has no place in the sort order). An empty `points`
/// has an empty front.
[[nodiscard]] std::vector<std::size_t> pareto_front(
    const std::vector<std::vector<double>>& points);

/// Exact hypervolume (Lebesgue measure) of the region dominated by `points`
/// and bounded by the reference point `ref`, all objectives minimized.
///
/// Points not strictly better than `ref` in every component contribute
/// nothing. Computed by recursive slicing along the last axis: exact in any
/// dimension, O(n^d)-ish — intended for the small fronts the GA produces
/// (used by `bench/island_scaling` to compare search quality across island
/// counts; dimensions beyond ~6 or fronts beyond a few hundred points will
/// be slow). Deterministic: equal inputs give bit-equal results, which is
/// what lets benches assert hypervolume ratios across island counts.
///
/// Throws std::invalid_argument on ragged rows or a width mismatch with
/// `ref`; an empty `points` has hypervolume 0.
[[nodiscard]] double hypervolume(const std::vector<std::vector<double>>& points,
                                 const std::vector<double>& ref);

}  // namespace mapcq::core

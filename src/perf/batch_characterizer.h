#pragma once
// Kept only because the frozen repository benchmark (perfbench/) still
// includes this header for its `simd` run-metadata field. It goes in the
// next benchmark change; the library has one characterization path.

namespace mapcq::perf {

/// Always false: no vectorized characterization path exists.
[[nodiscard]] constexpr bool simd_enabled() noexcept { return false; }

}  // namespace mapcq::perf

// Percentiles under the one reporting rule the benchmark applies: a median
// is always reported, a tail percentile only when at least kMinBeyond
// samples lie beyond it, so no p99 is ever read off a handful of samples.
// Every reported percentile carries its sample count.
#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <span>

#include "util/stats.h"

namespace bench {

inline constexpr std::size_t kMinBeyond = 10;

// Samples that lie above the q-quantile position of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const double at = std::ceil(q * static_cast<double>(n) - 1e-9);
  return n - static_cast<std::size_t>(at);
}

// Fewest samples for which the q-percentile is reportable.
inline std::size_t min_samples(double q) {
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(kMinBeyond) / (1.0 - q) - 1e-9));
}

// Median; 0 for an empty sample (callers report the count beside it).
inline double median(std::span<const double> xs) {
  return xs.empty() ? 0.0 : bds::util::percentile(xs, 0.5);
}

// The q-percentile, or nullopt when fewer than kMinBeyond samples lie
// beyond it.
inline std::optional<double> tail_percentile(std::span<const double> xs,
                                             double q) {
  if (samples_beyond(xs.size(), q) < kMinBeyond) return std::nullopt;
  return bds::util::percentile(xs, q);
}

}  // namespace bench

// Summary statistics with the benchmark's reporting rule: a percentile is
// reported only when at least kMinTail samples lie beyond it, so no tail
// figure ever rests on a handful of samples.

#ifndef SVCBENCH_STATS_H_
#define SVCBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace svcbench {

inline constexpr size_t kMinTail = 10;

/// \brief Nearest-rank percentile `q` (0 < q < 1) of `samples`, or
/// nullopt when fewer than kMinTail samples rank above it.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// \brief Median over `windows` of each window's percentile `q`, or
/// nullopt when any window lacks kMinTail samples beyond it. A burst of
/// host interference that covers a minority of the windows leaves the
/// result unchanged, where it would shift a percentile of the pooled
/// samples.
std::optional<double> WindowedPercentile(
    const std::vector<std::vector<double>>& windows, double q);

/// \brief Median of `samples` (midpoint of the two middle values when
/// the count is even); 0 for an empty vector.
double Median(std::vector<double> samples);

}  // namespace svcbench

#endif  // SVCBENCH_STATS_H_

#include "stats.h"

#include <algorithm>
#include <cmath>

namespace svcbench {

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // Rank (1-based) of the nearest-rank percentile.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinTail) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<double> WindowedPercentile(
    const std::vector<std::vector<double>>& windows, double q) {
  if (windows.empty()) return std::nullopt;
  std::vector<double> per_window;
  for (const std::vector<double>& window : windows) {
    std::optional<double> p = Percentile(window, q);
    if (!p) return std::nullopt;
    per_window.push_back(*p);
  }
  return Median(std::move(per_window));
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

}  // namespace svcbench

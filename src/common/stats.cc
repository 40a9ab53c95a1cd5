#include "common/stats.h"

#include <algorithm>

namespace sdw {

double Stats::Sum() const {
  double s = 0;
  for (double v : samples_) s += v;
  return s;
}

double Stats::Mean() const {
  if (samples_.empty()) return 0;
  return Sum() / static_cast<double>(samples_.size());
}

double Stats::Stddev() const {
  if (samples_.size() < 2) return 0;
  const double m = Mean();
  double acc = 0;
  for (double v : samples_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Stats::Min() const {
  if (samples_.empty()) return 0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double Stats::Max() const {
  if (samples_.empty()) return 0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Stats::Percentile(double p) const {
  if (samples_.empty()) return 0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  size_t rank = static_cast<size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

}  // namespace sdw

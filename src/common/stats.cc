#include "common/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace shmcaffe::common {

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double total = 0.0;
  for (double s : samples_) total += s;
  return total / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double m2 = 0.0;
  for (double s : samples_) m2 += (s - m) * (s - m);
  return std::sqrt(m2 / static_cast<double>(samples_.size() - 1));
}

void SampleSet::ensure_sorted() {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::quantile(double q) {
  assert(!samples_.empty());
  assert(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

}  // namespace shmcaffe::common

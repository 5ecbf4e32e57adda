// A small statistics helper used by benches and tests: a sample
// accumulator with exact percentiles.
#pragma once

#include <cstddef>
#include <vector>

namespace shmcaffe::common {

/// Stores samples; supports exact order statistics.  Quantile uses linear
/// interpolation between closest ranks (same convention as numpy's default).
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;
  /// q in [0,1]; requires at least one sample.
  [[nodiscard]] double quantile(double q);
  [[nodiscard]] double median() { return quantile(0.5); }

 private:
  void ensure_sorted();
  std::vector<double> samples_;
  bool sorted_ = true;
};

}  // namespace shmcaffe::common

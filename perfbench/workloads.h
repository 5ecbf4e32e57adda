// The benchmark's workloads: four configurations of the functional
// core::train_shmcaffe, each generated from a seed.  The program sees only
// the DistTrainOptions built here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::string why;
  int workers = 1;
  int group_size = 1;  ///< 1 = ShmCaffe-A (SEASGD); >1 = ShmCaffe-H groups
  std::string model;
  int side = 24;       ///< input is side x side, one channel
  double noise = 0.3;  ///< dataset noise stddev: higher = lower attainable accuracy
  std::size_t train_samples = 2048;
  int epochs = 1;      ///< sample budget = train_samples * epochs
  double base_lr = 0.01;
  /// A run whose final test accuracy falls below this fails (set from the
  /// seed runs, well under their minimum).
  double accuracy_floor = 0.5;
  /// Traced replay: steady-state steps per worker, and evaluate() repeats.
  int replay_iterations = 100;
  int eval_repeats = 5;

  [[nodiscard]] bool hybrid() const { return group_size > 1; }
  /// Options for one run of this workload under `seed`.  The dataset,
  /// initialisation and shuffle seeds all derive from it.
  [[nodiscard]] shmcaffe::core::DistTrainOptions options(std::uint64_t seed) const;
  /// Per-worker iteration target the trainer derives from the options.
  [[nodiscard]] std::int64_t target_iterations_per_worker() const;
};

inline constexpr int kBatch = 16;
/// A seed no figure was tuned on: re-check a claimed gain with it.
inline constexpr std::uint64_t kHeldOutSeed = 7919;

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

}  // namespace perfbench

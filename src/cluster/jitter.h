// Per-iteration GPU computation-time jitter.
//
// The paper (§III-E): "deviations in computation time between deep learning
// workers will occur ... because workers share the system bus, file system
// I/O, and network bandwidth."  These deviations are what make synchronous
// SGD pay max-over-workers per iteration while SEASGD pays only the mean —
// the core of the paper's speed story — so the timing simulation samples
// them explicitly.
//
// Model: with probability `slow_probability` an iteration suffers a
// transient slowdown uniform in [slow_min, slow_max] (fractions of the base
// time).  The multiplier is mean-centred so the *average* iteration time
// equals the profiled compute time (the profiles were measured as means).
#pragma once

#include <algorithm>

#include "common/rng.h"
#include "common/units.h"

namespace shmcaffe::cluster {

struct ComputeJitter {
  double slow_probability = 0.25;
  double slow_min = 0.3;
  double slow_max = 1.5;

  [[nodiscard]] double mean_extra() const {
    return slow_probability * 0.5 * (slow_min + slow_max);
  }

  /// A multiplicative factor with mean 1.0.
  [[nodiscard]] double sample_multiplier(common::Rng& rng) const {
    double extra = 0.0;
    if (rng.chance(slow_probability)) extra = rng.uniform(slow_min, slow_max);
    return std::max(0.5, 1.0 + extra - mean_extra());
  }

  [[nodiscard]] SimTime sample(common::Rng& rng, SimTime base) const {
    return static_cast<SimTime>(static_cast<double>(base) * sample_multiplier(rng));
  }
};

/// Static per-worker heterogeneity, as opposed to ComputeJitter's transient
/// per-iteration noise: a deterministic fraction of the workers are simply
/// *slower machines* (older GPUs, oversubscribed hosts, throttled NICs) for
/// the whole run.  This is the straggler population the elastic layer's
/// quarantine policy is sized against — the membership-robustness sweeps
/// (EXPERIMENTS.md "elastic scale-out") dial slow_fraction and the
/// multipliers while watching staleness violations.  Selection is a pure
/// function of (seed, worker), so every platform model in a comparison
/// slows the *same* workers.
struct HeterogeneityProfile {
  double slow_fraction = 0.0;       ///< fraction of workers that are slow machines
  double compute_multiplier = 1.0;  ///< slow worker compute time is scaled by this
  double nic_multiplier = 1.0;      ///< slow worker NIC bandwidth is divided by this
  std::uint64_t seed = 0x4e7;

  [[nodiscard]] bool is_slow(int worker) const {
    if (slow_fraction <= 0.0) return false;
    if (slow_fraction >= 1.0) return true;
    common::Rng rng = common::Rng(seed).fork(static_cast<std::uint64_t>(worker) + 1);
    return rng.chance(slow_fraction);
  }

  /// Multiplier on a worker's base computation time (>= 1 slows it down).
  [[nodiscard]] double compute_scale(int worker) const {
    return is_slow(worker) ? std::max(1.0, compute_multiplier) : 1.0;
  }

  /// Divisor on a worker's NIC / stream bandwidth (>= 1 slows it down).
  [[nodiscard]] double nic_scale(int worker) const {
    return is_slow(worker) ? std::max(1.0, nic_multiplier) : 1.0;
  }
};

}  // namespace shmcaffe::cluster

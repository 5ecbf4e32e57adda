// Common result type of the timed platform models.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "fault/journal.h"

namespace shmcaffe::cluster {

/// Per-iteration timing breakdown averaged over workers and iterations,
/// plus the control outcomes (fault::ControlReport) the model executed,
/// comparable with the functional trainer's.
/// `comm` is the non-hidden communication time — everything in an iteration
/// that is not the worker's own minibatch computation (transfer time,
/// blocked-on-lock time, and synchronous waiting for peers), exactly how the
/// paper measures "communication time ... not overlapped with the
/// computation time" (§IV-E).
struct PlatformTiming : fault::ControlReport {
  SimTime mean_comp = 0;
  SimTime mean_comm = 0;
  [[nodiscard]] SimTime mean_iteration() const { return mean_comp + mean_comm; }
  /// Fraction of the iteration spent communicating.
  [[nodiscard]] double comm_ratio() const {
    const SimTime iter = mean_iteration();
    return iter > 0 ? static_cast<double>(mean_comm) / static_cast<double>(iter) : 0.0;
  }
  SimTime makespan = 0;          ///< whole simulated run
  std::int64_t iterations = 0;   ///< per worker (the configured target)
  /// Sum over workers of iterations actually completed — equals
  /// workers * iterations unless fault injection crashed somebody.
  std::int64_t completed_worker_iterations = 0;
  /// Workers removed mid-run by an injected fail-stop crash.
  int crashed_workers = 0;
  /// Simulated iterations observed running further behind the cohort
  /// maximum than the policy staleness bound (a heterogeneity health
  /// metric; see bench_ext_elastic).
  std::int64_t staleness_violations = 0;
  /// Mean injection-to-detection latency (next sharing block, or the final
  /// scrub for corruptions landing after the last exchange).
  SimTime detection_latency = 0;
  /// Total modelled repair cost charged into the makespan
  /// (IntegrityPolicy::sim_repair_seconds per rewritten copy).
  SimTime repair_time = 0;
};

}  // namespace shmcaffe::cluster

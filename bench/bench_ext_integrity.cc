// Extension: cost of end-to-end SMB data integrity.
//
// The integrity tentpole claims checksummed segments with replica
// read-repair turn silent corruption into a bounded, repairable event.
// This bench quantifies that claim on the simulated stack at a 32-worker
// scale, all from one corruption plan:
//
//   * fault_free      — integrity fully on, nothing injected: the scrub
//                       passes are the only integrity activity;
//   * unprotected     — corruptions land with checksums off: nothing is
//                       detected, the damage is silent (the baseline the
//                       paper's operator would actually be running);
//   * detect_only     — verify-on-read catches every marker but repair is
//                       disabled: detection latency without repair cost;
//   * detect_repair   — the full policy: every detection triggers a
//                       replica-vote rewrite, whose modelled cost lands on
//                       the makespan.
//
// Every row reports the run's makespan, aggregate throughput (completed
// worker-iterations per simulated second — the `"throughput"` key
// tools/check.sh fences at 20%), the integrity counters, the mean
// injection-to-detection latency, the total repair cost, and the fingerprint
// of the executed control-event journal.  A final sweep scales the per-copy repair cost to
// show the makespan charge is linear in it.  All quantities are simulated
// and seeded: two runs are byte-identical.  Pipe through
// `python3 -m json.tool` to pretty-print.
#include <cstdio>
#include <vector>

#include "common/units.h"
#include "core/sim_shmcaffe.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/journal.h"
#include "recovery/integrity.h"

namespace {

using namespace shmcaffe;
using units::to_seconds;

constexpr int kWorkers = 32;
constexpr std::int64_t kIterations = 80;
constexpr int kShards = 2;
constexpr int kReplicas = 2;

core::SimShmCaffeOptions base_options() {
  core::SimShmCaffeOptions options;
  options.workers = kWorkers;
  options.group_size = 1;
  options.iterations = kIterations;
  options.smb_servers = kShards;
  options.smb_replicas = kReplicas;
  return options;
}

recovery::IntegrityPolicy full_policy() {
  recovery::IntegrityPolicy policy;
  policy.verify_on_read = true;
  policy.read_repair = true;
  return policy;
}

// Six corruptions spread over the run and over all four physical replicas
// (shard s replica r = physical s * kReplicas + r), plus one torn write per
// shard primary with a low ordinal every run reaches.
fault::FaultPlan corruption_plan() {
  fault::FaultPlan plan;
  const struct { int target; double at; std::uint64_t marker; } hits[] = {
      {0, 0.4, 0x1001}, {1, 0.9, 0x1002}, {2, 1.3, 0x1003},
      {3, 1.8, 0x1004}, {0, 2.2, 0x1005}, {2, 2.6, 0x1006},
  };
  for (const auto& hit : hits) {
    fault::FaultEvent rot;
    rot.kind = fault::FaultKind::kSegmentCorruption;
    rot.target = hit.target;
    rot.start_seconds = hit.at;
    rot.sequence = hit.marker;
    rot.severity = 3.0;  // bit flips per poisoned chunk
    plan.add(rot);
  }
  for (int shard = 0; shard < kShards; ++shard) {
    fault::FaultEvent torn;
    torn.kind = fault::FaultKind::kTornWrite;
    torn.target = shard * kReplicas;
    torn.sequence = 2 + shard;  // write ordinal; the run makes far more
    torn.severity = 0.5;        // fraction of the write applied
    plan.add(torn);
  }
  return plan;
}

void emit(const char* name, const cluster::PlatformTiming& timing, bool last) {
  const double seconds = to_seconds(timing.makespan);
  const double throughput =
      seconds > 0.0 ? static_cast<double>(timing.completed_worker_iterations) / seconds
                    : 0.0;
  std::printf("    {\"name\": \"%s\", \"throughput\": %.6f,\n", name, throughput);
  std::printf("     \"makespan_seconds\": %.9f, \"completed_worker_iterations\": %lld,\n",
              seconds, static_cast<long long>(timing.completed_worker_iterations));
  std::printf("     \"corruptions_detected\": %lld, \"repairs\": %lld, "
              "\"scrub_passes\": %lld,\n",
              static_cast<long long>(timing.corruptions_detected),
              static_cast<long long>(timing.integrity_repairs),
              static_cast<long long>(timing.scrub_passes));
  std::printf("     \"detection_latency_seconds\": %.9f, "
              "\"repair_time_seconds\": %.9f,\n",
              to_seconds(timing.detection_latency), to_seconds(timing.repair_time));
  std::printf("     \"journal_fingerprint\": %llu}%s\n",
              static_cast<unsigned long long>(fault::journal_fingerprint(timing.journal)),
              last ? "" : ",");
}

}  // namespace

int main() {
  const fault::FaultPlan plan = corruption_plan();
  const fault::FaultInjector injector(plan);

  std::printf("{\n  \"bench\": \"ext_integrity\",\n");
  std::printf("  \"workers\": %d, \"iterations\": %lld, "
              "\"smb_servers\": %d, \"smb_replicas\": %d,\n",
              kWorkers, static_cast<long long>(kIterations), kShards, kReplicas);
  std::printf("  \"plan\": {\"segment_corruptions\": 6, \"torn_writes\": %d, "
              "\"fingerprint\": %llu},\n",
              kShards, static_cast<unsigned long long>(plan.fingerprint()));
  std::printf("  \"scenarios\": [\n");

  // --- fault-free: the integrity layer's standing cost ---------------------
  core::SimShmCaffeOptions clean = base_options();
  clean.integrity = full_policy();
  emit("integrity/fault_free", core::simulate_shmcaffe(clean), false);

  // --- unprotected: the same corruptions with checksums off ----------------
  core::SimShmCaffeOptions unprotected = base_options();
  unprotected.faults = &injector;
  emit("integrity/unprotected", core::simulate_shmcaffe(unprotected), false);

  // --- detect only: verification without repair ----------------------------
  core::SimShmCaffeOptions detect_only = base_options();
  detect_only.faults = &injector;
  detect_only.integrity = full_policy();
  detect_only.integrity.read_repair = false;
  emit("integrity/detect_only", core::simulate_shmcaffe(detect_only), false);

  // --- detect + repair: the full policy ------------------------------------
  core::SimShmCaffeOptions repaired = base_options();
  repaired.faults = &injector;
  repaired.integrity = full_policy();
  emit("integrity/detect_repair", core::simulate_shmcaffe(repaired), true);

  std::printf("  ],\n");

  // Sweep the modelled per-copy repair cost: the makespan charge should be
  // linear in it (repairs are fixed by the plan and the policy).
  std::printf("  \"repair_cost_sweep\": [\n");
  const std::vector<double> costs = {0.001, 0.005, 0.02};
  for (std::size_t i = 0; i < costs.size(); ++i) {
    core::SimShmCaffeOptions swept = base_options();
    swept.faults = &injector;
    swept.integrity = full_policy();
    swept.integrity.sim_repair_seconds = costs[i];
    const cluster::PlatformTiming timing = core::simulate_shmcaffe(swept);
    std::printf("    {\"repair_seconds_per_copy\": %.3f, \"repairs\": %lld, "
                "\"repair_time_seconds\": %.9f, \"makespan_seconds\": %.9f}%s\n",
                costs[i], static_cast<long long>(timing.integrity_repairs),
                to_seconds(timing.repair_time), to_seconds(timing.makespan),
                i + 1 < costs.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
  return 0;
}

// Extension: cost of elastic membership at scale.
//
// The elastic tentpole claims a SEASGD cohort can grow, shrink and shed
// stragglers without restarting the run.  This bench quantifies what each
// of those transitions costs on the simulated stack at a 96-worker scale
// the functional twin cannot reach:
//
//   * static_uniform      — the fixed-membership baseline;
//   * static_heterogeneous— the same cohort with planted 2.5x-slow machines
//                           (compute and NIC), no countermeasures: the
//                           staleness-violation count is the damage;
//   * join_burst          — 32 cold joins land mid-run (96 -> 128);
//   * drain_burst         — 24 voluntary drains leave mid-run (96 -> 72);
//   * straggler_storm     — 8 workers stall mid-run with quarantine +
//                           eviction enabled: the detector demotes them so
//                           the survivors stop paying for their staleness.
//
// Every row reports the run's makespan (epoch time), aggregate throughput
// (completed worker-iterations per simulated second — the `"throughput"`
// key tools/check.sh fences at 20%), the membership counters, the
// staleness-bound-violation count, and the fingerprint of the executed
// control-event journal.
// All quantities are simulated and seeded: two runs are byte-identical.
// Pipe through `python3 -m json.tool` to pretty-print.
#include <cstdio>
#include <vector>

#include "common/units.h"
#include "core/sim_shmcaffe.h"
#include "elastic/membership.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/journal.h"

namespace {

using namespace shmcaffe;
using units::to_seconds;

constexpr int kWorkers = 96;
constexpr std::int64_t kIterations = 80;

core::SimShmCaffeOptions base_options() {
  core::SimShmCaffeOptions options;
  options.workers = kWorkers;
  options.group_size = 1;
  options.iterations = kIterations;
  options.smb_servers = 4;
  return options;
}

cluster::HeterogeneityProfile skewed_profile() {
  cluster::HeterogeneityProfile profile;
  profile.slow_fraction = 0.2;
  profile.compute_multiplier = 2.5;
  profile.nic_multiplier = 2.0;
  return profile;
}

void emit(const char* name, const cluster::PlatformTiming& timing, bool last) {
  const double seconds = to_seconds(timing.makespan);
  const double throughput =
      seconds > 0.0 ? static_cast<double>(timing.completed_worker_iterations) / seconds
                    : 0.0;
  std::printf("    {\"name\": \"%s\", \"throughput\": %.6f,\n", name, throughput);
  std::printf("     \"makespan_seconds\": %.9f, \"completed_worker_iterations\": %lld,\n",
              seconds, static_cast<long long>(timing.completed_worker_iterations));
  std::printf("     \"joined\": %zu, \"drained\": %zu, \"rebalances\": %lld,\n",
              timing.joined_workers.size(), timing.drained_workers.size(),
              static_cast<long long>(timing.rebalances));
  std::printf("     \"quarantine_events\": %lld, \"staleness_violations\": %lld,\n",
              static_cast<long long>(timing.quarantine_events),
              static_cast<long long>(timing.staleness_violations));
  std::printf("     \"journal_fingerprint\": %llu}%s\n",
              static_cast<unsigned long long>(fault::journal_fingerprint(timing.journal)),
              last ? "" : ",");
}

}  // namespace

int main() {
  // Staleness accounting needs the elastic bookkeeping on; a huge planning
  // bound keeps injected-stall chains out of the scenarios that only want
  // the violation counts.
  elastic::MembershipPolicy audit_policy;
  audit_policy.straggler_detection = true;
  audit_policy.staleness_bound_iterations = 10.0;
  audit_policy.quarantine_stall_seconds = 1e9;

  std::printf("{\n  \"bench\": \"ext_elastic\",\n");
  std::printf("  \"workers\": %d, \"iterations\": %lld, \"smb_servers\": 4,\n",
              kWorkers, static_cast<long long>(kIterations));
  std::printf("  \"scenarios\": [\n");

  // --- static baselines --------------------------------------------------
  core::SimShmCaffeOptions uniform = base_options();
  uniform.membership_policy = audit_policy;
  emit("elastic/static_uniform", core::simulate_shmcaffe(uniform), false);

  core::SimShmCaffeOptions skewed = uniform;
  skewed.heterogeneity = skewed_profile();
  emit("elastic/static_heterogeneous", core::simulate_shmcaffe(skewed), false);

  // --- join burst: 96 -> 128 mid-run --------------------------------------
  elastic::MembershipPlan joins;
  for (int w = 0; w < 32; ++w) {
    joins.add({elastic::MembershipEventKind::kJoin, kWorkers + w,
               10 + (w % 4) * 5});
  }
  core::SimShmCaffeOptions join_burst = base_options();
  join_burst.membership = &joins;
  join_burst.membership_policy = audit_policy;
  emit("elastic/join_burst", core::simulate_shmcaffe(join_burst), false);

  // --- drain burst: 96 -> 72 mid-run ---------------------------------------
  elastic::MembershipPlan drains;
  for (int w = 0; w < 24; ++w) {
    drains.add({elastic::MembershipEventKind::kDrain, 4 * w, 20 + (w % 3) * 10});
  }
  core::SimShmCaffeOptions drain_burst = base_options();
  drain_burst.membership = &drains;
  drain_burst.membership_policy = audit_policy;
  emit("elastic/drain_burst", core::simulate_shmcaffe(drain_burst), false);

  // --- straggler storm: 8 stalls, quarantine + eviction on -----------------
  fault::FaultPlan storm;
  for (int i = 0; i < 8; ++i) {
    fault::FaultEvent stall;
    stall.kind = fault::FaultKind::kWorkerStall;
    stall.target = 12 * i;
    stall.iteration = 10 + i;
    stall.duration_seconds = 0.5;
    storm.add(stall);
  }
  const fault::FaultInjector injector(storm);
  core::SimShmCaffeOptions stormy = base_options();
  stormy.faults = &injector;
  stormy.membership_policy = audit_policy;
  stormy.membership_policy.quarantine_stall_seconds = 0.35;
  stormy.membership_policy.evict_after_violations = 3;
  emit("elastic/straggler_storm", core::simulate_shmcaffe(stormy), true);

  std::printf("  ]\n}\n");
  return 0;
}

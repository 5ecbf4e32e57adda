// Extension: cost and fidelity of the recovery layer.
//
// Two questions the recovery tentpole raises, quantified:
//   1. What does recovering cost?  The simulated stack runs the same fault
//      plan (primary SMB fail-stop + one worker crash) with recovery on,
//      against a fault-free twin: the makespan delta is the recovery
//      latency (failover pause + re-admission delay), swept over the
//      failover detection time.
//   2. What does recovering lose?  The functional stack trains to
//      completion, then replays the same run killed mid-way and resumed
//      from its latest crash-consistent checkpoint: the accuracy delta is
//      exactly the fidelity of the checkpoint (0 when the snapshot captures
//      the full training state — the single-worker path is deterministic).
//
// Output is one JSON document of simulated and deterministic-functional
// quantities only, so two runs with the same seed are byte-identical.
// Pipe through `python3 -m json.tool` to pretty-print.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "common/units.h"
#include "core/config.h"
#include "core/sim_shmcaffe.h"
#include "core/trainer.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/journal.h"

namespace {

using namespace shmcaffe;
using units::to_seconds;

constexpr int kWorkers = 4;
constexpr std::int64_t kIterations = 100;

fault::FaultPlan recovery_plan() {
  fault::FaultPlan plan;
  fault::FaultEvent fail_primary;
  fail_primary.kind = fault::FaultKind::kServerFailStop;
  fail_primary.target = 0;  // shard 0, replica 0: the active primary
  fail_primary.start_seconds = 1.0;
  plan.add(fail_primary);
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kWorkerCrash;
  crash.target = 2;
  crash.iteration = 20;
  plan.add(crash);
  return plan;
}

core::SimShmCaffeOptions sim_options() {
  core::SimShmCaffeOptions options;
  options.workers = kWorkers;
  options.group_size = 1;
  options.iterations = kIterations;
  options.smb_replicas = 2;
  options.recovery.respawn_crashed = true;
  return options;
}

core::DistTrainOptions functional_options(const std::string& checkpoint_dir) {
  core::DistTrainOptions options;
  options.model_family = "mlp";
  options.workers = 1;
  options.group_size = 1;
  options.input = dl::ModelInputSpec{1, 12, 12, 6};
  options.train_data.channels = 1;
  options.train_data.height = 12;
  options.train_data.width = 12;
  options.train_data.classes = 6;
  options.train_data.size = 1024;
  options.train_data.noise_stddev = 0.25;
  options.test_data = options.train_data;
  options.test_data.size = 384;
  options.test_data.seed = 0x7e57;
  options.batch_size = 16;
  options.epochs = 3;
  options.checkpoint.directory = checkpoint_dir;
  options.checkpoint.interval_iterations = 20;
  return options;
}

}  // namespace

int main() {
  const fault::FaultPlan plan = recovery_plan();
  const fault::FaultInjector injector(plan);

  // --- simulated: recovery latency -------------------------------------
  const core::SimShmCaffeOptions clean_opts = sim_options();
  const cluster::PlatformTiming clean = core::simulate_shmcaffe(clean_opts);
  core::SimShmCaffeOptions faulted_opts = sim_options();
  faulted_opts.faults = &injector;
  const cluster::PlatformTiming recovered = core::simulate_shmcaffe(faulted_opts);

  std::printf("{\n  \"bench\": \"ext_recovery\",\n");
  std::printf("  \"plan\": {\"server_fail_stops\": 1, \"worker_crashes\": 1, "
              "\"fingerprint\": %llu},\n",
              static_cast<unsigned long long>(plan.fingerprint()));
  std::printf("  \"simulated\": {\n");
  std::printf("    \"workers\": %d, \"iterations\": %lld, \"smb_replicas\": 2,\n",
              kWorkers, static_cast<long long>(kIterations));
  std::printf("    \"fault_free_makespan_seconds\": %.9f,\n", to_seconds(clean.makespan));
  std::printf("    \"recovered_makespan_seconds\": %.9f,\n",
              to_seconds(recovered.makespan));
  std::printf("    \"recovery_latency_seconds\": %.9f,\n",
              to_seconds(recovered.makespan - clean.makespan));
  std::printf("    \"smb_failovers\": %lld, \"recovered_workers\": %zu,\n",
              static_cast<long long>(recovered.smb_failovers),
              recovered.recovered_workers.size());
  std::printf("    \"completed_worker_iterations\": %lld,\n",
              static_cast<long long>(recovered.completed_worker_iterations));
  std::printf("    \"journal_fingerprint\": %llu,\n",
              static_cast<unsigned long long>(fault::journal_fingerprint(recovered.journal)));

  // Sweep the modelled failure-detection latency: recovery cost scales with
  // how long the ensemble takes to notice the dead primary.
  std::printf("    \"failover_latency_sweep\": [\n");
  const std::vector<double> detection = {0.05, 0.25, 1.0};
  for (std::size_t i = 0; i < detection.size(); ++i) {
    core::SimShmCaffeOptions swept = sim_options();
    swept.faults = &injector;
    swept.recovery.failover_seconds = detection[i];
    const cluster::PlatformTiming timing = core::simulate_shmcaffe(swept);
    std::printf("      {\"failover_seconds\": %.2f, \"makespan_seconds\": %.9f, "
                "\"latency_seconds\": %.9f}%s\n",
                detection[i], to_seconds(timing.makespan),
                to_seconds(timing.makespan - clean.makespan),
                i + 1 < detection.size() ? "," : "");
  }
  std::printf("    ]\n  },\n");

  // --- functional: checkpoint-resume accuracy delta --------------------
  // Per-process scratch directory: concurrent invocations (e.g. the
  // determinism check `diff <(run) <(run)`) must not share checkpoints.
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("shmcaffe_bench_ext_recovery." + std::to_string(::getpid()));
  std::error_code scrub;
  fs::remove_all(root, scrub);
  fs::create_directories(root / "reference");
  fs::create_directories(root / "resumed");

  const core::TrainResult uninterrupted =
      core::train_shmcaffe(functional_options((root / "reference").string()));

  fault::FaultPlan kill;
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kWorkerCrash;
  crash.target = 0;
  crash.iteration = 50;
  kill.add(crash);
  const fault::FaultInjector kill_injector(kill);
  core::DistTrainOptions interrupted = functional_options((root / "resumed").string());
  interrupted.faults = &kill_injector;
  (void)core::train_shmcaffe(interrupted);

  core::DistTrainOptions resume = functional_options((root / "resumed").string());
  resume.checkpoint.resume = true;
  const core::TrainResult resumed = core::train_shmcaffe(resume);
  fs::remove_all(root, scrub);

  std::printf("  \"functional\": {\n");
  std::printf("    \"workers\": 1, \"kill_iteration\": 50, "
              "\"checkpoint_interval\": 20,\n");
  std::printf("    \"uninterrupted_accuracy\": %.9f,\n", uninterrupted.final_accuracy);
  std::printf("    \"resumed_accuracy\": %.9f,\n", resumed.final_accuracy);
  std::printf("    \"accuracy_delta\": %.9f,\n",
              resumed.final_accuracy - uninterrupted.final_accuracy);
  std::printf("    \"uninterrupted_loss\": %.9f,\n", uninterrupted.final_loss);
  std::printf("    \"resumed_loss\": %.9f,\n", resumed.final_loss);
  std::printf("    \"resumed_iterations\": %lld,\n",
              static_cast<long long>(resumed.resumed_iterations));
  std::printf("    \"checkpoints_taken\": %lld\n",
              static_cast<long long>(uninterrupted.checkpoints_taken));
  std::printf("  }\n}\n");
  return 0;
}

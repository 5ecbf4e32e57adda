// Tests for the fault-injection subsystem and graceful degradation:
// deterministic plan generation, the injector query API, the SMB deadline /
// error-reporting hardening, fabric capacity windows and datagram
// drops, and the functional trainer surviving a mid-run worker crash under
// every termination criterion.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/sim_platforms.h"
#include "common/ordered_mutex.h"
#include "core/config.h"
#include "core/sim_shmcaffe.h"
#include "core/trainer.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "core/progress_board.h"
#include "net/fabric.h"
#include "recovery/replicated_smb.h"
#include "sim/simulation.h"
#include "smb/server.h"

namespace shmcaffe {
namespace {

using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultPlanSpec;

FaultPlanSpec busy_spec(std::uint64_t seed) {
  FaultPlanSpec spec;
  spec.seed = seed;
  spec.workers = 8;
  spec.horizon_iterations = 50;
  spec.horizon_seconds = 5.0;
  spec.crash_probability = 0.5;
  spec.stall_probability = 0.5;
  spec.mean_stall_seconds = 0.2;
  spec.servers = 2;
  spec.freeze_probability = 0.5;
  spec.mean_freeze_seconds = 0.3;
  spec.links = 4;
  spec.link_flap_probability = 0.5;
  spec.mean_flap_seconds = 0.1;
  spec.datagram_count = 1000;
  spec.datagram_drop_rate = 0.05;
  return spec;
}

// --- plan determinism (satellite 3a) ---

TEST(FaultPlan, SameSeedSameSpecIsBitIdentical) {
  const FaultPlanSpec spec = busy_spec(0x5eed);
  const FaultPlan a = FaultPlan::generate(spec);
  const FaultPlan b = FaultPlan::generate(spec);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  // Bit-identical event sequence, element by element.
  EXPECT_EQ(a.events(), b.events());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(FaultPlan, DifferentSeedDiverges) {
  const FaultPlan a = FaultPlan::generate(busy_spec(1));
  const FaultPlan b = FaultPlan::generate(busy_spec(2));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(FaultPlan, FingerprintIsOrderSensitive) {
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 1;
  crash.iteration = 5;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 2;
  stall.iteration = 3;
  stall.duration_seconds = 0.5;
  FaultPlan ab;
  ab.add(crash);
  ab.add(stall);
  FaultPlan ba;
  ba.add(stall);
  ba.add(crash);
  EXPECT_NE(ab.fingerprint(), ba.fingerprint());
}

TEST(FaultPlan, DescribeMentionsEveryEvent) {
  const FaultPlan plan = FaultPlan::generate(busy_spec(0xd00d));
  const std::string text = plan.describe();
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
            plan.size());
}

/// One event of every FaultKind, in enum order.  Extending the enum without
/// extending this list fails the exhaustiveness checks below.
std::vector<FaultEvent> one_of_every_kind() {
  std::vector<FaultEvent> events;
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 0;
  crash.iteration = 1;
  events.push_back(crash);
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 1;
  stall.iteration = 2;
  stall.duration_seconds = 0.5;
  events.push_back(stall);
  FaultEvent freeze;
  freeze.kind = FaultKind::kServerFreeze;
  freeze.target = 0;
  freeze.start_seconds = 0.1;
  freeze.duration_seconds = 0.2;
  events.push_back(freeze);
  FaultEvent fail_stop;
  fail_stop.kind = FaultKind::kServerFailStop;
  fail_stop.target = 1;
  fail_stop.start_seconds = 0.3;
  events.push_back(fail_stop);
  FaultEvent degrade;
  degrade.kind = FaultKind::kLinkDegrade;
  degrade.target = 2;
  degrade.start_seconds = 0.4;
  degrade.duration_seconds = 0.1;
  degrade.severity = 0.25;
  events.push_back(degrade);
  FaultEvent down;
  down.kind = FaultKind::kLinkDown;
  down.target = 3;
  down.start_seconds = 0.5;
  down.duration_seconds = 0.1;
  events.push_back(down);
  FaultEvent drop;
  drop.kind = FaultKind::kDatagramDrop;
  drop.sequence = 42;
  events.push_back(drop);
  FaultEvent corrupt;
  corrupt.kind = FaultKind::kSegmentCorruption;
  corrupt.target = 0;
  corrupt.start_seconds = 0.6;
  corrupt.severity = 3;
  corrupt.sequence = 0x5eed;
  events.push_back(corrupt);
  FaultEvent torn;
  torn.kind = FaultKind::kTornWrite;
  torn.target = 1;
  torn.sequence = 7;
  torn.severity = 0.5;
  events.push_back(torn);
  return events;
}

TEST(FaultKindNames, EveryKindHasADistinctNonEmptyName) {
  std::vector<std::string> names;
  for (const FaultEvent& event : one_of_every_kind()) {
    names.emplace_back(fault::to_string(event.kind));
    EXPECT_FALSE(names.back().empty());
  }
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "two FaultKinds share a to_string name";
}

TEST(FaultPlan, RoundTripsAndDescribesEveryKind) {
  const std::vector<FaultEvent> events = one_of_every_kind();
  const FaultPlan plan(events);
  // The plan is a faithful ordered container: events round-trip verbatim.
  EXPECT_EQ(plan.events(), events);
  EXPECT_EQ(FaultPlan(plan.events()).fingerprint(), plan.fingerprint());

  // describe() renders one line per event and names each event's kind.
  const std::string text = plan.describe();
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')),
            events.size());
  for (const FaultEvent& event : events) {
    EXPECT_NE(text.find(fault::to_string(event.kind)), std::string::npos)
        << fault::to_string(event.kind) << " missing from describe()";
  }
}

TEST(FaultPlan, GeneratorEmitsIntegrityFaultsWithValidMarkers) {
  FaultPlanSpec spec;
  spec.seed = 0x1de7;
  spec.servers = 4;
  spec.corruption_probability = 1.0;
  spec.corruption_bit_flips = 5;
  spec.torn_write_probability = 1.0;
  spec.writes_per_server = 100;
  spec.torn_write_fraction = 0.25;
  const FaultPlan plan = FaultPlan::generate(spec);

  int corruptions = 0;
  int torn = 0;
  for (const FaultEvent& event : plan.events()) {
    if (event.kind == FaultKind::kSegmentCorruption) {
      ++corruptions;
      EXPECT_NE(event.sequence, 0u);                     // nonzero marker
      EXPECT_EQ(event.sequence >> 63, 0u);               // high bit clear
      EXPECT_DOUBLE_EQ(event.severity, 5.0);
      EXPECT_GE(event.start_seconds, 0.0);
      EXPECT_LT(event.start_seconds, spec.horizon_seconds);
    } else if (event.kind == FaultKind::kTornWrite) {
      ++torn;
      EXPECT_GE(event.sequence, 1u);                     // 1-based ordinal
      EXPECT_LE(event.sequence, spec.writes_per_server);
      EXPECT_DOUBLE_EQ(event.severity, 0.25);
    }
  }
  EXPECT_EQ(corruptions, spec.servers);
  EXPECT_EQ(torn, spec.servers);
  // Determinism: the same spec regenerates the identical plan.
  EXPECT_EQ(FaultPlan::generate(spec).fingerprint(), plan.fingerprint());
}

// --- injector queries ---

TEST(FaultInjector, IndexesWorkerAndWindowEvents) {
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 1;
  crash.iteration = 7;
  plan.add(crash);
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 0;
  stall.iteration = 3;
  stall.duration_seconds = 0.25;
  plan.add(stall);
  FaultEvent flap;
  flap.kind = FaultKind::kLinkDown;
  flap.target = 2;
  flap.start_seconds = 1.0;
  flap.duration_seconds = 0.5;
  plan.add(flap);
  FaultEvent drop;
  drop.kind = FaultKind::kDatagramDrop;
  drop.sequence = 42;
  plan.add(drop);

  const FaultInjector injector(plan);
  EXPECT_EQ(injector.crash_iteration(1), 7);
  EXPECT_EQ(injector.crash_iteration(0), -1);
  EXPECT_FALSE(injector.crashes_at(1, 6));
  EXPECT_TRUE(injector.crashes_at(1, 7));
  EXPECT_TRUE(injector.crashes_at(1, 8));
  EXPECT_DOUBLE_EQ(injector.stall_seconds(0, 3), 0.25);
  EXPECT_DOUBLE_EQ(injector.stall_seconds(0, 4), 0.0);
  ASSERT_EQ(injector.link_windows(2).size(), 1u);
  EXPECT_TRUE(injector.link_windows(3).empty());
  EXPECT_TRUE(injector.drops_datagram(42));
  EXPECT_FALSE(injector.drops_datagram(41));
  EXPECT_EQ(injector.dropped_sequences(), std::vector<std::uint64_t>{42});
}

// --- SMB deadline wait (satellite 3c) ---

TEST(SmbDeadline, TimedWaitExpiresWithinTolerance) {
  smb::SmbServer server;
  const smb::Handle g = server.create_floats(1, 4);
  const auto start = std::chrono::steady_clock::now();
  const std::optional<std::uint64_t> seen =
      server.wait_version_at_least(g, 5, std::chrono::milliseconds(50));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(seen.has_value());
  EXPECT_GE(elapsed, std::chrono::milliseconds(50));
  // Generous upper bound: scheduling noise on a loaded single-core box.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  server.release(g);
}

TEST(SmbDeadline, TimedWaitReturnsVersionWhenNotified) {
  smb::SmbServer server;
  const smb::Handle g = server.create_floats(1, 4);
  std::optional<std::uint64_t> seen;
  std::thread waiter(
      [&] { seen = server.wait_version_at_least(g, 1, std::chrono::seconds(30)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.write(g, std::vector<float>{1, 2, 3, 4});
  waiter.join();
  ASSERT_TRUE(seen.has_value());
  EXPECT_GE(*seen, 1u);
  server.release(g);
}

// --- SMB error reporting (satellite 2) ---

TEST(SmbErrors, DoubleReleaseThrowsClearError) {
  smb::SmbServer server;
  const smb::Handle g = server.create_floats(7, 4);
  server.release(g);
  try {
    server.release(g);
    FAIL() << "double release must throw";
  } catch (const smb::SmbError& e) {
    EXPECT_NE(std::string(e.what()).find("release"), std::string::npos);
  }
}

TEST(SmbErrors, KindMismatchNamesTheKey) {
  smb::SmbServer server;
  const smb::Handle g = server.create_floats(123, 4);
  try {
    (void)server.attach_counters(123);
    FAIL() << "kind mismatch must throw";
  } catch (const smb::SmbError& e) {
    EXPECT_NE(std::string(e.what()).find("123"), std::string::npos);
  }
  server.release(g);
}

TEST(SmbErrors, MissingKeyThrowsNotFound) {
  smb::SmbServer server;
  EXPECT_THROW((void)server.attach_floats(999), smb::SmbNotFound);
}

// --- SMB server freeze window ---

TEST(SmbFreeze, DataPathBlocksUntilFreezeLifts) {
  smb::SmbServer server;
  const smb::Handle g = server.create_floats(1, 4);
  server.freeze_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(server.frozen());
  const auto start = std::chrono::steady_clock::now();
  server.write(g, std::vector<float>{1, 2, 3, 4});
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(40));
  EXPECT_FALSE(server.frozen());
  server.release(g);
}

// --- fabric capacity windows + datagram drops (tentpole, simulated side) ---

/// Awaits one transfer and records the sim time it completed at (the window
/// coroutines keep the simulation alive past the transfer, so `sim.now()`
/// after run() is not the completion time).
sim::Task<void> timed_transfer(sim::Simulation& sim, net::Fabric& fabric,
                               net::LinkId link, std::int64_t bytes, SimTime& done_at) {
  co_await fabric.transfer(link, bytes);
  done_at = sim.now();
}

TEST(FabricFaults, DownWindowStallsAndResumesFlows) {
  sim::Simulation sim;
  net::FabricOptions opts;
  opts.efficiency = 1.0;
  opts.message_latency = 0;
  net::Fabric fabric(sim, opts);
  const net::LinkId link = fabric.add_link("l", 1000.0);  // 1000 B/s
  // 1000 bytes = 1 s of transfer; a 0.5 s outage window starting at 0.25 s
  // pushes completion to exactly 1.5 s.
  fabric.schedule_capacity_window(link, units::from_seconds(0.25),
                                  units::from_seconds(0.5), 0.0);
  SimTime done_at = 0;
  sim.spawn(timed_transfer(sim, fabric, link, 1000, done_at));
  sim.run();
  EXPECT_NEAR(units::to_seconds(done_at), 1.5, 1e-6);
}

TEST(FabricFaults, DegradeWindowSlowsFlows) {
  sim::Simulation sim;
  net::FabricOptions opts;
  opts.efficiency = 1.0;
  opts.message_latency = 0;
  net::Fabric fabric(sim, opts);
  const net::LinkId link = fabric.add_link("l", 1000.0);
  // Half rate for the entire transfer: 1000 bytes take 2 s.
  fabric.schedule_capacity_window(link, 0, units::from_seconds(10.0), 0.5);
  SimTime done_at = 0;
  sim.spawn(timed_transfer(sim, fabric, link, 1000, done_at));
  sim.run();
  EXPECT_NEAR(units::to_seconds(done_at), 2.0, 1e-6);
}

TEST(FabricFaults, DroppedTransferPaysRetransmit) {
  sim::Simulation sim;
  net::FabricOptions opts;
  opts.efficiency = 1.0;
  opts.message_latency = units::kMillisecond;
  net::Fabric fabric(sim, opts);
  const net::LinkId link = fabric.add_link("l", 1000.0);
  fabric.set_dropped_transfers({0});
  SimTime done_at = 0;
  sim.spawn(timed_transfer(sim, fabric, link, 500, done_at));  // seq 0: dropped once
  sim.run();
  // Two attempts: 2 * (1 ms latency + 0.5 s payload).
  EXPECT_NEAR(units::to_seconds(done_at), 2 * (0.001 + 0.5), 1e-6);
  EXPECT_EQ(fabric.stats(link).transfers, 2);
  EXPECT_EQ(fabric.transfer_count(), 1u);
}

// --- simulated stacks under a shared plan ---

TEST(SimFaults, ShmCaffeSurvivesCrashSyncBaselineTruncates) {
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 2;
  crash.iteration = 10;
  plan.add(crash);
  const FaultInjector injector(plan);

  core::SimShmCaffeOptions async_opts;
  async_opts.workers = 4;
  async_opts.group_size = 1;
  async_opts.iterations = 40;
  async_opts.faults = &injector;
  const cluster::PlatformTiming async = core::simulate_shmcaffe(async_opts);
  // Survivors complete the full 40; the crashed worker contributes 10.
  EXPECT_EQ(async.completed_worker_iterations, 3 * 40 + 10);
  EXPECT_EQ(async.crashed_workers, 1);
  EXPECT_GT(async.makespan, 0);

  baselines::SimPlatformOptions sync_opts;
  sync_opts.workers = 4;
  sync_opts.iterations = 40;
  sync_opts.faults = &injector;
  const cluster::PlatformTiming sync = baselines::simulate_caffe(sync_opts);
  // The synchronous platform halts at the crash: nobody passes iteration 10.
  EXPECT_EQ(sync.completed_worker_iterations, 4 * 10);
  EXPECT_EQ(sync.crashed_workers, 1);
}

TEST(SimFaults, StallChargesOnlyTheAsyncStragglerButAllSyncWorkers) {
  FaultPlan plan;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 1;
  stall.iteration = 5;
  stall.duration_seconds = 2.0;
  plan.add(stall);
  const FaultInjector injector(plan);

  core::SimShmCaffeOptions a;
  a.workers = 4;
  a.group_size = 1;
  a.iterations = 20;
  const cluster::PlatformTiming clean = core::simulate_shmcaffe(a);
  a.faults = &injector;
  const cluster::PlatformTiming stalled = core::simulate_shmcaffe(a);

  baselines::SimPlatformOptions s;
  s.workers = 4;
  s.iterations = 20;
  const cluster::PlatformTiming sync_clean = baselines::simulate_caffe(s);
  s.faults = &injector;
  const cluster::PlatformTiming sync_stalled = baselines::simulate_caffe(s);

  // Async: the stall stretches the makespan at most ~one stall (the other
  // workers keep going).  Sync: the whole platform pays it too; both lose
  // >= the stall, but the async mean iteration over all workers moves less
  // than the sync one (3 of 4 async workers never see the stall).
  const double async_penalty = units::to_seconds(stalled.makespan - clean.makespan);
  const double sync_penalty =
      units::to_seconds(sync_stalled.makespan - sync_clean.makespan);
  EXPECT_NEAR(sync_penalty, 2.0, 0.1);
  EXPECT_LT(async_penalty, 3.0);
  EXPECT_LT(stalled.mean_iteration() - clean.mean_iteration(),
            sync_stalled.mean_iteration() - sync_clean.mean_iteration());
}

TEST(SimFaults, SimulatedRunsAreDeterministic) {
  const FaultInjector injector(FaultPlan::generate(busy_spec(0xabc)));
  core::SimShmCaffeOptions opts;
  opts.workers = 8;
  opts.group_size = 2;
  opts.iterations = 30;
  opts.faults = &injector;
  const cluster::PlatformTiming a = core::simulate_shmcaffe(opts);
  const cluster::PlatformTiming b = core::simulate_shmcaffe(opts);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.mean_comp, b.mean_comp);
  EXPECT_EQ(a.mean_comm, b.mean_comm);
  EXPECT_EQ(a.completed_worker_iterations, b.completed_worker_iterations);
}

// --- trainer graceful degradation (tentpole + satellite 3b) ---

core::DistTrainOptions degraded_train_options(core::TerminationCriterion criterion) {
  core::DistTrainOptions options;
  options.model_family = "mlp";
  options.workers = 4;
  options.group_size = 1;
  options.input = dl::ModelInputSpec{1, 12, 12, 6};
  options.train_data.channels = 1;
  options.train_data.height = 12;
  options.train_data.width = 12;
  options.train_data.classes = 6;
  options.train_data.size = 1536;
  options.train_data.noise_stddev = 0.25;
  options.test_data = options.train_data;
  options.test_data.size = 384;
  options.test_data.seed = 0x7e57;
  options.batch_size = 16;
  options.epochs = 4;
  options.termination = criterion;
  options.heartbeat_timeout_seconds = 0.5;
  return options;
}

class TrainerDegradation
    : public ::testing::TestWithParam<core::TerminationCriterion> {};

TEST_P(TrainerDegradation, SurvivorsFinishWhenOneWorkerCrashes) {
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 2;
  crash.iteration = 3;
  plan.add(crash);
  const FaultInjector injector(plan);

  core::DistTrainOptions options = degraded_train_options(GetParam());
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);

  ASSERT_EQ(result.worker_outcomes.size(), 4u);
  EXPECT_EQ(result.worker_outcomes[2], core::WorkerOutcome::kCrashed);
  EXPECT_EQ(result.dead_workers, std::vector<int>{2});
  for (int w : {0, 1, 3}) {
    EXPECT_EQ(result.worker_outcomes[static_cast<std::size_t>(w)],
              core::WorkerOutcome::kFinished)
        << "worker " << w;
    EXPECT_GT(result.iterations_per_worker[static_cast<std::size_t>(w)], 3);
  }
  // The crashed worker stopped where the plan says it did.
  EXPECT_EQ(result.iterations_per_worker[2], 3);
  // Survivors still converge on the shared global weights.
  EXPECT_GT(result.final_accuracy, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    AllCriteria, TrainerDegradation,
    ::testing::Values(core::TerminationCriterion::kMasterFinishes,
                      core::TerminationCriterion::kFirstFinisher,
                      core::TerminationCriterion::kAverageIterations));

TEST(TrainerDegradation2, CrashOfMasterFallsBackToActingMaster) {
  FaultPlan plan;
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 0;  // the master itself dies
  crash.iteration = 3;
  plan.add(crash);
  const FaultInjector injector(plan);

  core::DistTrainOptions options =
      degraded_train_options(core::TerminationCriterion::kMasterFinishes);
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);
  EXPECT_EQ(result.dead_workers, std::vector<int>{0});
  for (int w : {1, 2, 3}) {
    EXPECT_EQ(result.worker_outcomes[static_cast<std::size_t>(w)],
              core::WorkerOutcome::kFinished);
  }
}

TEST(TrainerDegradation2, StallPastHeartbeatTimeoutIsFenced) {
  // A worker stalls (not crashes) for longer than the heartbeat timeout.
  // Its peers park in skew pacing behind it and stop reporting, so only the
  // supervisor's deadline wake-up can declare it dead; when it wakes it
  // finds itself fenced and exits.
  FaultPlan plan;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 1;
  stall.iteration = 3;
  stall.duration_seconds = 0.8;
  plan.add(stall);
  const FaultInjector injector(plan);

  core::DistTrainOptions options =
      degraded_train_options(core::TerminationCriterion::kAverageIterations);
  options.heartbeat_timeout_seconds = 0.25;
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);

  ASSERT_EQ(result.worker_outcomes.size(), 4u);
  EXPECT_EQ(result.worker_outcomes[1], core::WorkerOutcome::kFenced);
  EXPECT_EQ(result.dead_workers, std::vector<int>{1});
  for (int w : {0, 2, 3}) {
    EXPECT_EQ(result.worker_outcomes[static_cast<std::size_t>(w)],
              core::WorkerOutcome::kFinished)
        << "worker " << w;
  }
}

TEST(TrainerDegradation2, FaultFreePlanLeavesResultClean) {
  const FaultInjector injector{FaultPlan{}};
  core::DistTrainOptions options =
      degraded_train_options(core::TerminationCriterion::kAverageIterations);
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);
  EXPECT_TRUE(result.dead_workers.empty());
  for (const core::WorkerOutcome outcome : result.worker_outcomes) {
    EXPECT_EQ(outcome, core::WorkerOutcome::kFinished);
  }
  EXPECT_GT(result.final_accuracy, 0.7);
}


// --- replicated SMB under concurrency (recovery layer) ---

TEST(ReplicatedSmbFailover, WaitVersionSurvivesPrimaryDeathMidWait) {
  // A worker blocked in the Fig. 6 version wait must not hang (or error out)
  // when the primary fail-stops under it: the ensemble catches the wake-up,
  // promotes the backup and resumes the wait there with the remaining
  // deadline.
  smb::SmbServer primary;
  smb::SmbServer backup;
  recovery::ReplicatedSmb ensemble({&primary, &backup});
  const smb::Handle g = ensemble.create_floats(21, 2);
  ensemble.write(g, std::vector<float>{1, 2});  // both replicas at version 1

  std::optional<std::uint64_t> seen;
  std::thread waiter([&] {
    seen = ensemble.wait_version_at_least(g, 2, std::chrono::seconds(30));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  primary.fail_stop();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ensemble.write(g, std::vector<float>{3, 4});  // lands on the survivor
  waiter.join();

  ASSERT_TRUE(seen.has_value());
  EXPECT_GE(*seen, 2u);
  EXPECT_EQ(ensemble.failover_count(), 1u);
  std::vector<float> data(2);
  ensemble.read(g, data);
  EXPECT_EQ(data, (std::vector<float>{3, 4}));
  ensemble.release(g);
}

// --- progress-board sweep accounting (late-fenced regression) ---

TEST(ProgressBoardSweep, ZeroesStaleSlotsSoMeanUsesOnlyLiveWorkers) {
  // A worker that raced far ahead and then died must not keep inflating the
  // kAverageIterations mean through its stale counter: the sweep zeroes the
  // slot under the sweep lock when it declares the worker dead.
  smb::SmbServer server;
  core::ProgressBoard board(server, 41, 3, /*create=*/true);
  board.report(0, 10);
  board.report(1, 10);
  board.report(2, 1000);  // runs ahead, then goes silent

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  board.heartbeat(0);
  board.heartbeat(1);
  EXPECT_EQ(board.sweep_dead(/*timeout_seconds=*/0.05), 1);
  EXPECT_TRUE(board.is_dead(2));

  // The stale counter is gone and the reductions cover live workers only:
  // without the zeroing, mean would read (10 + 10 + 1000) / n and the
  // termination criterion would fire hundreds of iterations early.
  EXPECT_EQ(board.iterations_of(2), 0);
  EXPECT_DOUBLE_EQ(board.mean_iterations(), 10.0);
  EXPECT_FALSE(board.should_stop(core::TerminationCriterion::kAverageIterations,
                                 /*worker=*/0, /*my_iterations=*/10,
                                 /*target_iterations=*/12));
  board.release();
}

// Lock-order guard: the suite above drives the instrumented mutexes hard
// (SMB freezes, worker crashes, heartbeat sweeps); any rank inversion or acquisition-graph cycle they produced
// is a latent deadlock.  Runs last in this binary by declaration order.
TEST(LockOrder, CleanUnderFaultInjection) {
  EXPECT_TRUE(shmcaffe::common::LockOrderRegistry::instance().violations().empty())
      << shmcaffe::common::LockOrderRegistry::instance().violations().size()
      << " lock-order violation(s); see stderr for details";
}

}  // namespace
}  // namespace shmcaffe

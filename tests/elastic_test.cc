// Tests for the elastic membership layer: the membership expander of the
// control-event journal, the straggler-detection math, the
// MembershipService registry (epochs, shard rebalancing, its journal), the
// growable progress board (cold-join slots, straggler sweeps),
// the simulated twin at scale (heterogeneous cohorts, staleness
// accounting), the elastic baseline star, and the end-to-end acceptance
// runs — workers join, drain, straggle-and-quarantine, and crash in one run
// with the same executed journal from the functional and simulated stacks.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "baselines/sim_platforms.h"
#include "core/config.h"
#include "core/progress_board.h"
#include "core/sim_shmcaffe.h"
#include "core/trainer.h"
#include "elastic/membership.h"
#include "elastic/straggler.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "fault/journal.h"
#include "recovery/epoch.h"
#include "smb/server.h"

namespace shmcaffe {
namespace {

using elastic::MembershipEvent;
using elastic::MembershipEventKind;
using elastic::MembershipPlan;
using elastic::MembershipPolicy;
using elastic::MembershipService;
using elastic::StragglerVerdict;
using fault::ControlAction;
using fault::ControlDomain;
using fault::ControlEvent;
using fault::FaultEvent;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;

// --- shard assignment ------------------------------------------------------

TEST(ShardAssignments, ContiguousAndBalanced) {
  const std::vector<int> members{0, 1, 2, 3};
  EXPECT_EQ(elastic::shard_assignments(members, 2), (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(elastic::shard_assignments(members, 4), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(elastic::shard_assignments(std::vector<int>{7}, 4), std::vector<int>{0});
  EXPECT_TRUE(elastic::shard_assignments(std::vector<int>{}, 4).empty());
}

TEST(ShardAssignments, SingleLeaveReassignsFewWorkers) {
  const std::vector<int> before{0, 1, 2, 3, 4, 5};
  const std::vector<int> after{0, 1, 3, 4, 5};  // worker 2 left
  const std::vector<int> a = elastic::shard_assignments(before, 3);
  const std::vector<int> b = elastic::shard_assignments(after, 3);
  // Contiguous block maps move at most a handful of neighbours per change.
  int moved = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    std::size_t j = 0;
    while (before[j] != after[i]) ++j;
    if (a[j] != b[i]) ++moved;
  }
  EXPECT_LE(moved, 2);
}

// --- planned schedule ------------------------------------------------------

MembershipPolicy detection_policy() {
  MembershipPolicy policy;
  policy.straggler_detection = true;
  policy.quarantine_stall_seconds = 0.35;
  policy.evict_after_violations = 3;
  return policy;
}

TEST(MembershipSchedule, OrdersJoinsDrainsAndChainsDeterministically) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 4, 6});
  plan.add({MembershipEventKind::kDrain, 1, 9});

  FaultPlan faults;
  for (std::int64_t it : {3, 7, 11}) {
    FaultEvent stall;
    stall.kind = FaultKind::kWorkerStall;
    stall.target = 2;
    stall.iteration = it;
    stall.duration_seconds = 0.5;  // >= quarantine_stall_seconds
    faults.add(stall);
  }

  // By trigger iteration (3, 3, 6, 6, 7, ...), keyed by the ordinal of each
  // (action, worker).
  const std::vector<ControlEvent> expected{
      {ControlAction::kQuarantine, 2, 1},
      {ControlAction::kReadmitContributor, 2, 1},
      {ControlAction::kWorkerJoin, 4, 1},
      {ControlAction::kShardRebalance, 4, 1},
      {ControlAction::kQuarantine, 2, 2},
      {ControlAction::kReadmitContributor, 2, 2},
      {ControlAction::kWorkerDrain, 1, 1},
      {ControlAction::kShardRebalance, 1, 1},
      {ControlAction::kEvict, 2, 1},  // third violation
      {ControlAction::kShardRebalance, 2, 1},
  };
  EXPECT_EQ(elastic::membership_schedule(&plan, &faults, detection_policy(), 4), expected);
  EXPECT_EQ(elastic::membership_schedule(&plan, &faults, detection_policy(), 4), expected);
}

TEST(MembershipSchedule, ChainStopsAtCrashDrainAndShortStallsDeriveNothing) {
  FaultPlan faults;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 2;
  stall.iteration = 5;
  stall.duration_seconds = 0.1;  // below the planning bound: ignored
  faults.add(stall);
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 2;
  crash.iteration = 8;
  faults.add(crash);
  FaultEvent late_stall = stall;
  late_stall.iteration = 12;  // after the crash: the worker is gone
  late_stall.duration_seconds = 1.0;
  faults.add(late_stall);

  EXPECT_TRUE(
      elastic::membership_schedule(nullptr, &faults, detection_policy(), 4).empty());

  // Detection off: stalls derive nothing even when long.
  MembershipPolicy off = detection_policy();
  off.straggler_detection = false;
  FaultPlan long_stalls;
  FaultEvent s2 = stall;
  s2.duration_seconds = 2.0;
  long_stalls.add(s2);
  EXPECT_TRUE(elastic::membership_schedule(nullptr, &long_stalls, off, 4).empty());
}

TEST(MembershipPlan, CapacityAndDrainLookup) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 6, 10});
  plan.add({MembershipEventKind::kJoin, 4, 2});
  plan.add({MembershipEventKind::kDrain, 1, 30});
  EXPECT_EQ(plan.capacity(4), 7);  // max join slot + 1
  EXPECT_EQ(plan.capacity(9), 9);
  EXPECT_EQ(plan.drain_iteration(1), 30);
  EXPECT_EQ(plan.drain_iteration(0), -1);
  const std::vector<MembershipEvent> joins = plan.joins();
  ASSERT_EQ(joins.size(), 2u);
  EXPECT_EQ(joins[0].worker, 4);  // sorted by trigger iteration
  EXPECT_EQ(joins[1].worker, 6);
}

/// The registry's report (MembershipService::report), with the membership
/// events it executed as its journal.
fault::ControlReport report_of(const MembershipService& service) {
  fault::ControlReport report;
  service.report(report, report.journal);
  return report;
}

// --- executed-change filtering --------------------------------------------

TEST(FilterExecuted, KeepsExecutedChangesAndTheirRebalances) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 4, 6});
  plan.add({MembershipEventKind::kDrain, 1, 9});
  FaultPlan faults;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 2;
  stall.iteration = 3;
  stall.duration_seconds = 0.5;
  faults.add(stall);
  const std::vector<ControlEvent> planned =
      elastic::membership_schedule(&plan, &faults, detection_policy(), 4);

  // The registry journals what ran: the quarantine chain and the join (with
  // its rebalance), but the drain never happened.
  MembershipService service(4, 5, 2);
  service.quarantine(2);
  service.readmit_contributor(2);
  service.join(4);
  const std::vector<ControlEvent> expected{
      {ControlAction::kQuarantine, 2, 1},
      {ControlAction::kReadmitContributor, 2, 1},
      {ControlAction::kWorkerJoin, 4, 1},
      {ControlAction::kShardRebalance, 4, 1},
  };
  EXPECT_EQ(fault::executed(planned, report_of(service).journal), expected);
}

// --- straggler rule --------------------------------------------------------

TEST(StragglerMath, VerdictsFollowThePolicyBounds) {
  MembershipPolicy policy;
  policy.straggler_detection = true;
  policy.evict_after_violations = 3;
  using V = StragglerVerdict;
  const auto judge = [&policy](bool quarantined, std::int64_t ended, bool silent,
                               std::int64_t prior) {
    return elastic::judge_silences(quarantined, ended, silent, prior, policy);
  };

  // No silence past the threshold: nothing to do.
  EXPECT_TRUE(judge(false, 0, false, 0).empty());
  // Silent right now: quarantined, and kept there while the silence lasts.
  EXPECT_EQ(judge(false, 0, true, 0), std::vector<V>{V::kQuarantine});
  EXPECT_TRUE(judge(true, 0, true, 1).empty());
  // It reported again: readmitted.
  EXPECT_EQ(judge(true, 1, false, 1), std::vector<V>{V::kReadmit});
  // A silence that ended before any sweep saw it: quarantine and readmit.
  EXPECT_EQ(judge(false, 1, false, 0), (std::vector<V>{V::kQuarantine, V::kReadmit}));
  // Reported, then silent again: readmitted, then quarantined afresh.
  EXPECT_EQ(judge(true, 1, true, 1), (std::vector<V>{V::kReadmit, V::kQuarantine}));
  // The Nth silence evicts, and nothing follows an eviction.
  EXPECT_EQ(judge(false, 0, true, 2), std::vector<V>{V::kEvict});
  EXPECT_EQ(judge(false, 3, true, 0), (std::vector<V>{V::kQuarantine, V::kReadmit,
                                                      V::kQuarantine, V::kReadmit, V::kEvict}));
}

// --- MembershipService -----------------------------------------------------

TEST(MembershipService, EpochBumpsOnMembershipChangesOnly) {
  MembershipService service(/*initial_workers=*/3, /*capacity=*/5, /*shards=*/4);
  const elastic::MembershipEpoch initial = service.epoch();
  EXPECT_EQ(initial, recovery::kInitialServiceEpoch);

  const elastic::MembershipEpoch after_join = service.join(3);
  EXPECT_GT(after_join, initial);
  EXPECT_EQ(report_of(service).joined_workers, std::vector<int>{3});

  // Quarantine demotes without changing the member set: no epoch bump.
  service.quarantine(1);
  EXPECT_EQ(service.epoch(), after_join);
  EXPECT_EQ(report_of(service).quarantine_events, 1);
  service.readmit_contributor(1);
  EXPECT_EQ(service.epoch(), after_join);

  const elastic::MembershipEpoch after_drain = service.drain(1);
  EXPECT_GT(after_drain, after_join);
  EXPECT_EQ(report_of(service).drained_workers, std::vector<int>{1});
  const elastic::MembershipEpoch after_evict = service.evict(2);
  EXPECT_GT(after_evict, after_drain);
  EXPECT_EQ(report_of(service).rebalances, 3);  // join + drain + evict

  // Transitions are idempotent: replaying one changes nothing.
  EXPECT_EQ(service.join(3), after_evict);
  EXPECT_EQ(service.drain(1), after_evict);
  EXPECT_EQ(report_of(service).rebalances, 3);
  EXPECT_EQ(report_of(service).joined_workers, std::vector<int>{3});

  // The journal holds every executed change in order, each member-set
  // change trailed by the rebalance it triggered.
  const std::vector<ControlEvent> expected{
      {ControlAction::kWorkerJoin, 3, 1},  {ControlAction::kShardRebalance, 3, 1},
      {ControlAction::kQuarantine, 1, 1},  {ControlAction::kReadmitContributor, 1, 1},
      {ControlAction::kWorkerDrain, 1, 1}, {ControlAction::kShardRebalance, 1, 1},
      {ControlAction::kEvict, 2, 1},       {ControlAction::kShardRebalance, 2, 1},
  };
  EXPECT_EQ(report_of(service).journal, expected);
}

TEST(MembershipService, HomeShardsSpreadAndRebalance) {
  MembershipService service(4, 4, 2);
  // Balanced from the start: two workers per shard ensemble.
  EXPECT_EQ(service.home_shard(0), 0);
  EXPECT_EQ(service.home_shard(3), 1);
  service.drain(0);
  service.drain(1);
  // The survivors spread across both shards again.
  EXPECT_EQ(service.home_shard(2), 0);
  EXPECT_EQ(service.home_shard(3), 1);
  EXPECT_GT(service.reassignments(), 0);
  // Outside the member set: fan-out starts at shard 0.
  EXPECT_EQ(service.home_shard(0), 0);
}

// --- growable progress board ----------------------------------------------

TEST(ProgressBoardElastic, ColdJoinSlotsAndAttachDerivedCapacity) {
  smb::SmbServer server;
  core::ProgressBoard board(server, 41, /*workers=*/3, /*create=*/true,
                            /*capacity=*/6);
  EXPECT_EQ(board.capacity(), 6);
  EXPECT_EQ(board.state_of(4), core::ProgressBoard::WorkerState::kAbsent);

  // A cold join takes a fresh slot under a brand-new incarnation.
  const std::int64_t incarnation = board.admit(4);
  EXPECT_GT(incarnation, core::ProgressBoard::kFirstIncarnation);
  EXPECT_EQ(board.state_of(4), core::ProgressBoard::WorkerState::kAlive);

  // Attachers recover the creator's capacity from the segment itself.
  core::ProgressBoard attached(server, 41, /*workers=*/0, /*create=*/false);
  EXPECT_EQ(attached.capacity(), 6);
  EXPECT_EQ(attached.state_of(4), core::ProgressBoard::WorkerState::kAlive);

  // Drained and absent slots stay out of every contributing reduction.
  board.report(0, 10, core::ProgressBoard::kFirstIncarnation);
  board.report(2, 20, core::ProgressBoard::kFirstIncarnation);
  board.report(4, 30, incarnation);
  board.mark_drained(1);
  EXPECT_EQ(board.state_of(1), core::ProgressBoard::WorkerState::kDrained);
  EXPECT_EQ(board.min_iterations(), 10);
  EXPECT_EQ(board.max_iterations(), 30);
  EXPECT_DOUBLE_EQ(board.mean_iterations(), 20.0);
  board.mark_evicted(4);
  EXPECT_EQ(board.state_of(4), core::ProgressBoard::WorkerState::kEvicted);
  EXPECT_EQ(board.max_iterations(), 20);
  board.release();
}

/// Keeps `worker` reporting every few milliseconds for `duration`, so its
/// silences stay far below the thresholds the board tests arm.
void keep_reporting(core::ProgressBoard& board, int worker, std::chrono::milliseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  for (std::int64_t i = 1; std::chrono::steady_clock::now() < until; ++i) {
    board.report(worker, i, core::ProgressBoard::kFirstIncarnation);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

MembershipPolicy board_straggler_policy(int evict_after_violations) {
  MembershipPolicy policy;
  policy.straggler_detection = true;
  policy.quarantine_stall_seconds = 0.1;
  policy.evict_after_violations = evict_after_violations;
  return policy;
}

TEST(ProgressBoardElastic, SweepQuarantinesSilentWorkerThenReadmits) {
  using Transitions = std::vector<elastic::StragglerTransition>;
  using State = core::ProgressBoard::WorkerState;
  smb::SmbServer server;
  core::ProgressBoard board(server, 43, 2, /*create=*/true);

  // Worker 1 reports once, then stays silent past the threshold while
  // worker 0 keeps reporting.  Unarmed, the detector judges nobody.
  board.report(1, 1, core::ProgressBoard::kFirstIncarnation);
  keep_reporting(board, 0, std::chrono::milliseconds(150));
  EXPECT_TRUE(board.sweep_stragglers().empty());
  board.watch_stragglers(board_straggler_policy(3));
  EXPECT_EQ(board.sweep_stragglers(), (Transitions{{1, StragglerVerdict::kQuarantine}}));
  EXPECT_EQ(board.state_of(1), State::kQuarantined);
  // Still silent: a repeated sweep does not double-demote.
  EXPECT_TRUE(board.sweep_stragglers().empty());

  // Its next report readmits it.
  board.report(1, 2, core::ProgressBoard::kFirstIncarnation);
  EXPECT_EQ(board.sweep_stragglers(), (Transitions{{1, StragglerVerdict::kReadmit}}));
  EXPECT_EQ(board.state_of(1), State::kAlive);

  // A silence that ends before any sweep saw it is judged all the same:
  // the report that ended it counted it.
  keep_reporting(board, 0, std::chrono::milliseconds(150));
  board.report(1, 3, core::ProgressBoard::kFirstIncarnation);
  EXPECT_EQ(board.sweep_stragglers(), (Transitions{{1, StragglerVerdict::kQuarantine},
                                                   {1, StragglerVerdict::kReadmit}}));
  EXPECT_EQ(board.state_of(1), State::kAlive);
  board.release();
}

TEST(ProgressBoardElastic, RepeatedViolationsEvict) {
  smb::SmbServer server;
  core::ProgressBoard board(server, 44, 2, /*create=*/true);
  board.watch_stragglers(board_straggler_policy(2));

  // First silence: quarantined, then readmitted once it reports.
  board.report(1, 5, core::ProgressBoard::kFirstIncarnation);
  keep_reporting(board, 0, std::chrono::milliseconds(150));
  board.report(1, 6, core::ProgressBoard::kFirstIncarnation);
  EXPECT_EQ(board.sweep_stragglers().size(), 2u);
  // Second silence: evicted, and its progress stops counting.
  keep_reporting(board, 0, std::chrono::milliseconds(150));
  const std::vector<elastic::StragglerTransition> transitions = board.sweep_stragglers();
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].verdict, StragglerVerdict::kEvict);
  EXPECT_EQ(board.state_of(1), core::ProgressBoard::WorkerState::kEvicted);
  EXPECT_EQ(board.iterations_of(1), 0);
  board.release();
}

// --- simulated twin --------------------------------------------------------

TEST(SimElastic, JoinsAndDrainsAreDeterministicAndFingerprinted) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 8, 5});
  plan.add({MembershipEventKind::kJoin, 9, 12});
  plan.add({MembershipEventKind::kDrain, 2, 20});

  core::SimShmCaffeOptions options;
  options.workers = 8;
  options.group_size = 1;
  options.iterations = 60;
  options.smb_servers = 2;
  options.membership = &plan;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(options);

  EXPECT_EQ(timing.joined_workers, (std::vector<int>{8, 9}));
  EXPECT_EQ(timing.drained_workers, std::vector<int>{2});
  EXPECT_EQ(timing.rebalances, 3);
  EXPECT_GT(timing.completed_worker_iterations,
            static_cast<std::int64_t>(8) * options.iterations);

  // Everything planned executed, so the journal is the whole plan.
  EXPECT_EQ(timing.journal, options.planned_journal());

  const cluster::PlatformTiming again = core::simulate_shmcaffe(options);
  EXPECT_EQ(again.makespan, timing.makespan);
  EXPECT_EQ(again.journal, timing.journal);
}

TEST(SimElastic, StallChainsQuarantineThenEvict) {
  FaultPlan faults;
  for (std::int64_t it : {5, 15}) {
    FaultEvent stall;
    stall.kind = FaultKind::kWorkerStall;
    stall.target = 1;
    stall.iteration = it;
    stall.duration_seconds = 0.5;
    faults.add(stall);
  }
  const FaultInjector injector(faults);

  core::SimShmCaffeOptions options;
  options.workers = 4;
  options.group_size = 1;
  options.iterations = 40;
  options.faults = &injector;
  options.membership_policy.straggler_detection = true;
  options.membership_policy.quarantine_stall_seconds = 0.35;
  options.membership_policy.evict_after_violations = 2;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(options);

  // First stall: quarantine + readmit.  Second: eviction cuts the worker's
  // run short.
  EXPECT_EQ(timing.quarantine_events, 1);
  EXPECT_LT(timing.completed_worker_iterations,
            static_cast<std::int64_t>(4) * options.iterations);
  EXPECT_EQ(timing.journal, options.planned_journal());
}

TEST(SimElastic, HeterogeneityslowsTheCohortAndViolatesStaleness) {
  core::SimShmCaffeOptions uniform;
  uniform.workers = 24;
  uniform.group_size = 1;
  uniform.iterations = 40;
  uniform.smb_servers = 2;
  uniform.membership_policy.straggler_detection = true;
  uniform.membership_policy.staleness_bound_iterations = 5.0;
  // Planning bound far above any injected stall: no quarantine chains, just
  // the staleness accounting.
  uniform.membership_policy.quarantine_stall_seconds = 1e9;
  const cluster::PlatformTiming flat = core::simulate_shmcaffe(uniform);

  core::SimShmCaffeOptions skewed = uniform;
  skewed.heterogeneity.slow_fraction = 0.25;
  skewed.heterogeneity.compute_multiplier = 3.0;
  skewed.heterogeneity.nic_multiplier = 2.0;
  const cluster::PlatformTiming het = core::simulate_shmcaffe(skewed);

  EXPECT_GT(het.makespan, flat.makespan);
  // A single-shard asynchronous cohort spreads a little even when uniform;
  // planted 3x-slow machines fall much further behind the cohort maximum.
  EXPECT_GT(het.staleness_violations, flat.staleness_violations);

  // The planted-slow selection is a pure function of (seed, worker).
  int slow = 0;
  for (int w = 0; w < 24; ++w) {
    EXPECT_EQ(skewed.heterogeneity.is_slow(w), skewed.heterogeneity.is_slow(w));
    if (skewed.heterogeneity.is_slow(w)) ++slow;
  }
  EXPECT_GT(slow, 0);
  EXPECT_LT(slow, 24);
}

TEST(SimElastic, ValidatesHybridGroupsAndJoinSlots) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 8, 5});
  core::SimShmCaffeOptions options;
  options.workers = 8;
  options.group_size = 2;
  options.membership = &plan;
  EXPECT_THROW((void)core::simulate_shmcaffe(options), std::invalid_argument);

  MembershipPlan bad;
  bad.add({MembershipEventKind::kJoin, 2, 5});  // below the initial cohort
  core::SimShmCaffeOptions low;
  low.workers = 8;
  low.group_size = 1;
  low.membership = &bad;
  EXPECT_THROW((void)core::simulate_shmcaffe(low), std::invalid_argument);
}

// --- elastic baseline star -------------------------------------------------

TEST(SimPlatformsElastic, CaffeMpiHonoursThePlanRingsIgnoreIt) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 4, 5});
  plan.add({MembershipEventKind::kDrain, 1, 15});

  baselines::SimPlatformOptions options;
  options.workers = 4;
  options.iterations = 40;
  options.membership = &plan;

  const cluster::PlatformTiming star = baselines::simulate_caffe_mpi(options);
  EXPECT_EQ(star.joined_workers, std::vector<int>{4});
  EXPECT_EQ(star.drained_workers, std::vector<int>{1});
  EXPECT_EQ(star.rebalances, 2);
  EXPECT_EQ(star.journal, elastic::plan_control_events(nullptr, {}, {}, &plan, {}, 4));

  // The fixed rings cannot resize: the plan is ignored, counters stay zero.
  const cluster::PlatformTiming ring = baselines::simulate_mpicaffe(options);
  EXPECT_TRUE(ring.joined_workers.empty());
  EXPECT_TRUE(ring.journal.empty());
  const cluster::PlatformTiming nccl = baselines::simulate_caffe(options);
  EXPECT_TRUE(nccl.joined_workers.empty());
}

TEST(SimPlatformsElastic, HeterogeneitySlowsEverySynchronousPlatform) {
  baselines::SimPlatformOptions uniform;
  uniform.workers = 8;
  uniform.iterations = 30;

  baselines::SimPlatformOptions skewed = uniform;
  skewed.heterogeneity.slow_fraction = 0.25;
  skewed.heterogeneity.compute_multiplier = 3.0;
  skewed.heterogeneity.nic_multiplier = 2.0;

  EXPECT_GT(baselines::simulate_caffe(skewed).makespan,
            baselines::simulate_caffe(uniform).makespan);
  EXPECT_GT(baselines::simulate_caffe_mpi(skewed).makespan,
            baselines::simulate_caffe_mpi(uniform).makespan);
  EXPECT_GT(baselines::simulate_mpicaffe(skewed).makespan,
            baselines::simulate_mpicaffe(uniform).makespan);
}

// --- end-to-end: functional trainer ----------------------------------------

/// The membership-domain events of `journal`, in order.
std::vector<ControlEvent> membership_events(const std::vector<ControlEvent>& journal) {
  std::vector<ControlEvent> out;
  for (const ControlEvent& event : journal) {
    if (fault::domain_of(event.action) == ControlDomain::kMembership) out.push_back(event);
  }
  return out;
}

core::DistTrainOptions elastic_train_options() {
  core::DistTrainOptions options;
  options.model_family = "mlp";
  options.workers = 3;
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
  options.epochs = 3;
  options.heartbeat_timeout_seconds = 0.5;
  return options;
}

TEST(ElasticEndToEnd, JoinAndDrainReportedFromBothStacks) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 3, 4});
  plan.add({MembershipEventKind::kDrain, 1, 30});

  core::DistTrainOptions options = elastic_train_options();
  options.membership = &plan;
  const core::TrainResult result = core::train_shmcaffe(options);

  EXPECT_EQ(result.joined_workers, std::vector<int>{3});
  EXPECT_EQ(result.drained_workers, std::vector<int>{1});
  EXPECT_EQ(result.rebalances, 2);
  ASSERT_EQ(result.worker_outcomes.size(), 4u);
  EXPECT_EQ(result.worker_outcomes[1], core::WorkerOutcome::kDrained);
  EXPECT_EQ(result.worker_outcomes[0], core::WorkerOutcome::kFinished);
  EXPECT_EQ(result.worker_outcomes[3], core::WorkerOutcome::kFinished);
  EXPECT_GT(result.final_accuracy, 0.4);

  // The simulated twin runs the identical plan and executes the same
  // membership events.
  core::SimShmCaffeOptions sim(options);
  sim.iterations = 96;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(sim);
  EXPECT_EQ(membership_events(timing.journal), membership_events(result.journal));
  EXPECT_FALSE(membership_events(result.journal).empty());
  EXPECT_EQ(timing.joined_workers, result.joined_workers);
  EXPECT_EQ(timing.drained_workers, result.drained_workers);
  EXPECT_EQ(timing.rebalances, result.rebalances);
}

TEST(ElasticEndToEnd, JoinDuringFailover) {
  // A worker cold-joins while the SMB layer is failing over to its backup
  // replica: the join must retry its way through the pause and succeed.
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 3, 4});

  FaultPlan faults;
  FaultEvent fail_primary;
  fail_primary.kind = FaultKind::kServerFailStop;
  fail_primary.target = 0;  // shard 0, replica 0 — the active primary
  fail_primary.start_seconds = 0.05;
  faults.add(fail_primary);
  const FaultInjector injector(faults);

  core::DistTrainOptions options = elastic_train_options();
  options.membership = &plan;
  options.smb_replicas = 2;
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);

  EXPECT_EQ(result.smb_failovers, 1);
  EXPECT_EQ(result.joined_workers, std::vector<int>{3});
  EXPECT_EQ(result.worker_outcomes[3], core::WorkerOutcome::kFinished);

  core::SimShmCaffeOptions sim(options);
  sim.iterations = 96;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(sim);
  EXPECT_EQ(timing.journal, result.journal);
  EXPECT_EQ(timing.smb_failovers, result.smb_failovers);
}

TEST(ElasticEndToEnd, DrainWhileCheckpointing) {
  const std::string dir = ::testing::TempDir() + "shmcaffe_elastic_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  MembershipPlan plan;
  plan.add({MembershipEventKind::kDrain, 1, 20});

  core::DistTrainOptions options = elastic_train_options();
  options.workers = 2;
  options.membership = &plan;
  options.checkpoint.directory = dir;
  options.checkpoint.interval_iterations = 16;
  const core::TrainResult result = core::train_shmcaffe(options);

  // The drain must not corrupt the checkpoint stream: checkpoints keep
  // landing and the run finishes on the survivor.
  EXPECT_GE(result.checkpoints_taken, 1);
  EXPECT_EQ(result.drained_workers, std::vector<int>{1});
  EXPECT_EQ(result.worker_outcomes[0], core::WorkerOutcome::kFinished);
  EXPECT_EQ(result.worker_outcomes[1], core::WorkerOutcome::kDrained);
  EXPECT_EQ(result.journal, options.planned_journal());
}

/// Policy used by the straggler end-to-end runs: a stall of at least
/// 0.6 s is a planned quarantine, while the heartbeat timeout stays far
/// above the stall so the sweep quarantines instead of fencing.
MembershipPolicy e2e_straggler_policy() {
  MembershipPolicy policy;
  policy.straggler_detection = true;
  policy.quarantine_stall_seconds = 0.6;
  policy.evict_after_violations = 3;
  return policy;
}

TEST(ElasticEndToEnd, QuarantineCatchUpReadmit) {
  FaultPlan faults;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 2;
  stall.iteration = 5;
  stall.duration_seconds = 0.6;
  faults.add(stall);
  const FaultInjector injector(faults);

  core::DistTrainOptions options = elastic_train_options();
  // Long enough that the run is still going when the straggler wakes, so
  // the catch-up readmission actually happens before termination.
  options.epochs = 15;
  options.membership_policy = e2e_straggler_policy();
  options.heartbeat_timeout_seconds = 3.0;
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);

  // One stall, one demotion; the worker caught up, was readmitted, and
  // finished — never fenced, never evicted.
  EXPECT_EQ(result.quarantine_events, 1);
  ASSERT_EQ(result.worker_outcomes.size(), 3u);
  for (int w = 0; w < 3; ++w) {
    EXPECT_EQ(result.worker_outcomes[static_cast<std::size_t>(w)],
              core::WorkerOutcome::kFinished)
        << "worker " << w;
  }

  core::SimShmCaffeOptions sim(options);
  sim.iterations = 480;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(sim);
  EXPECT_EQ(timing.quarantine_events, result.quarantine_events);
  EXPECT_EQ(membership_events(timing.journal), membership_events(result.journal));
  EXPECT_FALSE(membership_events(result.journal).empty());
}

TEST(ElasticEndToEnd, AcceptanceJoinDrainQuarantineCrashInOneRun) {
  // The PR's acceptance run: in ONE training run a worker cold-joins, a
  // worker drains voluntarily, a worker straggles into quarantine and is
  // readmitted after catching up, and a worker crashes and is re-admitted
  // by the recovery layer — while the SMB primary fails over.  Both stacks
  // must execute the same journal.
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 4, 6});
  plan.add({MembershipEventKind::kDrain, 1, 200});

  FaultPlan faults;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 2;
  stall.iteration = 8;
  stall.duration_seconds = 0.8;
  faults.add(stall);
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 3;
  crash.iteration = 10;
  faults.add(crash);
  FaultEvent fail_primary;
  fail_primary.kind = FaultKind::kServerFailStop;
  fail_primary.target = 0;
  fail_primary.start_seconds = 0.06;
  faults.add(fail_primary);
  const FaultInjector injector(faults);

  core::DistTrainOptions options = elastic_train_options();
  options.workers = 4;
  options.epochs = 15;  // 360 iterations/worker
  options.membership = &plan;
  options.membership_policy = e2e_straggler_policy();
  options.smb_replicas = 2;
  options.recovery.respawn_crashed = true;
  options.heartbeat_timeout_seconds = 2.0;
  options.faults = &injector;
  const core::TrainResult result = core::train_shmcaffe(options);

  EXPECT_EQ(result.joined_workers, std::vector<int>{4});
  EXPECT_EQ(result.drained_workers, std::vector<int>{1});
  // Exactly the planned stall demotion: the crashed worker 3 is dead the
  // moment its life exits, so its silence never reaches the detector.
  EXPECT_EQ(result.quarantine_events, 1);
  EXPECT_EQ(result.recovered_workers, std::vector<int>{3});
  EXPECT_EQ(result.smb_failovers, 1);
  ASSERT_EQ(result.worker_outcomes.size(), 5u);
  EXPECT_EQ(result.worker_outcomes[1], core::WorkerOutcome::kDrained);
  EXPECT_EQ(result.worker_outcomes[2], core::WorkerOutcome::kFinished);
  EXPECT_EQ(result.worker_outcomes[4], core::WorkerOutcome::kFinished);

  core::SimShmCaffeOptions sim(options);
  sim.iterations = 360;
  const cluster::PlatformTiming timing = core::simulate_shmcaffe(sim);
  EXPECT_EQ(timing.journal, result.journal);
  EXPECT_FALSE(result.journal.empty());
  EXPECT_EQ(timing.joined_workers, result.joined_workers);
  EXPECT_EQ(timing.drained_workers, result.drained_workers);
  EXPECT_EQ(timing.quarantine_events, 1);  // the sim models the planned stall only
}

TEST(TrainOptions, ElasticValidation) {
  MembershipPlan plan;
  plan.add({MembershipEventKind::kJoin, 4, 5});

  core::DistTrainOptions hybrid = elastic_train_options();
  hybrid.workers = 4;
  hybrid.group_size = 2;
  hybrid.membership = &plan;
  EXPECT_THROW((void)core::train_shmcaffe(hybrid), std::invalid_argument);

  MembershipPlan bad;
  bad.add({MembershipEventKind::kJoin, 1, 5});  // collides with a live rank
  core::DistTrainOptions low = elastic_train_options();
  low.membership = &bad;
  EXPECT_THROW((void)core::train_shmcaffe(low), std::invalid_argument);
}

}  // namespace
}  // namespace shmcaffe

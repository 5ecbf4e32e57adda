// Tests for the control-event journal (fault/journal.h) and its planner
// (elastic::plan_control_events): the fixed domain order of the composed
// plan, ordinal keys, the executed() multiset filter, per-server integrity
// matching, fingerprint order sensitivity, and the rendering of all twelve
// actions.  The per-domain expander rules are tested next to their domains
// (recovery_test, integrity_test, elastic_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "elastic/membership.h"
#include "fault/fault_plan.h"
#include "fault/journal.h"

namespace shmcaffe {
namespace {

using fault::ControlAction;
using fault::ControlDomain;
using fault::ControlEvent;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;

/// One fault of every kind the three expanders turn into control events.
FaultPlan mixed_plan() {
  FaultPlan plan;
  FaultEvent stall;
  stall.kind = FaultKind::kWorkerStall;
  stall.target = 1;
  stall.iteration = 4;
  stall.duration_seconds = 1.0;
  plan.add(stall);
  FaultEvent corrupt;
  corrupt.kind = FaultKind::kSegmentCorruption;
  corrupt.target = 1;
  corrupt.start_seconds = 0.2;
  corrupt.sequence = 0xbeef;
  plan.add(corrupt);
  FaultEvent crash;
  crash.kind = FaultKind::kWorkerCrash;
  crash.target = 2;
  crash.iteration = 6;
  plan.add(crash);
  FaultEvent fail_stop;
  fail_stop.kind = FaultKind::kServerFailStop;
  fail_stop.target = 0;
  fail_stop.start_seconds = 0.1;
  plan.add(fail_stop);
  return plan;
}

std::vector<ControlEvent> mixed_journal() {
  elastic::MembershipPlan membership;
  membership.add({elastic::MembershipEventKind::kJoin, 3, 2});
  recovery::RecoveryPolicy recovery;
  recovery.respawn_crashed = true;
  recovery::IntegrityPolicy integrity;
  integrity.verify_on_read = true;
  elastic::MembershipPolicy policy;
  policy.straggler_detection = true;
  const FaultPlan faults = mixed_plan();
  return elastic::plan_control_events(&faults, recovery, integrity, &membership, policy, 3);
}

TEST(ControlPlan, ComposesTheDomainsInFixedOrderDeterministically) {
  const std::vector<ControlEvent> expected{
      {ControlAction::kSmbFailover, 0, 1},
      {ControlAction::kWorkerReadmit, 2, 1},
      {ControlAction::kCorruptionInjected, 1, 0xbeef},
      {ControlAction::kCorruptionDetected, 1, 0xbeef},
      {ControlAction::kCorruptionRepaired, 1, 0xbeef},
      {ControlAction::kWorkerJoin, 3, 1},
      {ControlAction::kShardRebalance, 3, 1},
      {ControlAction::kQuarantine, 1, 1},
      {ControlAction::kReadmitContributor, 1, 1},
  };
  const std::vector<ControlEvent> planned = mixed_journal();
  EXPECT_EQ(planned, expected);
  EXPECT_EQ(mixed_journal(), planned);

  // Without a fault plan only the membership plan contributes.
  elastic::MembershipPlan membership;
  membership.add({elastic::MembershipEventKind::kJoin, 3, 2});
  const std::vector<ControlEvent> joins_only{
      {ControlAction::kWorkerJoin, 3, 1},
      {ControlAction::kShardRebalance, 3, 1},
  };
  EXPECT_EQ(elastic::plan_control_events(nullptr, {}, {}, &membership, {}, 3), joins_only);
  EXPECT_TRUE(elastic::plan_control_events(nullptr, {}, {}, nullptr, {}, 3).empty());
}

TEST(ControlJournal, RecordKeysEachEventByItsActionTargetOrdinal) {
  std::vector<ControlEvent> journal;
  fault::record(journal, ControlAction::kQuarantine, 2);
  fault::record(journal, ControlAction::kQuarantine, 5);
  fault::record(journal, ControlAction::kReadmitContributor, 2);
  fault::record(journal, ControlAction::kQuarantine, 2);
  const std::vector<ControlEvent> expected{
      {ControlAction::kQuarantine, 2, 1},
      {ControlAction::kQuarantine, 5, 1},
      {ControlAction::kReadmitContributor, 2, 1},
      {ControlAction::kQuarantine, 2, 2},
  };
  EXPECT_EQ(journal, expected);
}

TEST(ControlJournal, ExecutedDropsUnplannedAndUnobservedEvents) {
  const std::vector<ControlEvent> planned = mixed_journal();
  // The join never fired (its rebalance neither), worker 3's unplanned
  // quarantine is dropped, and the observations arrive out of plan order.
  std::vector<ControlEvent> observed;
  fault::record(observed, ControlAction::kQuarantine, 3);
  fault::record(observed, ControlAction::kReadmitContributor, 1);
  fault::record(observed, ControlAction::kQuarantine, 1);
  fault::record(observed, ControlAction::kWorkerReadmit, 2);
  fault::record(observed, ControlAction::kSmbFailover, 0);
  observed.push_back({ControlAction::kCorruptionInjected, 1, 0xbeef});

  const std::vector<ControlEvent> expected{
      {ControlAction::kSmbFailover, 0, 1},
      {ControlAction::kWorkerReadmit, 2, 1},
      {ControlAction::kCorruptionInjected, 1, 0xbeef},
      {ControlAction::kQuarantine, 1, 1},
      {ControlAction::kReadmitContributor, 1, 1},
  };
  EXPECT_EQ(fault::executed(planned, observed), expected);
  EXPECT_TRUE(fault::executed(planned, {}).empty());
  EXPECT_TRUE(fault::executed({}, observed).empty());
  // A run that observed its whole plan executed exactly the plan.
  EXPECT_EQ(fault::executed(planned, planned), planned);
}

TEST(ControlJournal, ExecutedConsumesARepeatedActionTargetInOrder) {
  std::vector<ControlEvent> planned;
  for (int i = 0; i < 3; ++i) {
    fault::record(planned, ControlAction::kQuarantine, 4);
    fault::record(planned, ControlAction::kReadmitContributor, 4);
  }
  // Two quarantines and one readmit ran: the first two planned quarantines
  // and the first planned readmit survive, in planned order.
  std::vector<ControlEvent> observed;
  fault::record(observed, ControlAction::kQuarantine, 4);
  fault::record(observed, ControlAction::kReadmitContributor, 4);
  fault::record(observed, ControlAction::kQuarantine, 4);
  const std::vector<ControlEvent> expected{
      {ControlAction::kQuarantine, 4, 1},
      {ControlAction::kReadmitContributor, 4, 1},
      {ControlAction::kQuarantine, 4, 2},
  };
  EXPECT_EQ(fault::executed(planned, observed), expected);
}

TEST(ControlJournal, IntegrityMarkersMatchPerServer) {
  // Torn-write ordinals are drawn per server, so servers 0 and 2 can share
  // a marker; an observation on one server never vouches for the other.
  constexpr std::uint64_t kShared = (1ULL << 63) | 4;
  const std::vector<ControlEvent> planned{
      {ControlAction::kTornWriteApplied, 0, kShared},
      {ControlAction::kCorruptionDetected, 0, kShared},
      {ControlAction::kTornWriteApplied, 2, kShared},
      {ControlAction::kCorruptionDetected, 2, kShared},
  };
  const std::vector<ControlEvent> observed{
      {ControlAction::kCorruptionDetected, 2, kShared},
      {ControlAction::kTornWriteApplied, 2, kShared},
      {ControlAction::kCorruptionDetected, 1, kShared},
  };
  const std::vector<ControlEvent> expected{
      {ControlAction::kTornWriteApplied, 2, kShared},
      {ControlAction::kCorruptionDetected, 2, kShared},
  };
  EXPECT_EQ(fault::executed(planned, observed), expected);
}

TEST(ControlJournal, FingerprintIsDeterministicAndOrderSensitive) {
  const std::vector<ControlEvent> planned = mixed_journal();
  EXPECT_EQ(fault::journal_fingerprint(planned), fault::journal_fingerprint(mixed_journal()));
  std::vector<ControlEvent> swapped = planned;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(fault::journal_fingerprint(swapped), fault::journal_fingerprint(planned));
  std::vector<ControlEvent> rekeyed = planned;
  rekeyed.back().key = 2;
  EXPECT_NE(fault::journal_fingerprint(rekeyed), fault::journal_fingerprint(planned));
  EXPECT_NE(fault::journal_fingerprint({}), fault::journal_fingerprint(planned));
}

TEST(ControlJournal, DescribeNamesAllTwelveActions) {
  std::vector<ControlEvent> all;
  std::vector<std::string> names;
  for (int a = 0; a <= static_cast<int>(ControlAction::kShardRebalance); ++a) {
    const auto action = static_cast<ControlAction>(a);
    fault::record(all, action, a);
    names.emplace_back(fault::to_string(action));
  }
  ASSERT_EQ(all.size(), 12u);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());

  const std::string text = fault::describe(all);
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')), all.size());
  for (const std::string& name : names) {
    EXPECT_NE(text.find(name + " target="), std::string::npos) << name;
  }
  // Integrity events print their marker, the others their ordinal.
  std::ostringstream out;
  out << ControlEvent{ControlAction::kCorruptionDetected, 0, 0x5eed} << " / "
      << ControlEvent{ControlAction::kQuarantine, 2, 1};
  EXPECT_EQ(out.str(), "corruption_detected target=0 marker=0x5eed / quarantine target=2 #1");

  EXPECT_EQ(fault::domain_of(ControlAction::kWorkerReadmit), ControlDomain::kRecovery);
  EXPECT_EQ(fault::domain_of(ControlAction::kCorruptionInjected), ControlDomain::kIntegrity);
  EXPECT_EQ(fault::domain_of(ControlAction::kTornWriteApplied), ControlDomain::kIntegrity);
  EXPECT_EQ(fault::domain_of(ControlAction::kWorkerJoin), ControlDomain::kMembership);
}

}  // namespace
}  // namespace shmcaffe

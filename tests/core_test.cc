// Tests for the core module: SEASGD algebra, progress board / termination
// alignment, evaluation, the eq. (8) analytic model, the timed ShmCaffe
// simulator, the run plan both stacks validate alike, and the functional
// distributed trainer end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "coll/pcie_model.h"
#include "common/ordered_mutex.h"
#include "core/analytic.h"
#include "core/config.h"
#include "core/evaluate.h"
#include "core/progress_board.h"
#include "smb/server.h"
#include "core/seasgd_math.h"
#include "core/sim_shmcaffe.h"
#include "core/trainer.h"
#include "elastic/membership.h"

namespace shmcaffe::core {
namespace {

// --- SEASGD algebra ---

TEST(SeasgdMath, IncrementMatchesEquationFive) {
  const std::vector<float> local{1.0F, 2.0F, 3.0F};
  const std::vector<float> global{0.0F, 2.0F, 5.0F};
  std::vector<float> delta(3);
  weight_increment(local, global, 0.5F, delta);
  EXPECT_EQ(delta, (std::vector<float>{0.5F, 0.0F, -1.0F}));
}

TEST(SeasgdMath, ApplyMatchesEquationSix) {
  std::vector<float> local{1.0F, 2.0F, 3.0F};
  const std::vector<float> delta{0.5F, 0.0F, -1.0F};
  apply_increment_locally(local, delta);
  EXPECT_EQ(local, (std::vector<float>{0.5F, 2.0F, 4.0F}));
}

TEST(SeasgdMath, FusedEqualsTwoStep) {
  common::Rng rng(1);
  std::vector<float> local(100);
  std::vector<float> global(100);
  for (auto& v : local) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : global) v = static_cast<float>(rng.uniform(-1, 1));

  std::vector<float> local_a = local;
  std::vector<float> delta_a(100);
  weight_increment(local_a, global, 0.2F, delta_a);
  apply_increment_locally(local_a, delta_a);

  std::vector<float> local_b = local;
  std::vector<float> delta_b(100);
  elastic_exchange(local_b, global, 0.2F, delta_b);

  EXPECT_EQ(local_a, local_b);
  EXPECT_EQ(delta_a, delta_b);
}

TEST(SeasgdMath, ExchangeConservesLocalPlusGlobal) {
  // Eq. (6) subtracts what eq. (7) adds: W'' + W'_g == W' + W_g elementwise.
  common::Rng rng(2);
  std::vector<float> local(64);
  std::vector<float> global(64);
  for (auto& v : local) v = static_cast<float>(rng.uniform(-2, 2));
  for (auto& v : global) v = static_cast<float>(rng.uniform(-2, 2));
  const std::vector<float> local_before = local;
  const std::vector<float> global_before = global;

  std::vector<float> delta(64);
  elastic_exchange(local, global, 0.3F, delta);
  for (std::size_t i = 0; i < 64; ++i) global[i] += delta[i];  // server side, eq. (7)

  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(local[i] + global[i], local_before[i] + global_before[i], 1e-5F);
  }
}

TEST(SeasgdMath, ExchangePullsLocalTowardsGlobal) {
  std::vector<float> local{10.0F};
  std::vector<float> global{0.0F};
  std::vector<float> delta(1);
  elastic_exchange(local, global, 0.2F, delta);
  EXPECT_FLOAT_EQ(local[0], 8.0F);   // moved towards the global
  EXPECT_FLOAT_EQ(delta[0], 2.0F);   // and the global will move up by 2
}

// --- ProgressBoard ---

struct BoardRig {
  smb::SmbServer server;
  ProgressBoard board{server, 42, 4, true};
};

TEST(ProgressBoard, ReportAndReductions) {
  BoardRig rig;
  rig.board.report(0, 10);
  rig.board.report(1, 20);
  rig.board.report(2, 30);
  rig.board.report(3, 40);
  EXPECT_EQ(rig.board.iterations_of(2), 30);
  EXPECT_EQ(rig.board.min_iterations(), 10);
  EXPECT_EQ(rig.board.max_iterations(), 40);
  EXPECT_DOUBLE_EQ(rig.board.mean_iterations(), 25.0);
}

TEST(ProgressBoard, SlavesAttachToSameBoard) {
  smb::SmbServer server;
  ProgressBoard master(server, 7, 2, true);
  ProgressBoard slave(server, 7, 2, false);
  master.report(0, 99);
  EXPECT_EQ(slave.iterations_of(0), 99);
  slave.raise_stop();
  EXPECT_TRUE(master.stop_raised());
}

TEST(ProgressBoard, MasterFinishesCriterion) {
  BoardRig rig;
  // A slave reaching the target does not stop anyone.
  EXPECT_FALSE(rig.board.should_stop(TerminationCriterion::kMasterFinishes, 1, 100, 100));
  EXPECT_FALSE(rig.board.stop_raised());
  // The master reaching it stops everyone.
  EXPECT_TRUE(rig.board.should_stop(TerminationCriterion::kMasterFinishes, 0, 100, 100));
  EXPECT_TRUE(rig.board.stop_raised());
  EXPECT_TRUE(rig.board.should_stop(TerminationCriterion::kMasterFinishes, 2, 5, 100));
}

TEST(ProgressBoard, FirstFinisherCriterion) {
  BoardRig rig;
  EXPECT_FALSE(rig.board.should_stop(TerminationCriterion::kFirstFinisher, 2, 99, 100));
  EXPECT_TRUE(rig.board.should_stop(TerminationCriterion::kFirstFinisher, 2, 100, 100));
  // Everyone else now stops regardless of their own count.
  EXPECT_TRUE(rig.board.should_stop(TerminationCriterion::kFirstFinisher, 0, 1, 100));
}

TEST(ProgressBoard, AverageIterationsCriterion) {
  BoardRig rig;
  rig.board.report(0, 100);
  rig.board.report(1, 100);
  rig.board.report(2, 100);
  // Worker 3 reports 60 via should_stop: mean = 90 < 100 -> keep going.
  EXPECT_FALSE(rig.board.should_stop(TerminationCriterion::kAverageIterations, 3, 60, 100));
  // Worker 3 reports 100: mean = 100 -> stop.
  EXPECT_TRUE(rig.board.should_stop(TerminationCriterion::kAverageIterations, 3, 100, 100));
  EXPECT_TRUE(rig.board.stop_raised());
}

// --- evaluate ---

TEST(Evaluate, UntrainedNetIsNearChance) {
  common::Rng rng(3);
  data::SynthDatasetOptions data_options;
  data_options.size = 256;
  data_options.channels = 1;
  data_options.height = 8;
  data_options.width = 8;
  data_options.classes = 4;
  const data::SynthImageDataset dataset(data_options);

  dl::ModelInputSpec spec{1, 8, 8, 4};
  dl::Net net = dl::make_mlp(spec, 16);
  net.init_params(rng);
  const EvalResult result = evaluate(net, dataset);
  EXPECT_EQ(result.samples, 256u);
  EXPECT_NEAR(result.accuracy, 0.25, 0.2);
  EXPECT_NEAR(result.loss, std::log(4.0), 0.8);
}

// --- analytic eq. (8) ---

TEST(Analytic, HiddenCommunicationWhenComputeDominates) {
  AnalyticIteration it;
  it.t_comp = 1000;
  it.t_rgw = 50;
  it.t_ulw = 10;
  it.t_wwi = 100;
  it.t_ugw = 200;  // wwi+ugw = 300 < comp: fully hidden
  EXPECT_EQ(it.iteration(), 1060);
  EXPECT_EQ(it.communication(), 60);  // only rgw + ulw remain visible
}

TEST(Analytic, UnhiddenCommunicationWhenWriteDominates) {
  AnalyticIteration it;
  it.t_comp = 100;
  it.t_rgw = 50;
  it.t_ulw = 10;
  it.t_wwi = 300;
  it.t_ugw = 200;  // wwi+ugw = 500 > comp
  EXPECT_EQ(it.iteration(), 560);
  EXPECT_EQ(it.communication(), 460);
}

TEST(Analytic, SeasgdTermsFromProfiles) {
  const auto& model = cluster::profile(cluster::ModelKind::kInceptionV1);
  const cluster::TestbedSpec spec;
  const AnalyticIteration it = analytic_seasgd_iteration(model, spec);
  EXPECT_EQ(it.t_comp, model.comp_time);
  EXPECT_GT(it.t_rgw, 0);
  EXPECT_EQ(it.t_rgw, it.t_wwi);
  // Inception-v1's exchange hides behind its compute.
  EXPECT_LT(it.t_wwi + it.t_ugw, it.t_comp);
}

// --- timed ShmCaffe simulator ---

TEST(SimShmCaffe, SingleWorkerHasNoExchange) {
  SimShmCaffeOptions options;
  options.workers = 1;
  options.iterations = 50;
  options.jitter.slow_probability = 0.0;
  const cluster::PlatformTiming timing = simulate_shmcaffe(options);
  EXPECT_EQ(timing.mean_comm, 0);
  EXPECT_NEAR(static_cast<double>(timing.mean_comp),
              static_cast<double>(cluster::profile(options.model).comp_time),
              static_cast<double>(cluster::profile(options.model).comp_time) * 0.16);
}

TEST(SimShmCaffe, SingleGroupHybridSkipsSmb) {
  // 4(S4, A0): plain intra-node SSGD; comm is straggler wait + PCIe only.
  SimShmCaffeOptions options;
  options.workers = 4;
  options.group_size = 4;
  options.iterations = 50;
  options.jitter.slow_probability = 0.0;
  const cluster::PlatformTiming timing = simulate_shmcaffe(options);
  const coll::PcieModel pcie{options.testbed.pcie_bus_bandwidth, 20 * units::kMicrosecond};
  const SimTime expected_comm = pcie.ring_allreduce_time(
      4, cluster::profile(options.model).param_bytes);
  EXPECT_NEAR(static_cast<double>(timing.mean_comm), static_cast<double>(expected_comm),
              static_cast<double>(expected_comm) * 0.1 + 1e5);
}

TEST(SimShmCaffe, CommunicationGrowsWithWorkersForLargeModels) {
  auto comm_at = [](int workers) {
    SimShmCaffeOptions options;
    options.model = cluster::ModelKind::kInceptionResnetV2;
    options.workers = workers;
    options.iterations = 60;
    return simulate_shmcaffe(options).mean_comm;
  };
  const SimTime c2 = comm_at(2);
  const SimTime c8 = comm_at(8);
  const SimTime c16 = comm_at(16);
  EXPECT_LT(c2, c8);
  EXPECT_LT(c8, c16);
  // The paper: the large model's communication "increases rapidly" at 16.
  EXPECT_GT(c16, 2 * c8);
}

TEST(SimShmCaffe, HybridBeatsAsyncAtScaleForLargeModels) {
  SimShmCaffeOptions async_options;
  async_options.model = cluster::ModelKind::kInceptionResnetV2;
  async_options.workers = 16;
  async_options.iterations = 60;
  SimShmCaffeOptions hybrid_options = async_options;
  hybrid_options.group_size = 4;
  const auto async_timing = simulate_shmcaffe(async_options);
  const auto hybrid_timing = simulate_shmcaffe(hybrid_options);
  EXPECT_LT(hybrid_timing.mean_comm, async_timing.mean_comm / 2);
  EXPECT_LT(hybrid_timing.mean_iteration(), async_timing.mean_iteration());
}

TEST(SimShmCaffe, UpdateIntervalReducesCommunication) {
  SimShmCaffeOptions options;
  options.model = cluster::ModelKind::kResNet50;
  options.workers = 16;
  options.iterations = 80;
  const auto every = simulate_shmcaffe(options);
  options.update_interval = 4;
  const auto sparse = simulate_shmcaffe(options);
  EXPECT_LT(sparse.mean_comm, every.mean_comm);
}

TEST(SimShmCaffe, VggIsCommunicationBoundEvenAtTwoWorkers) {
  SimShmCaffeOptions options;
  options.model = cluster::ModelKind::kVgg16;
  options.workers = 2;
  options.iterations = 60;
  const auto timing = simulate_shmcaffe(options);
  // Paper: one-iteration communication 727.7 ms vs computation 194.9 ms —
  // scaling VGG16 out is counterproductive.
  EXPECT_GT(timing.comm_ratio(), 0.5);
  EXPECT_GT(timing.mean_comm, 2 * timing.mean_comp);
}

TEST(SimShmCaffe, DeterministicForSameSeed) {
  SimShmCaffeOptions options;
  options.workers = 8;
  options.iterations = 40;
  const auto a = simulate_shmcaffe(options);
  const auto b = simulate_shmcaffe(options);
  EXPECT_EQ(a.mean_comp, b.mean_comp);
  EXPECT_EQ(a.mean_comm, b.mean_comm);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(SimShmCaffe, MatchesAnalyticModelWithoutContention) {
  // One worker + forced exchange-with-self is not meaningful; instead use
  // two workers of a compute-bound model and no jitter: per eq. (8) the
  // iteration is t_rgw + t_ulw + comp (exchange hidden).
  SimShmCaffeOptions options;
  options.model = cluster::ModelKind::kInceptionV1;
  options.workers = 2;
  options.iterations = 50;
  options.jitter.slow_probability = 0.0;
  const auto timing = simulate_shmcaffe(options);

  cluster::TestbedSpec spec;
  const auto& model = cluster::profile(options.model);
  AnalyticIteration analytic = analytic_seasgd_iteration(model, spec);
  // The per-client stream rate is the binding constraint in the simulator.
  const double wire = spec.smb_client_stream_bandwidth * spec.fabric_efficiency;
  analytic.t_rgw = units::transfer_time(model.param_bytes, wire);
  analytic.t_wwi = analytic.t_rgw;

  EXPECT_NEAR(static_cast<double>(timing.mean_iteration()),
              static_cast<double>(analytic.iteration()),
              static_cast<double>(analytic.iteration()) * 0.05);
}

// --- functional trainer end-to-end ---

DistTrainOptions small_train_options(int workers, int group_size) {
  DistTrainOptions options;
  options.model_family = "mlp";
  options.workers = workers;
  options.group_size = group_size;
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
  options.epochs = 5;
  return options;
}

// --- the run plan: one rule set for both stacks ---

TEST(RunPlan, BothStacksRejectEveryInvalidPlan) {
  elastic::MembershipPlan join_above;  // a valid cold join for 4 initial workers
  join_above.add({elastic::MembershipEventKind::kJoin, 4, 5});
  elastic::MembershipPlan join_onto_live_rank;
  join_onto_live_rank.add({elastic::MembershipEventKind::kJoin, 1, 5});
  struct Row {
    const char* name;
    std::function<void(RunPlan&)> make_invalid;
  };
  const std::vector<Row> rows = {
      {"no workers", [](RunPlan& p) { p.workers = 0; }},
      {"group_size does not divide workers", [](RunPlan& p) { p.group_size = 3; }},
      {"update_interval 0", [](RunPlan& p) { p.update_interval = 0; }},
      {"no SMB servers", [](RunPlan& p) { p.smb_servers = 0; }},
      {"no SMB replicas", [](RunPlan& p) { p.smb_replicas = 0; }},
      {"respawn in hybrid groups",
       [](RunPlan& p) {
         p.group_size = 2;
         p.recovery.respawn_crashed = true;
       }},
      {"membership plan in hybrid groups",
       [&](RunPlan& p) {
         p.group_size = 2;
         p.membership = &join_above;
       }},
      {"straggler detection in hybrid groups",
       [](RunPlan& p) {
         p.group_size = 2;
         p.membership_policy.straggler_detection = true;
       }},
      {"join slot of an initial rank", [&](RunPlan& p) { p.membership = &join_onto_live_rank; }},
  };
  for (const Row& row : rows) {
    DistTrainOptions functional = small_train_options(4, 1);
    row.make_invalid(functional);
    EXPECT_THROW((void)train_shmcaffe(functional), std::invalid_argument) << row.name;
    const SimShmCaffeOptions simulated(functional);
    EXPECT_THROW((void)simulate_shmcaffe(simulated), std::invalid_argument) << row.name;
  }
}

TEST(TrainShmCaffe, RejectsInvalidOptions) {
  DistTrainOptions options;
  options.workers = 4;
  options.group_size = 3;  // does not divide 4
  EXPECT_THROW(train_shmcaffe(options), std::invalid_argument);
  options.group_size = 1;
  options.update_interval = 0;
  EXPECT_THROW(train_shmcaffe(options), std::invalid_argument);
}

TEST(TrainShmCaffe, SingleWorkerLearns) {
  const TrainResult result = train_shmcaffe(small_train_options(1, 1));
  EXPECT_GT(result.final_accuracy, 0.85);
  EXPECT_LT(result.final_loss, 0.7);
  EXPECT_EQ(result.curve.size(), 5u);
  EXPECT_EQ(result.curve.back().epoch, 5);
}

TEST(TrainShmCaffe, AsyncWorkersLearn) {
  const TrainResult result = train_shmcaffe(small_train_options(4, 1));
  EXPECT_GT(result.final_accuracy, 0.8);
  ASSERT_EQ(result.iterations_per_worker.size(), 4u);
  for (std::int64_t iters : result.iterations_per_worker) EXPECT_GT(iters, 0);
}

TEST(TrainShmCaffe, HybridWorkersLearn) {
  const TrainResult result = train_shmcaffe(small_train_options(4, 2));
  EXPECT_GT(result.final_accuracy, 0.8);
}

TEST(TrainShmCaffe, FullySynchronousSingleGroupLearns) {
  const TrainResult result = train_shmcaffe(small_train_options(4, 4));
  EXPECT_GT(result.final_accuracy, 0.8);
}

TEST(TrainShmCaffe, UpdateIntervalTwoStillConverges) {
  DistTrainOptions options = small_train_options(4, 1);
  options.update_interval = 2;
  const TrainResult result = train_shmcaffe(options);
  EXPECT_GT(result.final_accuracy, 0.75);
}

TEST(TrainShmCaffe, AccuracyImprovesAlongCurve) {
  const TrainResult result = train_shmcaffe(small_train_options(2, 1));
  ASSERT_GE(result.curve.size(), 2u);
  EXPECT_GT(result.curve.back().test_accuracy, result.curve.front().test_accuracy - 0.05);
  EXPECT_GT(result.final_accuracy, 0.8);
}

class TerminationModes : public ::testing::TestWithParam<TerminationCriterion> {};

TEST_P(TerminationModes, AllWorkersFinishAndModelLearns) {
  DistTrainOptions options = small_train_options(4, 1);
  options.termination = GetParam();
  const TrainResult result = train_shmcaffe(options);
  // Every worker terminated (the trainer returned), iteration counts are
  // positive, and nobody ran off to infinity.
  for (std::int64_t iters : result.iterations_per_worker) {
    EXPECT_GT(iters, 0);
    EXPECT_LT(iters, 10'000);
  }
  EXPECT_GT(result.final_accuracy, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Criteria, TerminationModes,
    ::testing::Values(TerminationCriterion::kMasterFinishes,
                      TerminationCriterion::kFirstFinisher,
                      TerminationCriterion::kAverageIterations),
    [](const ::testing::TestParamInfo<TerminationCriterion>& info) {
      switch (info.param) {
        case TerminationCriterion::kMasterFinishes: return "master";
        case TerminationCriterion::kFirstFinisher: return "first";
        case TerminationCriterion::kAverageIterations: return "average";
      }
      return "unknown";
    });

}  // namespace
}  // namespace shmcaffe::core

namespace shmcaffe::core {
namespace {

TEST(TrainShmCaffe, WorkerStatsAreCoherent) {
  DistTrainOptions options;
  options.model_family = "mlp";
  options.workers = 4;
  options.group_size = 2;
  options.input = dl::ModelInputSpec{1, 12, 12, 6};
  options.train_data.channels = 1;
  options.train_data.height = 12;
  options.train_data.width = 12;
  options.train_data.classes = 6;
  options.train_data.size = 1536;
  options.test_data = options.train_data;
  options.test_data.size = 384;
  options.test_data.seed = 0x7e57;
  options.batch_size = 16;
  options.epochs = 3;
  const TrainResult result = train_shmcaffe(options);
  ASSERT_EQ(result.worker_stats.size(), 4u);
  for (int w = 0; w < 4; ++w) {
    const WorkerStats& stats = result.worker_stats[static_cast<std::size_t>(w)];
    EXPECT_GT(stats.iterations, 0) << w;
    EXPECT_GT(stats.train_seconds, 0.0) << w;
    // Only group roots exchange with the SMB; members broadcast instead.
    if (w % 2 == 0) {
      EXPECT_GT(stats.exchanges, 0) << w;
      EXPECT_GT(stats.exchange_seconds, 0.0) << w;
    } else {
      EXPECT_EQ(stats.exchanges, 0) << w;
    }
    EXPECT_GT(stats.collective_seconds, 0.0) << w;
    // Accounted time cannot exceed the whole run.
    EXPECT_LE(stats.train_seconds + stats.exchange_seconds + stats.collective_seconds +
                  stats.data_wait_seconds,
              result.wall_seconds * 1.05)
        << w;
  }
}

TEST(TrainShmCaffe, AsyncWorkersAllExchange) {
  DistTrainOptions options;
  options.model_family = "mlp";
  options.workers = 3;
  options.input = dl::ModelInputSpec{1, 12, 12, 6};
  options.train_data.channels = 1;
  options.train_data.height = 12;
  options.train_data.width = 12;
  options.train_data.classes = 6;
  options.train_data.size = 1536;
  options.test_data = options.train_data;
  options.test_data.size = 384;
  options.test_data.seed = 0x7e57;
  options.batch_size = 16;
  options.epochs = 2;
  options.update_interval = 2;
  const TrainResult result = train_shmcaffe(options);
  for (const WorkerStats& stats : result.worker_stats) {
    EXPECT_GT(stats.exchanges, 0);
    // update_interval 2: roughly half the iterations exchange.
    EXPECT_LE(stats.exchanges, stats.iterations / 2 + 1);
  }
}


// Lock-order guard: the suite above drives the instrumented mutexes hard
// (trainer workers, progress board, SMB); any rank inversion or acquisition-graph cycle they produced
// is a latent deadlock.  Runs last in this binary by declaration order.
TEST(LockOrder, CleanUnderTrainerConcurrency) {
  EXPECT_TRUE(shmcaffe::common::LockOrderRegistry::instance().violations().empty())
      << shmcaffe::common::LockOrderRegistry::instance().violations().size()
      << " lock-order violation(s); see stderr for details";
}

}  // namespace
}  // namespace shmcaffe::core

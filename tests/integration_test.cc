// Cross-module integration tests: whole-pipeline properties that no single
// module's suite can check.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "baselines/functional_ssgd.h"
#include "core/trainer.h"
#include "dl/param_vector.h"
#include "minimpi/minimpi.h"
#include "smb/server.h"

namespace shmcaffe {
namespace {

core::DistTrainOptions tiny_options(int workers, int group_size) {
  core::DistTrainOptions options;
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
  options.epochs = 4;
  return options;
}

TEST(Integration, ShmCaffeMatchesSsgdOnOneWorker) {
  // With one worker there is no asynchrony: ShmCaffe degenerates to plain
  // SGD, as does every SSGD transport.  Same seed, same data: accuracies
  // agree closely.
  const core::TrainResult shm = core::train_shmcaffe(tiny_options(1, 1));
  const core::TrainResult ssgd =
      baselines::train_ssgd(tiny_options(1, 1), baselines::SsgdTransport::kNcclAllReduce);
  EXPECT_NEAR(shm.final_accuracy, ssgd.final_accuracy, 0.05);
  EXPECT_GT(shm.final_accuracy, 0.85);
}

TEST(Integration, GlobalWeightsEqualLocalAfterSingleWorkerRun) {
  // After a 1-worker ShmCaffe run the global buffer holds exactly what the
  // worker pushed: W_g = W_local after the last exchange; both evaluate
  // identically (verified through the returned curve's final point).
  const core::TrainResult result = core::train_shmcaffe(tiny_options(1, 1));
  ASSERT_FALSE(result.curve.empty());
  EXPECT_NEAR(result.curve.back().test_accuracy, result.final_accuracy, 0.03);
}

TEST(Integration, SmbSurvivesTrainerScaleStress) {
  // Many short overlapping training runs against fresh servers: lifecycle
  // correctness (segments, boards, threads) under repetition.
  for (int round = 0; round < 3; ++round) {
    core::DistTrainOptions options = tiny_options(4, 2);
    options.epochs = 1;
    options.seed = 0x100 + static_cast<std::uint64_t>(round);
    const core::TrainResult result = core::train_shmcaffe(options);
    EXPECT_GT(result.final_accuracy, 0.1);
  }
}

TEST(Integration, HybridGroupMembersStayBitwiseIdentical) {
  // In hybrid mode all members of a group must hold identical weights after
  // every iteration (allreduce + broadcast).  We verify through the public
  // surface: a group_size == workers run must match the pure SSGD baseline
  // closely (same maths, modulo fp association).
  const core::TrainResult hybrid = core::train_shmcaffe(tiny_options(4, 4));
  const core::TrainResult ssgd =
      baselines::train_ssgd(tiny_options(4, 1), baselines::SsgdTransport::kNcclAllReduce);
  EXPECT_NEAR(hybrid.final_accuracy, ssgd.final_accuracy, 0.08);
}

TEST(Integration, MpiAndSmbComposeInOneProcess) {
  // The trainer stacks MiniMPI (init), SMB (parameter sharing) and NCCL
  // (intra-group) in one address space; two trainers can run sequentially
  // without leaking state into each other.
  const core::TrainResult first = core::train_shmcaffe(tiny_options(2, 1));
  const core::TrainResult second = core::train_shmcaffe(tiny_options(2, 2));
  EXPECT_GT(first.final_accuracy, 0.7);
  EXPECT_GT(second.final_accuracy, 0.7);
}

}  // namespace
}  // namespace shmcaffe

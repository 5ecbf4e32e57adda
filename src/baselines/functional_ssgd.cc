#include "baselines/functional_ssgd.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "coll/nccl.h"
#include "common/parallel.h"
#include "core/evaluate.h"
#include "data/loader.h"
#include "dl/param_vector.h"
#include "minimpi/minimpi.h"

namespace shmcaffe::baselines {
namespace {

constexpr int kGradTag = 101;
constexpr int kWeightTag = 102;

struct SsgdShared {
  const core::DistTrainOptions* options = nullptr;
  SsgdTransport transport = SsgdTransport::kNcclAllReduce;
  const data::SynthImageDataset* train_set = nullptr;
  const data::SynthImageDataset* test_set = nullptr;
  minimpi::Context* mpi = nullptr;
  coll::DeviceGroup* group = nullptr;
  core::IterationTargets targets;
  std::mutex curve_mutex;
  std::vector<core::EpochMetrics> curve;
};

void run_rank(SsgdShared& shared, int rank) {
  const common::parallel::Lane lane;  // a compute lane of the work pool
  const core::DistTrainOptions& options = *shared.options;
  const int world = options.workers;
  minimpi::Endpoint mpi = shared.mpi->endpoint(rank);
  coll::Communicator comm = shared.group->communicator(rank);

  dl::Net net = dl::make_model(options.model_family, options.input);
  const std::size_t param_count = net.param_count();
  std::vector<float> flat(param_count);

  // Rank 0 initialises; everyone adopts the same starting point.
  if (rank == 0) {
    common::Rng init_rng(options.seed);
    net.init_params(init_rng);
    dl::copy_params_to(net, flat);
  }
  mpi.broadcast(0, flat);
  dl::copy_params_from(net, flat);

  dl::SolverOptions solver_options = options.solver;
  solver_options.step_size = shared.targets.lr_step;
  dl::SgdSolver solver(net, solver_options);

  data::Prefetcher prefetcher(
      data::ShardedLoader(*shared.train_set, rank, world, options.batch_size,
                          options.seed ^ 0xda7aULL),
      options.prefetch_depth);

  std::vector<float> grads(param_count);
  std::vector<float> incoming(param_count);

  for (std::int64_t iteration = 0; iteration < shared.targets.per_worker; ++iteration) {
    data::Batch batch = prefetcher.next();
    net.input("data") = std::move(batch.data);
    net.input("label") = std::move(batch.labels);
    (void)net.forward(/*train=*/true);
    net.backward();

    switch (shared.transport) {
      case SsgdTransport::kNcclAllReduce: {
        dl::copy_grads_to(net, grads);
        comm.all_reduce_mean(grads);
        dl::copy_grads_from(net, grads);
        solver.step();
        break;
      }
      case SsgdTransport::kMpiAllReduce: {
        dl::copy_grads_to(net, grads);
        mpi.allreduce_sum(grads);
        const float inv = 1.0F / static_cast<float>(world);
        for (float& g : grads) g *= inv;
        dl::copy_grads_from(net, grads);
        solver.step();
        break;
      }
      case SsgdTransport::kMpiStar: {
        dl::copy_grads_to(net, grads);
        if (rank == 0) {
          // Master gathers and averages the gradients, updates the master
          // weights, then pushes them to every slave.
          for (int r = 1; r < world; ++r) {
            mpi.recv_floats(r, kGradTag, incoming);
            for (std::size_t i = 0; i < param_count; ++i) grads[i] += incoming[i];
          }
          const float inv = 1.0F / static_cast<float>(world);
          for (float& g : grads) g *= inv;
          dl::copy_grads_from(net, grads);
          solver.step();
          dl::copy_params_to(net, flat);
          for (int r = 1; r < world; ++r) mpi.send_floats(r, kWeightTag, flat);
        } else {
          mpi.send_floats(0, kGradTag, grads);
          mpi.recv_floats(0, kWeightTag, flat);
          dl::copy_params_from(net, flat);
          net.zero_param_grads();
        }
        break;
      }
    }

    // Rank 0 evaluates the (identical) model at epoch boundaries.
    if (rank == 0 && (iteration + 1) % shared.targets.per_worker_per_epoch == 0) {
      const int epoch = static_cast<int>((iteration + 1) / shared.targets.per_worker_per_epoch);
      const core::EvalResult eval = core::evaluate(net, *shared.test_set);
      std::scoped_lock lock(shared.curve_mutex);
      shared.curve.push_back(core::EpochMetrics{epoch, eval.loss, eval.accuracy});
    }
  }
}

}  // namespace

core::TrainResult train_ssgd(const core::DistTrainOptions& options, SsgdTransport transport) {
  if (options.workers < 1) throw std::invalid_argument("workers must be >= 1");

  const data::SynthImageDataset train_set(options.train_data);
  const data::SynthImageDataset test_set(options.test_data);

  minimpi::Context mpi(options.workers);
  coll::DeviceGroup group(options.workers);

  SsgdShared shared;
  shared.options = &options;
  shared.transport = transport;
  shared.train_set = &train_set;
  shared.test_set = &test_set;
  shared.mpi = &mpi;
  shared.group = &group;

  shared.targets = core::iteration_targets(options);

  const auto wall_start = std::chrono::steady_clock::now();
  // One thread per distributed rank (worker lifecycle, not compute).
  std::vector<std::thread> threads;  // lint:allow(no-raw-thread)
  threads.reserve(static_cast<std::size_t>(options.workers));
  for (int r = 0; r < options.workers; ++r) {
    threads.emplace_back([&shared, r] { run_rank(shared, r); });
  }
  for (auto& t : threads) t.join();

  core::TrainResult result;
  result.curve = std::move(shared.curve);
  if (!result.curve.empty()) {
    result.final_accuracy = result.curve.back().test_accuracy;
    result.final_loss = result.curve.back().test_loss;
  }
  result.iterations_per_worker.assign(static_cast<std::size_t>(options.workers),
                                      shared.targets.per_worker);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

}  // namespace shmcaffe::baselines

#include "baselines/async_ps.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/parallel.h"
#include "core/evaluate.h"
#include "data/loader.h"
#include "dl/param_vector.h"

namespace shmcaffe::baselines {

ParameterServer::ParameterServer(std::size_t count) : weights_(count, 0.0F) {
  if (count == 0) throw std::invalid_argument("ParameterServer: empty weights");
}

void ParameterServer::initialize(std::span<const float> weights) {
  std::scoped_lock lock(mutex_);
  if (weights.size() != weights_.size()) {
    throw std::invalid_argument("ParameterServer: initialize size mismatch");
  }
  std::copy(weights.begin(), weights.end(), weights_.begin());
}

void ParameterServer::pull(std::span<float> dst) const {
  std::scoped_lock lock(mutex_);
  if (dst.size() != weights_.size()) {
    throw std::invalid_argument("ParameterServer: pull size mismatch");
  }
  std::copy(weights_.begin(), weights_.end(), dst.begin());
}

void ParameterServer::push_gradient(std::span<const float> gradients, float lr) {
  std::scoped_lock lock(mutex_);
  if (gradients.size() != weights_.size()) {
    throw std::invalid_argument("ParameterServer: push size mismatch");
  }
  for (std::size_t i = 0; i < weights_.size(); ++i) weights_[i] -= lr * gradients[i];
  ++updates_;
}

std::uint64_t ParameterServer::update_count() const {
  std::scoped_lock lock(mutex_);
  return updates_;
}

namespace {

struct DownpourShared {
  const core::DistTrainOptions* options = nullptr;
  const DownpourOptions* downpour = nullptr;
  const data::SynthImageDataset* train_set = nullptr;
  ParameterServer* server = nullptr;
  core::IterationTargets targets;
  /// Total iterations across all workers per epoch.
  std::int64_t per_epoch_total = 1;
  /// Epoch crossings and worker exits wake the evaluator (train_downpour's
  /// calling thread) through `wake`.
  std::mutex mutex;
  std::condition_variable wake;
  std::int64_t total_iterations = 0;  // under mutex
  int running = 0;                    // under mutex: workers not yet exited
};

void run_downpour_worker(DownpourShared& shared, int worker) {
  const common::parallel::Lane lane;  // a compute lane of the work pool
  const core::DistTrainOptions& options = *shared.options;
  const DownpourOptions& downpour = *shared.downpour;

  dl::Net net = dl::make_model(options.model_family, options.input);
  const std::size_t param_count = net.param_count();

  std::vector<float> weights(param_count);
  shared.server->pull(weights);
  dl::copy_params_from(net, weights);

  dl::SolverOptions solver_options = options.solver;
  solver_options.step_size = shared.targets.lr_step;
  // The local replica steps with plain SGD; the authoritative update
  // happens at the server (Downpour keeps optimiser state server-side).
  dl::SgdSolver solver(net, solver_options);

  data::Prefetcher prefetcher(
      data::ShardedLoader(*shared.train_set, worker, options.workers, options.batch_size,
                          options.seed ^ 0xd0f9ULL),
      options.prefetch_depth);

  std::vector<float> grads(param_count);
  std::vector<float> accumulated(param_count, 0.0F);
  int since_push = 0;

  for (std::int64_t iteration = 0; iteration < shared.targets.per_worker; ++iteration) {
    if (iteration % downpour.fetch_interval == 0) {
      shared.server->pull(weights);
      dl::copy_params_from(net, weights);
    }
    data::Batch batch = prefetcher.next();
    net.input("data") = std::move(batch.data);
    net.input("label") = std::move(batch.labels);
    (void)net.forward(/*train=*/true);
    net.backward();
    dl::copy_grads_to(net, grads);
    for (std::size_t i = 0; i < param_count; ++i) accumulated[i] += grads[i];
    ++since_push;
    if (since_push >= downpour.push_interval) {
      shared.server->push_gradient(
          accumulated,
          static_cast<float>(solver.learning_rate(static_cast<int>(iteration))));
      std::fill(accumulated.begin(), accumulated.end(), 0.0F);
      since_push = 0;
    }
    // The local replica also steps so training continues between fetches.
    solver.step();
    std::scoped_lock lock(shared.mutex);
    if (++shared.total_iterations % shared.per_epoch_total == 0) shared.wake.notify_one();
  }
  std::scoped_lock lock(shared.mutex);
  --shared.running;
  shared.wake.notify_one();
}

}  // namespace

core::TrainResult train_downpour(const core::DistTrainOptions& options,
                                 DownpourOptions downpour) {
  if (options.workers < 1) throw std::invalid_argument("workers must be >= 1");
  if (downpour.fetch_interval < 1 || downpour.push_interval < 1) {
    throw std::invalid_argument("downpour intervals must be >= 1");
  }

  const data::SynthImageDataset train_set(options.train_data);
  const data::SynthImageDataset test_set(options.test_data);

  dl::Net init_net = dl::make_model(options.model_family, options.input);
  common::Rng init_rng(options.seed);
  init_net.init_params(init_rng);
  ParameterServer server(init_net.param_count());
  {
    std::vector<float> init(init_net.param_count());
    dl::copy_params_to(init_net, init);
    server.initialize(init);
  }

  DownpourShared shared;
  shared.options = &options;
  shared.downpour = &downpour;
  shared.train_set = &train_set;
  shared.server = &server;
  shared.targets = core::iteration_targets(options);
  shared.per_epoch_total = std::max<std::int64_t>(
      1, shared.targets.per_worker * static_cast<std::int64_t>(options.workers) / options.epochs);
  shared.running = options.workers;

  const auto wall_start = std::chrono::steady_clock::now();
  // One thread per Downpour worker (rank model, not compute parallelism).
  std::vector<std::thread> threads;  // lint:allow(no-raw-thread)
  for (int w = 0; w < options.workers; ++w) {
    threads.emplace_back([&shared, w] { run_downpour_worker(shared, w); });
  }

  // Orchestrator: evaluate the *server's* weights at each epoch boundary
  // the workers cross while they run.
  core::TrainResult result;
  dl::Net eval_net = dl::make_model(options.model_family, options.input);
  std::vector<float> snapshot(init_net.param_count());
  int next_epoch = 1;
  const auto epoch_due = [&] {
    return next_epoch < options.epochs &&
           shared.total_iterations >= static_cast<std::int64_t>(next_epoch) * shared.per_epoch_total;
  };
  std::unique_lock lock(shared.mutex);
  for (;;) {
    shared.wake.wait(lock, [&] { return shared.running == 0 || epoch_due(); });
    if (shared.running == 0) break;
    lock.unlock();
    server.pull(snapshot);
    dl::copy_params_from(eval_net, snapshot);
    const core::EvalResult eval = core::evaluate(eval_net, test_set);
    result.curve.push_back(core::EpochMetrics{next_epoch, eval.loss, eval.accuracy});
    ++next_epoch;
    lock.lock();
  }
  lock.unlock();
  for (auto& t : threads) t.join();

  server.pull(snapshot);
  dl::copy_params_from(eval_net, snapshot);
  const core::EvalResult final_eval = core::evaluate(eval_net, test_set);
  result.final_accuracy = final_eval.accuracy;
  result.final_loss = final_eval.loss;
  result.curve.push_back(
      core::EpochMetrics{options.epochs, final_eval.loss, final_eval.accuracy});
  result.iterations_per_worker.assign(static_cast<std::size_t>(options.workers),
                                      shared.targets.per_worker);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

}  // namespace shmcaffe::baselines

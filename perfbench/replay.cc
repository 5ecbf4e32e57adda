#include "replay.h"

#include <barrier>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "coll/nccl.h"
#include "common/parallel.h"
#include "core/evaluate.h"
#include "core/progress_board.h"
#include "core/seasgd_math.h"
#include "core/sharded_buffer.h"
#include "data/loader.h"
#include "dl/param_vector.h"
#include "smb/server.h"

namespace perfbench {
namespace {

namespace core = shmcaffe::core;
namespace dl = shmcaffe::dl;

constexpr shmcaffe::smb::ShmKey kGlobalKey = 0x5eed;
constexpr shmcaffe::smb::ShmKey kBoardKey = kGlobalKey + 1'000'000;
constexpr std::int64_t kIncarnation = core::ProgressBoard::kFirstIncarnation;
constexpr std::int64_t kNeverStop = std::numeric_limits<std::int64_t>::max() / 4;
constexpr int kPoolCallsPerSubmitter = 400;

/// State every replay worker reads; fixed before the threads start.
struct Shared {
  const Workload* workload = nullptr;
  core::DistTrainOptions options;
  const shmcaffe::data::SynthImageDataset* train_set = nullptr;
  std::vector<shmcaffe::smb::SmbServer*> servers;
  core::ProgressBoard* board = nullptr;
  std::vector<std::unique_ptr<shmcaffe::coll::DeviceGroup>> groups;
  std::vector<Lane*> step_lanes;    // per worker, or empty when untraced
  std::vector<Lane*> flush_lanes;   // per worker (roots use theirs)
  std::barrier<>* ready = nullptr;  // workers + main: everyone set up
  std::barrier<>* go = nullptr;     // workers + main: clock started
  std::vector<std::int64_t> exchanges;
};

/// The Fig. 6 update-thread handshake of one group root.
struct Flush {
  std::mutex mutex;
  std::condition_variable cv;
  bool pending = false;
  bool stopping = false;
  SpanId cause = kNoSpan;  // the exchange span that posted the increment
  std::int64_t iteration = 0;
};

void replay_worker(Shared& shared, int worker) {
  const Workload& workload = *shared.workload;
  const core::DistTrainOptions& options = shared.options;
  const int local_rank = worker % workload.group_size;
  const bool root = local_rank == 0;
  Lane* lane = shared.step_lanes.empty() ? nullptr : shared.step_lanes[worker];
  Lane* flush_lane = shared.flush_lanes.empty() ? nullptr : shared.flush_lanes[worker];

  dl::Net net = dl::make_model(options.model_family, options.input);
  const std::size_t n = net.param_count();
  core::ShardedBuffer global = core::ShardedBuffer::attach(
      std::span<shmcaffe::smb::SmbServer* const>(shared.servers), kGlobalKey, n);
  core::ShardedBuffer delta_buffer;
  if (root) {
    delta_buffer = core::ShardedBuffer::create(
        std::span<shmcaffe::smb::SmbServer* const>(shared.servers),
        kGlobalKey + 1 + static_cast<shmcaffe::smb::ShmKey>(worker), n);
  }
  std::vector<float> local(n);
  std::vector<float> delta(n);
  std::vector<float> grads(workload.hybrid() ? n : 0);
  std::vector<float> vote(1);
  global.read(local);
  dl::copy_params_from(net, local);
  dl::SolverOptions solver_options = options.solver;
  solver_options.step_size = std::numeric_limits<int>::max();
  dl::SgdSolver solver(net, solver_options);
  shmcaffe::data::Prefetcher prefetcher(
      shmcaffe::data::ShardedLoader(*shared.train_set, worker, workload.workers, kBatch,
                                    options.seed ^ 0xda7aULL),
      options.prefetch_depth);
  shmcaffe::coll::Communicator comm =
      shared.groups[static_cast<std::size_t>(worker / workload.group_size)]->communicator(
          local_rank);
  core::ProgressBoard& board = *shared.board;
  board.heartbeat(worker, kIncarnation);

  Flush flush;
  std::thread update_thread;
  if (root) {
    // T.A1-A4 under the exchange lock, exactly as the trainer's update
    // thread: the main thread is parked on the cv whenever this runs.
    update_thread = std::thread([&] {
      std::unique_lock lock(flush.mutex);
      for (;;) {
        flush.cv.wait(lock, [&] { return flush.pending || flush.stopping; });
        if (!flush.pending) return;
        {
          ScopedSpan span(flush_lane, "smb.write", flush.cause, worker, flush.iteration);
          delta_buffer.write(delta);  // T.A1
        }
        {
          ScopedSpan span(flush_lane, "smb.accumulate", flush.cause, worker, flush.iteration);
          delta_buffer.accumulate_into(global);  // T.A2-A4
        }
        flush.pending = false;
        flush.cv.notify_all();  // T.A5
      }
    });
  }

  const float alpha = static_cast<float>(options.moving_rate);
  std::int64_t exchanges = 0;
  auto exchange = [&](SpanId parent, std::int64_t iteration) {
    ++exchanges;
    ScopedSpan span(lane, "core.exchange", parent, worker, iteration);
    std::unique_lock lock(flush.mutex);
    {
      ScopedSpan wait(lane, "core.flush_wait", span.id(), worker, iteration);
      flush.cv.wait(lock, [&] { return !flush.pending; });
    }
    dl::copy_params_to(net, local);
    {
      std::vector<core::ShardedBuffer::PinnedShard> pins;
      {
        ScopedSpan pin(lane, "smb.pin", span.id(), worker, iteration);
        pins = global.read_pinned();  // T1
      }
      ScopedSpan t2(lane, "core.t2", span.id(), worker, iteration);
      for (core::ShardedBuffer::PinnedShard& shard : pins) {
        core::elastic_exchange_parallel(  // T2: eqs. (5)+(6)
            std::span<float>(local.data() + shard.offset, shard.view.size()),
            shard.view.span(), alpha,
            std::span<float>(delta.data() + shard.offset, shard.view.size()));
      }
    }
    dl::copy_params_from(net, local);
    flush.pending = true;  // T3
    flush.cause = span.id();
    flush.iteration = iteration;
    lock.unlock();
    flush.cv.notify_all();
  };

  shared.ready->arrive_and_wait();
  shared.go->arrive_and_wait();
  for (std::int64_t it = 0; it < workload.replay_iterations; ++it) {
    ScopedSpan step(lane, "step", kNoSpan, worker, it);
    if (options.max_iteration_skew > 0) {
      ScopedSpan pacing(lane, "core.pacing", step.id(), worker, it);
      while (it - board.min_iterations() > options.max_iteration_skew) {
        board.heartbeat(worker, kIncarnation);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    if (!workload.hybrid()) exchange(step.id(), it);
    shmcaffe::data::Batch batch;
    {
      ScopedSpan span(lane, "data.next", step.id(), worker, it);
      batch = prefetcher.next();
    }
    net.input("data") = std::move(batch.data);
    net.input("label") = std::move(batch.labels);
    {
      ScopedSpan span(lane, "dl.forward", step.id(), worker, it);
      (void)net.forward(/*train=*/true);
    }
    {
      ScopedSpan span(lane, "dl.backward", step.id(), worker, it);
      net.backward();
    }
    if (workload.hybrid()) {
      dl::copy_grads_to(net, grads);
      {
        ScopedSpan span(lane, "coll.allreduce", step.id(), worker, it);
        comm.all_reduce_mean(grads);
      }
      dl::copy_grads_from(net, grads);
    }
    {
      ScopedSpan span(lane, "dl.solver", step.id(), worker, it);
      solver.step();
    }
    if (workload.hybrid()) {
      if (root) {
        exchange(step.id(), it);
        dl::copy_params_to(net, local);
      }
      {
        ScopedSpan span(lane, "coll.broadcast", step.id(), worker, it);
        comm.broadcast(0, local);
      }
      if (!root) dl::copy_params_from(net, local);
    }
    ScopedSpan span(lane, "core.board", step.id(), worker, it);
    if (root) {
      vote[0] = board.should_stop(options.termination, worker, it + 1, kNeverStop,
                                  options.heartbeat_timeout_seconds, kIncarnation)
                    ? 1.0F
                    : 0.0F;
    } else {
      board.report(worker, it + 1, kIncarnation);
    }
    if (workload.hybrid()) comm.broadcast(0, vote);
  }
  if (root) {
    {
      std::unique_lock lock(flush.mutex);
      flush.cv.wait(lock, [&] { return !flush.pending; });
      flush.stopping = true;
    }
    flush.cv.notify_all();
    update_thread.join();
    delta_buffer.release();
  }
  board.mark_finished(worker);
  global.release();
  shared.exchanges[static_cast<std::size_t>(worker)] = exchanges;
}

/// evaluate() on the held-out split, `eval_repeats` times (its cost does
/// not depend on the weights, so the seeded initial weights serve).
void probe_eval(const Workload& workload, const core::DistTrainOptions& options, Lane* lane) {
  const shmcaffe::data::SynthImageDataset test_set(options.test_data);
  dl::Net net = dl::make_model(options.model_family, options.input);
  shmcaffe::common::Rng rng(options.seed);
  net.init_params(rng);
  for (int r = 0; r < workload.eval_repeats; ++r) {
    ScopedSpan span(lane, "core.eval", kNoSpan, 0, r);
    (void)core::evaluate(net, test_set);
  }
}

/// ShmCaffe-A has no device group; time the one-device collective its
/// group-of-one degenerates to, on the model's gradient size.
void probe_one_device_collective(const Workload& workload, std::size_t n, Lane* lane) {
  shmcaffe::coll::DeviceGroup group(1);
  shmcaffe::coll::Communicator comm = group.communicator(0);
  std::vector<float> data(n, 0.5F);
  for (int it = 0; it < workload.replay_iterations; ++it) {
    {
      ScopedSpan span(lane, "coll.allreduce", kNoSpan, 0, it);
      comm.all_reduce_mean(data);
    }
    ScopedSpan span(lane, "coll.broadcast", kNoSpan, 0, it);
    comm.broadcast(0, data);
  }
}

/// Empty-bodied parallel_for calls, issued concurrently by `submitters`
/// threads: the pool's dispatch and join cost under that contention.
void probe_pool_dispatch(int submitters, Tracer& tracer) {
  const auto width = static_cast<std::size_t>(shmcaffe::common::parallel::thread_count());
  std::vector<Lane*> lanes;
  for (int s = 0; s < submitters; ++s) {
    lanes.push_back(tracer.add_lane("pool submitter " + std::to_string(s)));
  }
  std::barrier start(submitters);
  std::vector<std::thread> threads;
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&, s] {
      start.arrive_and_wait();
      for (int c = 0; c < kPoolCallsPerSubmitter; ++c) {
        ScopedSpan span(lanes[static_cast<std::size_t>(s)], "common.pool_dispatch", kNoSpan,
                        s, c);
        shmcaffe::common::parallel::parallel_for(width, 1, [](std::size_t, std::size_t) {});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace

ReplayResult run_replay(const Workload& workload, std::uint64_t seed, Tracer* tracer) {
  Shared shared;
  shared.workload = &workload;
  shared.options = workload.options(seed);
  const shmcaffe::data::SynthImageDataset train_set(shared.options.train_data);
  shared.train_set = &train_set;
  shmcaffe::smb::SmbServer server;
  shared.servers.push_back(&server);

  // Fig. 2 initialisation, done up front: W_g from the seeded init.
  dl::Net proto = dl::make_model(shared.options.model_family, shared.options.input);
  const std::size_t n = proto.param_count();
  core::ShardedBuffer global = core::ShardedBuffer::create(
      std::span<shmcaffe::smb::SmbServer* const>(shared.servers), kGlobalKey, n);
  {
    shmcaffe::common::Rng rng(shared.options.seed);
    proto.init_params(rng);
    std::vector<float> init(n);
    dl::copy_params_to(proto, init);
    global.write(init);
  }
  core::ProgressBoard board(server, kBoardKey, workload.workers, /*create=*/true);
  shared.board = &board;
  for (int g = 0; g < workload.workers / workload.group_size; ++g) {
    shared.groups.push_back(std::make_unique<shmcaffe::coll::DeviceGroup>(workload.group_size));
  }
  if (tracer != nullptr) {
    for (int w = 0; w < workload.workers; ++w) {
      shared.step_lanes.push_back(tracer->add_lane("worker " + std::to_string(w)));
      shared.flush_lanes.push_back(tracer->add_lane("worker " + std::to_string(w) + " update"));
    }
  }
  shared.exchanges.assign(static_cast<std::size_t>(workload.workers), 0);
  std::barrier<> ready(workload.workers + 1);
  std::barrier<> go(workload.workers + 1);
  shared.ready = &ready;
  shared.go = &go;

  std::vector<std::thread> threads;
  for (int w = 0; w < workload.workers; ++w) {
    threads.emplace_back([&shared, w] { replay_worker(shared, w); });
  }
  ready.arrive_and_wait();
  const shmcaffe::smb::SmbServerStats before = server.stats();
  const std::int64_t start = now_ns();
  go.arrive_and_wait();
  for (std::thread& thread : threads) thread.join();
  const std::int64_t end = now_ns();
  const shmcaffe::smb::SmbServerStats after = server.stats();

  ReplayResult result;
  result.wall_seconds = static_cast<double>(end - start) * 1e-9;
  result.worker_steps =
      static_cast<std::int64_t>(workload.workers) * workload.replay_iterations;
  for (const std::int64_t e : shared.exchanges) result.exchanges += e;
  result.cow_clones = after.cow_clones - before.cow_clones;
  result.bytes_moved = (after.bytes_read - before.bytes_read) +
                       (after.bytes_written - before.bytes_written);
  board.release();
  global.release();
  return result;
}

void run_probes(const Workload& workload, std::uint64_t seed, Tracer& tracer) {
  const core::DistTrainOptions options = workload.options(seed);
  Lane* lane = tracer.add_lane("probes");
  probe_eval(workload, options, lane);
  if (!workload.hybrid()) {
    probe_one_device_collective(
        workload, dl::make_model(options.model_family, options.input).param_count(), lane);
  }
  probe_pool_dispatch(workload.workers, tracer);
}

}  // namespace perfbench

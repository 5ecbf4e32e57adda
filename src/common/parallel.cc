#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/ordered_mutex.h"

namespace shmcaffe::common::parallel {
namespace {

/// True on a pool worker thread: a parallel call from inside a chunk body
/// runs inline instead of fanning out again (no self-deadlock, no nesting).
thread_local bool t_on_pool_worker = false;

/// A submitter waits for its job's helpers on its own thread's condition
/// variable, so a completion wakes no other submitter.  Thread-local rather
/// than per job: constructing a condition_variable_any allocates.
thread_local std::condition_variable_any t_job_done;

/// One fan-out in flight: a submitter's stack frame, linked into the pool's
/// in-flight list for as long as its chunk cursor may still hand out work.
/// Chunks are claimed through `next` (dynamic schedule); determinism comes
/// from the chunk *boundaries*, not from which thread runs which chunk.
struct Job {
  const ChunkFn* fn = nullptr;
  std::size_t grain = 1;
  std::size_t range = 0;
  std::size_t chunks = 0;
  int helper_budget = 0;  // most helpers inside help() at once
  std::condition_variable_any* done = nullptr;  // the submitter's t_job_done
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  // The fields below are guarded by the pool mutex.
  std::exception_ptr error;  // first failure wins
  /// Helpers currently inside help() for this job.  The submitter only
  /// retires the job once every helper detached, so a slow helper can never
  /// touch a dead job.
  int helpers = 0;
  Job* newer = nullptr;  // in-flight list link
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  int width() {
    std::unique_lock lock(mutex_);
    ensure_started_locked();
    return width_.load(std::memory_order_relaxed);
  }

  void configure(int count) {
    stop_workers();
    std::unique_lock lock(mutex_);
    width_.store(std::max(1, count), std::memory_order_release);
    spawn_locked();
  }

  void shutdown() {
    stop_workers();
    std::unique_lock lock(mutex_);
    width_.store(0, std::memory_order_release);  // unstarted; next use re-reads the env
  }

  void add_lanes(int delta) { lanes_.fetch_add(delta, std::memory_order_relaxed); }

  void run(std::size_t range, std::size_t grain, const ChunkFn& fn) {
    if (range == 0) return;
    grain = std::max<std::size_t>(1, grain);
    const std::size_t chunks = chunk_count(range, grain);
    // Inline paths: nested call, single chunk, or a budget of one executor —
    // the chunk loop below is the same code the helpers run, so the float
    // results are identical by construction.
    const int executors = t_on_pool_worker || chunks == 1 ? 1 : executor_budget();
    if (executors == 1) {
      run_inline(range, grain, chunks, fn);
      return;
    }
    Job job;
    job.fn = &fn;
    job.grain = grain;
    job.range = range;
    job.chunks = chunks;
    job.helper_budget = static_cast<int>(
        std::min(static_cast<std::size_t>(executors - 1), chunks - 1));
    job.done = &t_job_done;
    {
      std::unique_lock lock(mutex_);
      link_locked(job);
    }
    for (int h = 0; h < job.helper_budget; ++h) work_cv_.notify_one();

    help(job);  // the submitter is executor 0

    // The cursor is exhausted: unlink so no further helper attaches, then
    // wait out the ones still finishing their last chunk.
    std::unique_lock lock(mutex_);
    unlink_locked(job);
    job.done->wait(lock, [&] { return job.helpers == 0; });
    if (job.error) std::rethrow_exception(job.error);
  }

 private:
  Pool() = default;

  /// Static-storage singleton: join the workers at process exit so their
  /// std::thread handles are not destroyed joinable (std::terminate).
  ~Pool() { stop_workers(); }

  static int env_thread_count() {
    const char* env = std::getenv("SHMCAFFE_THREADS");
    if (env != nullptr) {
      const int value = std::atoi(env);
      if (value >= 1) return std::min(value, 64);
    }
    const unsigned hardware = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hardware, 1U, 16U));
  }

  /// Executors one submission may use, itself included: an equal share of
  /// the width per live lane, at least one.  Read without the pool mutex so
  /// a submission whose share is one never touches it (after the lazy start).
  int executor_budget() {
    int width = width_.load(std::memory_order_acquire);
    if (width == 0) width = this->width();
    const int lanes = std::max(1, lanes_.load(std::memory_order_relaxed));
    return std::max(1, width / lanes);
  }

  void ensure_started_locked() SHMCAFFE_REQUIRES(mutex_) {
    SHMCAFFE_ASSERT_HELD(mutex_);
    if (width_.load(std::memory_order_relaxed) != 0) return;
    width_.store(env_thread_count(), std::memory_order_release);
    spawn_locked();
  }

  void spawn_locked() SHMCAFFE_REQUIRES(mutex_) {
    SHMCAFFE_ASSERT_HELD(mutex_);
    stopping_ = false;
    for (int w = 1; w < width_.load(std::memory_order_relaxed); ++w) {
      // One-time lazy pool spawn, not per-iteration; worker_loop's cv wait
      // runs on the spawned thread, not under this caller's mutex_.
      // lint:allow-next-line(no-hot-alloc,no-blocking-under-lock)
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Joins every worker.  Never called with the pool mutex held (join would
  /// deadlock against a worker draining its last chunk).
  void stop_workers() {
    std::vector<std::thread> workers;
    {
      std::unique_lock lock(mutex_);
      stopping_ = true;
      workers.swap(workers_);
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers) worker.join();
  }

  // The list holds one job per submission in flight, a few at most, so the
  // walks below are a handful of steps.
  void link_locked(Job& job) SHMCAFFE_REQUIRES(mutex_) {
    SHMCAFFE_ASSERT_HELD(mutex_);
    Job** link = &oldest_;
    while (*link != nullptr) link = &(*link)->newer;
    *link = &job;
  }

  void unlink_locked(Job& job) SHMCAFFE_REQUIRES(mutex_) {
    SHMCAFFE_ASSERT_HELD(mutex_);
    Job** link = &oldest_;
    while (*link != &job) link = &(*link)->newer;
    *link = job.newer;
  }

  /// The oldest in-flight job with unclaimed chunks and room for a helper.
  Job* claimable_locked() SHMCAFFE_REQUIRES(mutex_) {
    SHMCAFFE_ASSERT_HELD(mutex_);
    for (Job* job = oldest_; job != nullptr; job = job->newer) {
      if (job->helpers < job->helper_budget &&
          job->next.load(std::memory_order_relaxed) < job->chunks) {
        return job;
      }
    }
    return nullptr;
  }

  void worker_loop() {
    t_on_pool_worker = true;
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock lock(mutex_);
        while (!stopping_ && (job = claimable_locked()) == nullptr) work_cv_.wait(lock);
        if (stopping_) return;
        job->helpers += 1;
      }
      help(*job);
      // Notify under the mutex: once `helpers` reads 0 the submitter may
      // return, destroy the job and exit its thread.
      std::unique_lock lock(mutex_);
      job->helpers -= 1;
      if (job->helpers == 0) job->done->notify_one();
    }
  }

  /// Claims and runs chunks until the job's cursor is exhausted.  After a
  /// chunk throws, the remaining chunks are still claimed (so the cursor
  /// runs out and the submitter wakes) but their bodies are skipped.
  void help(Job& job) {
    for (;;) {
      const std::size_t chunk = job.next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= job.chunks) return;
      if (job.failed.load(std::memory_order_acquire)) continue;
      const std::size_t begin = chunk * job.grain;
      const std::size_t end = std::min(begin + job.grain, job.range);
      try {
        (*job.fn)(begin, end);
      } catch (...) {
        std::unique_lock lock(mutex_);
        if (!job.failed.exchange(true, std::memory_order_acq_rel)) {
          job.error = std::current_exception();
        }
      }
    }
  }

  static void run_inline(std::size_t range, std::size_t grain, std::size_t chunks,
                         const ChunkFn& fn) {
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const std::size_t begin = chunk * grain;
      fn(begin, std::min(begin + grain, range));
    }
  }

  /// Rank 500: above every lock a submitter may hold (SMB segment locks are
  /// rank 200); see the table in common/ordered_mutex.h.
  OrderedMutex mutex_{"common.parallel.pool", lockrank::kParallelPool};
  std::condition_variable_any work_cv_;
  std::vector<std::thread> workers_ SHMCAFFE_GUARDED_BY(mutex_);
  /// In-flight jobs, oldest first: an intrusive list of submitters' frames.
  Job* oldest_ SHMCAFFE_GUARDED_BY(mutex_) = nullptr;
  bool stopping_ SHMCAFFE_GUARDED_BY(mutex_) = false;
  /// 0 = not started; >= 1 once running.  Written under mutex_, read
  /// lock-free by executor_budget().
  std::atomic<int> width_{0};
  std::atomic<int> lanes_{0};  // live Lane objects
};

}  // namespace

std::size_t chunk_count(std::size_t range, std::size_t grain) {
  grain = std::max<std::size_t>(1, grain);
  return range == 0 ? 0 : (range + grain - 1) / grain;
}

int thread_count() { return Pool::instance().width(); }

void set_thread_count(int count) { Pool::instance().configure(count); }

void shutdown() { Pool::instance().shutdown(); }

Lane::Lane() { Pool::instance().add_lanes(1); }

Lane::~Lane() { Pool::instance().add_lanes(-1); }

void parallel_for(std::size_t range, std::size_t grain, const ChunkFn& fn) {
  Pool::instance().run(range, grain, fn);
}

}  // namespace shmcaffe::common::parallel

// Deterministic shared work pool — the repo's only source of compute
// parallelism (enforced by the `no-raw-thread` lint rule).
//
// The primitive is parallel_for(range, grain, fn): the half-open index range
// [0, range) is cut into chunks of exactly `grain` indices (the last chunk
// takes the remainder).  Chunk boundaries are a *pure function of range and
// grain* — never of the thread count, never of scheduling — so a kernel that
// (a) writes every output element from exactly one chunk, or (b) reduces
// inside a chunk in ascending index order and combines per-chunk partials in
// ascending chunk order, produces bitwise-identical floats for every value
// of SHMCAFFE_THREADS, including 1.  Every hot kernel in the tree (conv
// GEMM, SEASGD exchange, SMB accumulate) is written in one of those two
// shapes, which is what makes training results thread-count-invariant (see
// tests/parallel_test.cc and DESIGN.md §"Deterministic parallelism").
//
// Execution model:
//   * The pool is process-wide and lazily started: the first parallel call
//     reads SHMCAFFE_THREADS (default: hardware concurrency, clamped to
//     [1, 16]) and spawns width-1 worker threads; the submitting thread
//     always participates, so width 1 means "run inline, spawn nothing".
//   * Several submitters may have jobs in flight at once.  Each job is the
//     submitter's own stack frame, linked into an intrusive list (submitting
//     allocates nothing); an idle worker helps the oldest job that still has
//     unclaimed chunks and room for another helper.  Chunks are claimed with
//     an atomic cursor, so scheduling is dynamic while results stay
//     deterministic.
//   * A job may use max(1, width / lanes) executors, its submitter included,
//     where `lanes` counts the live Lane objects (below).  A submission wakes
//     only the helpers it may use; one whose share is a single executor runs
//     inline without touching the pool mutex.  N trainer workers on N cores
//     therefore each compute inline, while a lone worker keeps the full
//     width.
//   * A parallel call from inside a pool worker runs inline on that worker
//     (no nested fan-out, no self-deadlock).
//   * The first exception a chunk throws is captured; the remaining chunks
//     are drained without running, and the exception is rethrown on the
//     submitting thread.
//   * set_thread_count() reconfigures the width at a quiescent point;
//     shutdown() joins all workers and returns the pool to the unstarted
//     state (the next call lazily restarts it) — both are test hooks and
//     bench plumbing, not steady-state API.
//
// Locking: the pool's internal mutex is an OrderedMutex at rank 500
// (common.parallel.pool), above every lock a submitter may legally hold —
// SmbServer::accumulate submits while holding a segment lock (rank 200).
// Workers execute chunk bodies with no pool lock held, so chunk bodies may
// take locks of any rank (none of the in-tree kernels do).
#pragma once

#include <cstddef>
#include <functional>

#include "common/ordered_mutex.h"

namespace shmcaffe::common::parallel {

/// Number of chunks parallel_for will cut [0, range) into: ceil(range/grain)
/// with grain clamped to >= 1.  Pure in (range, grain) by construction.
[[nodiscard]] SHMCAFFE_DETERMINISTIC std::size_t chunk_count(std::size_t range,
                                                             std::size_t grain);

/// Current pool width (threads that execute chunks, submitter included).
/// Starts the pool if it is not running yet.
int thread_count();

/// Reconfigures the pool to `count` executors (clamped to >= 1), joining any
/// previous workers first.  Quiescent use only (no job in flight).
void set_thread_count(int count);

/// Joins all workers and forgets the configuration; the next parallel call
/// (or thread_count()) restarts lazily from SHMCAFFE_THREADS.
void shutdown();

/// Registers a long-lived compute thread (a trainer worker, a baseline rank)
/// for the object's lifetime: every live Lane takes an equal share of the
/// pool width for each parallel call.  Declare one at the top of the
/// thread's body.  Submitters that are mostly idle or run between the
/// lanes' compute (update threads, loaders, an evaluator on the main
/// thread) register none: they get a lane's share without shrinking it.
class Lane {
 public:
  Lane();
  ~Lane();
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
};

using ChunkFn = std::function<void(std::size_t begin, std::size_t end)>;

/// Runs fn(begin, end) over every chunk of [0, range); returns when all
/// chunks completed.  Rethrows the first chunk exception.  Submission
/// blocks the caller until the pool drains the batch.
SHMCAFFE_BLOCKS void parallel_for(std::size_t range, std::size_t grain, const ChunkFn& fn);

}  // namespace shmcaffe::common::parallel

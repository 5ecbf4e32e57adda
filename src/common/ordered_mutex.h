// Instrumented mutexes with lock-order (deadlock-potential) detection.
//
// Every long-lived mutex in the concurrent stacks is an OrderedMutex (or
// OrderedSharedMutex) carrying a *name* and a *rank* from the global table
// below.  The wrappers are drop-in Lockable / SharedLockable types, so the
// usual RAII guards (std::scoped_lock, unique_lock, shared_lock) and
// std::condition_variable_any keep working.  On every *blocking* acquire
// the calling thread checks the locks it already holds and reports to the
// process-wide LockOrderRegistry:
//
//   * a rank inversion — acquiring a mutex whose rank is <= the highest
//     rank already held (lock ranks must strictly increase along any
//     acquisition chain), and
//   * a lock-order cycle — the new (held -> acquired) edge closes a cycle
//     in the cumulative acquisition graph (a potential deadlock even if
//     this particular interleaving did not deadlock).
//
// try_lock acquisitions are tracked as held but add no edges and skip the
// rank check: a try-lock cannot block, so it cannot deadlock — this is
// exactly how std::scoped_lock/std::lock acquire same-rank mutex pairs
// (e.g. two SMB segment locks in accumulate()).
//
// Violations are recorded, deduplicated, and printed to stderr once; tests
// assert `LockOrderRegistry::instance().violations().empty()` after driving
// the concurrency suites (see tests/ordered_mutex_test.cc and the LockOrder
// guard tests).  Detection is cheap: the per-thread held list is a tiny
// vector, and the global registry is consulted only the first time a thread
// sees a given edge.
//
// Global rank table (documented in DESIGN.md §"Lock ordering"): ranks
// strictly increase from outermost to innermost acquisition.
//
//   rank | name                        | holder
//   -----+-----------------------------+------------------------------------
//   100  | core.progress_board.sweep   | ProgressBoard dead/straggler sweeps
//   110  | elastic.membership.state    | MembershipService epoch + shard map
//   120  | core.sharded_buffer.shards  | ShardedBuffer shard table
//   150  | recovery.replica_mirror     | ReplicatedSmb ensemble state + fan-out
//   200  | smb.server.segment          | per-segment data mutex (SmbServer)
//   210  | smb.server.table            | SmbServer segment table + stats
//   300  | baselines.async_ps.weights  | classic parameter-server weights
//   400  | minimpi.mailbox             | per-rank MiniMPI mailbox
//   410  | minimpi.barrier             | MiniMPI barrier state
//   450  | common.arena.registry       | arena allocator free lists + stats
//   500  | common.parallel.pool        | work-pool job handoff (common/parallel)
//
// Observed orderings the table encodes: a progress-board sweep (100) reads
// and writes SMB counters, which take the table lock (210); the replica
// mirror (150) fans mutations out to per-replica SmbServers, entering their
// segment (200) and table (210) locks while held; SmbServer::read
// takes the table lock (210) for stats while holding a segment lock (200).
// MiniMPI and the parameter server are leaf locks: nothing else is acquired
// under them.  The arena registry (450) sits between the service locks and
// the pool: SMB segment storage is allocated and recycled while holding a
// segment lock (200) — and freed during release while holding the table
// lock (210) — so the arena must rank above both, yet below the pool (500)
// because no arena call ever submits pool work (kernels allocate before
// entering parallel_for, never inside chunk bodies).
// The parallel work pool (500) is the innermost lock of all:
// SmbServer::accumulate submits parallel chunks while holding a segment
// lock (200), so the pool handoff must rank above every lock a submitter
// may hold; pool workers run chunk bodies with no pool lock held.  Mutexes
// of the same rank are only ever acquired together via std::scoped_lock
// (deadlock-avoiding try-lock protocol).
#pragma once

#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

// --- lock annotations -------------------------------------------------------
//
// Declaration-level lock annotations, enforced by shmcaffe-lint's symbol-aware
// `guarded-by` rule (tools/lint): in any class that owns an OrderedMutex or
// OrderedSharedMutex, every mutable field must be annotated with the mutex
// that protects it —
//
//   std::vector<float> floats SHMCAFFE_GUARDED_BY(data_mutex);
//
// or explicitly opted out —
//
//   SmbServerOptions options_ SHMCAFFE_UNGUARDED;  // immutable after ctor
//
// The macros compile to nothing (zero codegen in every build); the *static*
// half of the contract is the lint pass, and the *dynamic* half is
// SHMCAFFE_ASSERT_HELD(mu), placed in the `_locked` accessors of the
// annotated classes: with lock asserts enabled (SHMCAFFE_LOCK_ASSERTS, on by
// default outside Release — see the top-level CMakeLists) it aborts with the
// lock's name and rank if the calling thread does not hold `mu`; in release
// builds it compiles to nothing.
#define SHMCAFFE_GUARDED_BY(mu) /* parsed by shmcaffe-lint */
#define SHMCAFFE_UNGUARDED      /* parsed by shmcaffe-lint */

// Function-level lock annotation, placed after the parameter list (and any
// `const`) of a declaration or definition:
//
//   void sweep_dead_locked(Now now) SHMCAFFE_REQUIRES(sweep_mutex_);
//
// It declares that every caller must already hold `mu`; shmcaffe-lint's
// flow-sensitive `lock-region` pass seeds the callee's held-lock set from it
// and reports call sites that do not hold `mu`.  By the repo's `_locked()`
// naming contract the annotation is mirrored by SHMCAFFE_ASSERT_HELD(mu) as
// the first statement of the definition, so the static and dynamic checks
// name the same mutex.  A `_locked` function whose class has exactly one
// ordered mutex may omit the annotation (lint infers it); with several
// mutexes the annotation is mandatory.
#define SHMCAFFE_REQUIRES(mu) /* parsed by shmcaffe-lint */

// Determinism annotation, placed before the return type of a function that
// must be bitwise-reproducible across runs, hosts and thread counts (the
// control-event planner, the journal fingerprint, the parallel
// chunk-boundary math).  shmcaffe-lint's `determinism` pass taints every
// function reachable from an annotated root through the call index and
// rejects unordered-container iteration, wall-clock reads, non-seeded RNG /
// environment reads, and address-dependent ordering anywhere in the taint
// set.
#define SHMCAFFE_DETERMINISTIC /* parsed by shmcaffe-lint */

// Hot-kernel annotation, placed before the return type of a per-iteration
// kernel (the conv GEMM/im2col, the SEASGD exchange kernels, the SMB
// write/accumulate data paths).  shmcaffe-lint's `no-hot-alloc` pass walks
// every function reachable from an annotated root through the call index
// and rejects heap allocation there — container construction/growth,
// `new`, make_unique/make_shared — unless the statement routes through the
// common::arena allocator or carries the rule's lint suppression comment
// with a reason.  Steady-state iterations must recycle arena slabs.
#define SHMCAFFE_HOT_KERNEL /* parsed by shmcaffe-lint */

// Blocking-contract annotations, enforced by shmcaffe-lint's interprocedural
// `no-blocking-under-lock` pass (tools/lint).
//
// SHMCAFFE_BLOCKS, placed before the return type, marks a function that can
// park the calling thread: condition-variable waits, deadline waits
// (wait_version_at_least), thread sleeps / retry backoff, MiniMPI
// receives/collectives, pool parallel_for submission (the submitter waits
// for every chunk), and the simulated fabric's co_await transfers.  The lint
// pass also recognises a literal cv wait / sleep in a body as an implicit
// root, so forgetting the annotation cannot hide the blocking-ness — but the
// annotation is the reviewable contract and feeds the `blocking_roots`
// coverage counter (shrink-fenced by tools/check.sh).
//
// Blocking-ness propagates through the call index: a function that can reach
// a BLOCKS root is itself blocking, and the lock-region scope walk reports
// any blocking call issued while a mutex guard is lexically held.  Two
// shapes are exempt because the wait *releases* the lock it names:
// `cv.wait(lock)` over a guard declared in scope releases that guard's
// mutexes, and a call into a SHMCAFFE_REQUIRES(mu) callee releases `mu`
// (the prepare_write_locked idiom: the callee waits on the caller's lock).
// A deliberate blocking call under a lock carries a justified allow
// annotation for the no-blocking-under-lock rule.
//
// SHMCAFFE_NONBLOCKING, placed before the return type, is the opposite
// contract: the function must never park the calling thread (the
// progress-board control plane, counter ops, arena acquire/release).  It is
// lint-*verified*: a NONBLOCKING function that can reach a BLOCKS root —
// directly or through any call chain — is itself a finding.  The
// `nonblocking_contracts` counter is shrink-fenced like the roots.
#define SHMCAFFE_BLOCKS      /* parsed by shmcaffe-lint */
#define SHMCAFFE_NONBLOCKING /* parsed by shmcaffe-lint */

// Pinned-lifetime annotation, enforced by shmcaffe-lint's `pin-lifetime`
// pass.  Pinned/arena views (smb::PinnedFloats, ShardedBuffer::PinnedShard,
// common::arena::Buffer) alias storage whose lifetime is pinned elsewhere,
// so by default they must stay frame-local: the pass flags a pin-typed
// *field* declaration, a *return* of a pin type from a function, and a
// lambda capture of a pin-typed local.  A deliberate escape — an owning
// arena Buffer member, a factory that hands the view to its caller — is
// annotated SHMCAFFE_PIN_ESCAPE (trailing on fields, like
// SHMCAFFE_GUARDED_BY; before the return type on functions) with a comment
// naming the justification.  The pass also flags *pin acquisition while any
// mutex is held* (a call to a pin-returning function under a guard): the
// COW retirement protocol is pin-then-lock only, so a pin taken under the
// segment/table mutex inverts it.  Escape counts feed the `pin_escapes`
// coverage counter (grow-fenced by tools/check.sh).
#define SHMCAFFE_PIN_ESCAPE /* parsed by shmcaffe-lint */

#if !defined(SHMCAFFE_LOCK_ASSERTS)
#if defined(NDEBUG)
#define SHMCAFFE_LOCK_ASSERTS 0
#else
#define SHMCAFFE_LOCK_ASSERTS 1
#endif
#endif

#if SHMCAFFE_LOCK_ASSERTS
#define SHMCAFFE_ASSERT_HELD(mu) ((mu).assert_held(#mu, __FILE__, __LINE__))
#else
#define SHMCAFFE_ASSERT_HELD(mu) ((void)0)
#endif

namespace shmcaffe::common {

namespace lockrank {
inline constexpr int kProgressBoardSweep = 100;
inline constexpr int kElasticMembership = 110;
inline constexpr int kShardedBuffer = 120;
inline constexpr int kReplicaMirror = 150;
inline constexpr int kSmbSegment = 200;
inline constexpr int kSmbTable = 210;
inline constexpr int kAsyncPsWeights = 300;
inline constexpr int kMpiMailbox = 400;
inline constexpr int kMpiBarrier = 410;
inline constexpr int kArena = 450;
inline constexpr int kParallelPool = 500;
}  // namespace lockrank

namespace detail {

/// Identity of one instrumented mutex instance.  `name` doubles as the node
/// id in the acquisition graph, so all instances of a class (e.g. every SMB
/// segment) share one node and one documented rank.
struct LockSite {
  const char* name;
  int rank;
};

/// Pre-acquire bookkeeping for a blocking acquire: rank check + graph edge
/// recording against everything the thread currently holds.
void before_blocking_acquire(const LockSite& site);
/// Marks `site` held by this thread (any acquisition mode).
void on_acquired(const LockSite& site);
/// Removes one held entry for `site` (guards may unlock in any order).
void on_released(const LockSite& site);
/// Backs SHMCAFFE_ASSERT_HELD: aborts with the lock's name, rank and the
/// call site unless the calling thread holds `site` (in any mode).  During
/// thread/process teardown the held list is gone, so the check passes.
void assert_held(const LockSite& site, const char* expr, const char* file, int line);

}  // namespace detail

/// Process-wide acquisition graph and violation log.
class LockOrderRegistry {
 public:
  static LockOrderRegistry& instance();

  /// Deduplicated violation descriptions, in first-detection order.
  [[nodiscard]] std::vector<std::string> violations() const;
  [[nodiscard]] std::size_t violation_count() const;

  /// Distinct (holder -> acquired) edges observed so far.
  [[nodiscard]] std::size_t edge_count() const;

  /// Forgets the graph and the violations (tests that deliberately provoke
  /// an inversion clear the registry afterwards).  Bumps an epoch so other
  /// threads' memoised edges are re-reported into the fresh graph.
  void clear();

 private:
  LockOrderRegistry() = default;
  friend void detail::before_blocking_acquire(const detail::LockSite& site);

  struct Impl;
  [[nodiscard]] Impl& impl() const;
};

/// std::mutex with a name, a rank, and lock-order detection.  Meets
/// Lockable; use through RAII guards only (the bare lock()/unlock() calls
/// inside are the wrapper's own business).
class OrderedMutex {
 public:
  OrderedMutex(const char* name, int rank) : site_{name, rank} {}
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock();
  bool try_lock();
  void unlock();

  [[nodiscard]] const char* name() const { return site_.name; }
  [[nodiscard]] int rank() const { return site_.rank; }

  /// Aborts unless the calling thread holds this mutex.  Call through
  /// SHMCAFFE_ASSERT_HELD so release builds compile the check away.
  void assert_held(const char* expr, const char* file, int line) const {
    detail::assert_held(site_, expr, file, line);
  }

 private:
  std::mutex mutex_;
  detail::LockSite site_;
};

/// std::shared_mutex counterpart (SharedLockable).  Shared acquisitions do
/// the same rank/edge accounting: readers still deadlock writers if the
/// order cycles.
class OrderedSharedMutex {
 public:
  OrderedSharedMutex(const char* name, int rank) : site_{name, rank} {}
  OrderedSharedMutex(const OrderedSharedMutex&) = delete;
  OrderedSharedMutex& operator=(const OrderedSharedMutex&) = delete;

  void lock();
  bool try_lock();
  void unlock();
  void lock_shared();
  bool try_lock_shared();
  void unlock_shared();

  [[nodiscard]] const char* name() const { return site_.name; }
  [[nodiscard]] int rank() const { return site_.rank; }

  /// Aborts unless the calling thread holds this mutex in some mode
  /// (exclusive or shared).  Call through SHMCAFFE_ASSERT_HELD.
  void assert_held(const char* expr, const char* file, int line) const {
    detail::assert_held(site_, expr, file, line);
  }

 private:
  std::shared_mutex mutex_;
  detail::LockSite site_;
};

}  // namespace shmcaffe::common

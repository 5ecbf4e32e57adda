// The Fig. 6 exchange of one group root.
//
// A ShmCaffe-A worker (or a ShmCaffe-H group root) exchanges with the SMB
// from two threads that take turns (§III-C, Fig. 6):
//
//  * T1/T2, on the main thread at an iteration start: read W_g and run
//    eqs. (5)+(6) in place on the worker's parameters (the net's value
//    store, dl/net.h): the weight increment dW_x lands in a staging buffer
//    and W'_x becomes W''_x.  T3 hands dW_x over.
//  * T.A1-T.A4, on the update thread, overlapped with the minibatch: write
//    dW_x into this root's increment segment, then the server-side
//    accumulate W_g += dW_x (eq. 7).  T.A5 wakes a main thread blocked at
//    its next T1.
//
// The two sides exclude each other under one mutex: T1/T2 (and the
// checkpoint's read of W_g) wait until the previous increment has landed,
// and the flush holds the mutex while it runs.  Exchange owns that protocol:
// the staging buffer, the mutex, the pending and stopping flags and the
// condition variable.  Only group roots build one; a hybrid member never
// touches the SMB.  The thread that runs serve() belongs to the caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <span>

#include "common/arena.h"
#include "common/ordered_mutex.h"
#include "core/sharded_buffer.h"

namespace shmcaffe::core {

class Exchange {
 public:
  /// The shard every SMB fan-out starts at, asked on each access: the
  /// membership service moves a worker's home shard on joins, drains and
  /// evictions.
  using HomeShard = std::function<std::size_t()>;

  /// `global` is W_g and `increments` this root's dW_x segments, sharded
  /// alike; both outlive the exchange.  `alpha` is the moving rate of
  /// eq. (5); `verify_on_read` re-pins W_g after T2.
  Exchange(ShardedBuffer& global, ShardedBuffer& increments, HomeShard home_shard, float alpha,
           bool verify_on_read);
  Exchange(const Exchange&) = delete;  // the update thread holds its address
  Exchange& operator=(const Exchange&) = delete;

  /// Waits for the previous increment to land, runs T1/T2 in place on
  /// `params` (W'_x in, W''_x out) and hands the new increment to the update
  /// thread.  Throws smb::SmbUnavailable once the update thread has stopped,
  /// and smb::SmbCorruption when W_g cannot be read clean: `params` is then
  /// untouched and no increment is handed over.
  void exchange(std::span<float> params);

  /// Reads W_g into `dst` with no flush in flight: a consistent checkpoint
  /// snapshot.  Throws smb::SmbUnavailable once the update thread has
  /// stopped.
  void read_global(std::span<float> dst);

  /// Blocks until the pending increment, if any, has landed.
  void drain();

  /// The update thread's loop: flushes every handed-over increment until
  /// stop().  An increment still pending at stop() lands before it returns.
  void serve();
  void stop();

 private:
  /// Blocks on `lock` until no flush is pending or serve() has stopped.
  void wait_for_flush(std::unique_lock<std::mutex>& lock) SHMCAFFE_REQUIRES(mutex_);
  /// T1/T2: eqs. (5)+(6) against pinned views of W_g.
  void update_from_global(std::span<float> params) SHMCAFFE_REQUIRES(mutex_);
  /// T.A1-T.A4: writes the increment, then accumulates it into W_g.
  void flush() SHMCAFFE_REQUIRES(mutex_);

  ShardedBuffer& global_;
  ShardedBuffer& increments_;
  const HomeShard home_shard_;
  const float alpha_;
  const bool verify_on_read_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool pending_ = false;  // an increment awaits flushing to the SMB
  bool stopping_ = false;
  /// Weight-increment staging (eq. 5 output), arena-backed: sized once per
  /// root life and recycled across lives through the registry.  The buffer
  /// is an owning arena allocation (not a view of SMB storage), shared
  /// between the main and update threads under `mutex_` for the root's
  /// whole life — a deliberate escape.
  common::arena::Buffer delta_ SHMCAFFE_PIN_ESCAPE{"trainer.exchange.delta"};
};

}  // namespace shmcaffe::core

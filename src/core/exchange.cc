#include "core/exchange.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/seasgd_math.h"

namespace shmcaffe::core {
namespace {

/// True if `b` pins, shard for shard, the same storage as `a`: a pinned
/// epoch stays alive while viewed, so equal addresses mean the same epoch.
bool same_epochs(const std::vector<ShardedBuffer::PinnedShard>& a,
                 const std::vector<ShardedBuffer::PinnedShard>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ShardedBuffer::PinnedShard& x, const ShardedBuffer::PinnedShard& y) {
                      return x.offset == y.offset && x.view.data() == y.view.data() &&
                             x.view.size() == y.view.size();
                    });
}

}  // namespace

Exchange::Exchange(ShardedBuffer& global, ShardedBuffer& increments, HomeShard home_shard,
                   float alpha, bool verify_on_read)
    : global_(global),
      increments_(increments),
      home_shard_(std::move(home_shard)),
      alpha_(alpha),
      verify_on_read_(verify_on_read) {
  delta_.assign(global.size(), 0.0F);
}

void Exchange::wait_for_flush(std::unique_lock<std::mutex>& lock) SHMCAFFE_REQUIRES(mutex_) {
  cv_.wait(lock, [this] { return !pending_ || stopping_; });
}

void Exchange::exchange(std::span<float> params) {
  // T1/T2 must be mutually exclusive with the update thread's T.A1-T.A4:
  // block here until the previous increment has been flushed.
  std::unique_lock lock(mutex_);
  wait_for_flush(lock);
  if (stopping_) throw smb::SmbUnavailable("SMB lost during exchange");
  update_from_global(params);
  pending_ = true;  // T3: hand the increment to the update thread
  lock.unlock();
  cv_.notify_all();
}

void Exchange::update_from_global(std::span<float> params) SHMCAFFE_REQUIRES(mutex_) {
  // T1 zero-copy: pin per-shard views of W_g (checksums verified at pin
  // time) and run T2 directly against SMB storage and in place on the
  // worker's parameters — no staging copy of either.  Per-shard chunking
  // changes nothing numerically: eqs. (5)+(6) are elementwise, so the floats
  // match a staged copy read followed by the scalar elastic_exchange
  // bitwise, for any shard split or pool width.  T1/T2 run under mutex_ by
  // design (mutual exclusion with the update thread, which is parked on the
  // cv here).  The pins are locals of this function, so they are dropped
  // before exchange() wakes the update thread at T3, whose accumulate would
  // clone a still-pinned epoch.
  // lint:allow-next-line(no-blocking-under-lock,pin-lifetime)
  std::vector<ShardedBuffer::PinnedShard> pins = global_.read_pinned(home_shard_());
  const auto slice = [](std::span<float> all, const ShardedBuffer::PinnedShard& shard) {
    return all.subspan(shard.offset, shard.view.size());
  };
  if (!verify_on_read_) {
    for (ShardedBuffer::PinnedShard& shard : pins) {
      // lint:allow-next-line(no-blocking-under-lock) pool fan-out inside
      elastic_exchange_parallel(                      // the T1/T2 window
          slice(params, shard), shard.view.span(), alpha_, slice(delta_.span(), shard));
    }
    return;
  }
  // A bit flip does not respect pins: one landing in the pinned epoch after
  // its pin-time verification would reach the delta unverified.  So eq. (5)
  // runs alone first, and re-pinning verifies the live epoch again (and
  // read-repairs it through the replica vote).  If every shard still pins
  // the epoch eq. (5) read, that epoch verified clean after it, and eq. (6)
  // applies the increment; otherwise redo eq. (5) from the fresh pins, on
  // the W'_x nothing has touched yet.  The split kernels do the fused one's
  // operations in its order, so the bits are the same.
  for (;;) {
    for (ShardedBuffer::PinnedShard& shard : pins) {
      weight_increment(slice(params, shard), shard.view.span(), alpha_,
                       slice(delta_.span(), shard));
    }
    // lint:allow-next-line(no-blocking-under-lock,pin-lifetime)
    std::vector<ShardedBuffer::PinnedShard> fresh = global_.read_pinned(home_shard_());
    if (same_epochs(pins, fresh)) break;
    pins = std::move(fresh);
  }
  apply_increment_locally(params, delta_.span());
}

void Exchange::read_global(std::span<float> dst) {
  std::unique_lock lock(mutex_);
  wait_for_flush(lock);
  if (stopping_) throw smb::SmbUnavailable("SMB lost during checkpoint");
  // Checkpoint consistency REQUIRES reading W_g inside the exchange window:
  // no accumulate can be in flight while the mutex is held.
  // lint:allow-next-line(no-blocking-under-lock)
  global_.read(dst);
}

void Exchange::drain() {
  std::unique_lock lock(mutex_);
  wait_for_flush(lock);
}

void Exchange::serve() {
  // The update thread flushes while *holding* mutex_: that mutex IS the
  // Fig. 6 mutual exclusion between the main thread's T1/T2 window and the
  // flush, and the only other party is the main thread, which is parked on
  // cv_ (mutex released) whenever the flush runs.
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return pending_ || stopping_; });
    if (!pending_) return;  // stopping with nothing pending
    flush();
    pending_ = false;
    cv_.notify_all();  // T.A5: wake a blocked main thread
  }
}

void Exchange::flush() SHMCAFFE_REQUIRES(mutex_) {
  try {
    // T.A1: store the weight increment in this root's RSM segments.
    // lint:allow-next-line(no-blocking-under-lock) the flush IS the window
    increments_.write(delta_.span(), home_shard_());
    // T.A2-T.A4: exclusive server-side global accumulate (eq. 7), shard by
    // shard across the SMB servers starting at the home shard.
    // lint:allow-next-line(no-blocking-under-lock) the flush IS the window
    increments_.accumulate_into(global_, home_shard_());
  } catch (const smb::SmbUnavailable&) {
    // Every replica of some shard is gone.  Unblock the main thread and bow
    // out; its own SMB access surfaces the failure.
    stopping_ = true;
  } catch (const smb::SmbCorruption&) {
    // Unrepairable corruption on the delta/global path: this increment
    // cannot land safely, so drop it.  The main thread's next exchange read
    // surfaces the corruption and rolls W_g back.
  }
}

void Exchange::stop() {
  std::scoped_lock lock(mutex_);
  stopping_ = true;
  cv_.notify_all();
}

}  // namespace shmcaffe::core

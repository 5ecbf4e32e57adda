// In-process MPI subset ("MiniMPI").
//
// Ranks are OS threads sharing one Context.  The subset covers everything
// the four platforms in the paper call:
//   * ShmCaffe     — init, rank/size, Bcast of the SHM key, Barrier
//   * Caffe-MPI    — Send/Recv (star-topology gradient gather / weight push)
//   * MPICaffe     — Allreduce (ring) over gradients
//
// Point-to-point messages are byte vectors with (source, tag) matching and
// FIFO order per (source, tag).  Collectives must be entered by all ranks in
// the same order (standard MPI contract); tags for their internal traffic
// are drawn from a reserved space keyed by a per-rank operation counter, so
// user tags never collide with collective traffic.
//
// A simulated-time twin for the performance model lives in sim_mpi.h.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/ordered_mutex.h"

namespace shmcaffe::minimpi {

inline constexpr int kAnySource = -1;

class MpiError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Endpoint;

/// Shared state of one MPI "world".  Create it once, hand each thread its
/// Endpoint via `endpoint(rank)`.
class Context {
 public:
  explicit Context(int size);
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] Endpoint endpoint(int rank);

 private:
  friend class Endpoint;

  struct Message {
    int source = 0;
    int tag = 0;
    std::vector<std::byte> data;
  };

  // Mailbox and barrier locks are leaves of the global lock order: nothing
  // else is ever acquired while one is held (delivery copies the payload in
  // and out under the lock, and the barrier only touches its own state).
  struct Mailbox {
    common::OrderedMutex mutex{"minimpi.mailbox", common::lockrank::kMpiMailbox};
    std::condition_variable_any cv;
    std::deque<Message> messages SHMCAFFE_GUARDED_BY(mutex);
  };

  struct BarrierState {
    common::OrderedMutex mutex{"minimpi.barrier", common::lockrank::kMpiBarrier};
    std::condition_variable_any cv;
    int arrived SHMCAFFE_GUARDED_BY(mutex) = 0;
    std::uint64_t generation SHMCAFFE_GUARDED_BY(mutex) = 0;
  };

  void post(int to, Message message);
  SHMCAFFE_BLOCKS Message take(int at, int from, int tag);

  int size_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::uint64_t> collective_counter_;  // per rank, local
  BarrierState barrier_;
};

/// A rank's handle onto the world.  Cheap to copy; one per thread.
class Endpoint {
 public:
  Endpoint() = default;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return context_->size(); }

  // --- point-to-point ------------------------------------------------------

  void send_bytes(int to, int tag, std::vector<std::byte> data);
  /// Blocks until a message from `from` (or kAnySource) with `tag` arrives.
  SHMCAFFE_BLOCKS std::vector<std::byte> recv_bytes(int from, int tag);

  template <typename T>
  void send_value(int to, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> data(sizeof(T));
    std::memcpy(data.data(), &value, sizeof(T));
    send_bytes(to, tag, std::move(data));
  }

  template <typename T>
  T recv_value(int from, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::vector<std::byte> data = recv_bytes(from, tag);
    if (data.size() != sizeof(T)) throw MpiError("recv_value size mismatch");
    T value;
    std::memcpy(&value, data.data(), sizeof(T));
    return value;
  }

  void send_floats(int to, int tag, std::span<const float> values);
  /// Receives into `dst`; the message length must equal dst.size().
  void recv_floats(int from, int tag, std::span<float> dst);

  // --- collectives (all ranks must call, same order) -----------------------

  SHMCAFFE_BLOCKS void barrier();

  /// Root's buffer is broadcast into everyone's `data`.
  SHMCAFFE_BLOCKS void broadcast(int root, std::span<float> data);
  template <typename T>
  void broadcast_value(int root, T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const int tag = next_collective_tag();
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r) {
        if (r != root) send_value(r, tag, value);
      }
    } else {
      value = recv_value<T>(root, tag);
    }
  }

  /// Elementwise sum across ranks, result in everyone's `data` (ring).
  SHMCAFFE_BLOCKS void allreduce_sum(std::span<float> data);

  /// Elementwise sum across ranks, result only at root.
  void reduce_sum(int root, std::span<float> data);

 private:
  friend class Context;
  Endpoint(Context* context, int rank) : context_(context), rank_(rank) {}

  [[nodiscard]] int next_collective_tag();

  Context* context_ = nullptr;
  int rank_ = 0;
};

}  // namespace shmcaffe::minimpi

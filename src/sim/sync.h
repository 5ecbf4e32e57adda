// Synchronisation primitives for simulated processes.
//
// All wake-ups are handed to the Simulation queue (never resumed inline), so
// waiters run in deterministic FIFO order at the current simulated time.
//
//   Event      — level-triggered broadcast flag (set/reset/wait)
//   Semaphore  — counting semaphore with FIFO handoff
//   SimMutex   — mutual exclusion; `co_await m.scoped_lock()` returns a RAII guard
//   Barrier    — reusable N-party barrier (generation-counted)
//   Channel<T> — bounded FIFO with awaitable push/pop
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "sim/task.h"

namespace shmcaffe::sim {

/// Level-triggered event: wait() completes immediately while set.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(&sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  /// Sets the flag and wakes every current waiter.
  void set() {
    set_ = true;
    for (std::coroutine_handle<> h : std::exchange(waiters_, {})) sim_->schedule_now(h);
  }

  void reset() { set_ = false; }

  auto wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const noexcept { return event->set_; }
      void await_suspend(std::coroutine_handle<> h) const { event->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore.  release() hands permits directly to queued waiters
/// (FIFO), so a releaser cannot barge past an earlier blocked acquirer.
class Semaphore {
 public:
  Semaphore(Simulation& sim, std::int64_t initial) : sim_(&sim), available_(initial) {
    assert(initial >= 0);
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  [[nodiscard]] std::int64_t available() const { return available_; }

  auto acquire() {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() const noexcept {
        if (sem->available_ > 0) {
          --sem->available_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) const { sem->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void release(std::int64_t n = 1) {
    assert(n >= 0);
    while (n > 0 && !waiters_.empty()) {
      sim_->schedule_now(waiters_.front());
      waiters_.pop_front();
      --n;
    }
    available_ += n;
  }

 private:
  Simulation* sim_;
  std::int64_t available_;
  std::deque<std::coroutine_handle<>> waiters_;
};

class SimMutex;

/// RAII ownership of a SimMutex; unlocks when destroyed (or released).
class [[nodiscard]] SimLock {
 public:
  SimLock() = default;
  explicit SimLock(SimMutex* mutex) : mutex_(mutex) {}
  SimLock(SimLock&& other) noexcept : mutex_(std::exchange(other.mutex_, nullptr)) {}
  SimLock& operator=(SimLock&& other) noexcept {
    if (this != &other) {
      unlock();
      mutex_ = std::exchange(other.mutex_, nullptr);
    }
    return *this;
  }
  SimLock(const SimLock&) = delete;
  SimLock& operator=(const SimLock&) = delete;
  ~SimLock() { unlock(); }

  [[nodiscard]] bool owns_lock() const { return mutex_ != nullptr; }
  void unlock();

 private:
  SimMutex* mutex_ = nullptr;
};

/// Mutual exclusion for simulated processes.
class SimMutex {
 public:
  explicit SimMutex(Simulation& sim) : sem_(sim, 1) {}

  /// `SimLock lock = co_await m.scoped_lock();`
  auto scoped_lock() {
    struct Awaiter {
      SimMutex* mutex;
      decltype(std::declval<Semaphore>().acquire()) inner;
      bool await_ready() const noexcept { return inner.await_ready(); }
      void await_suspend(std::coroutine_handle<> h) const { inner.await_suspend(h); }
      SimLock await_resume() const noexcept { return SimLock{mutex}; }
    };
    return Awaiter{this, sem_.acquire()};
  }

  [[nodiscard]] bool is_locked() const { return sem_.available() == 0; }

 private:
  friend class SimLock;
  Semaphore sem_;
};

inline void SimLock::unlock() {
  if (mutex_ != nullptr) {
    mutex_->sem_.release();
    mutex_ = nullptr;
  }
}

/// Reusable barrier for `parties` processes.
class Barrier {
 public:
  Barrier(Simulation& sim, std::size_t parties) : sim_(&sim), parties_(parties) {
    assert(parties >= 1);
  }

  auto arrive_and_wait() {
    struct Awaiter {
      Barrier* barrier;
      bool await_ready() const noexcept {
        if (barrier->arrived_ + 1 == barrier->parties_) {
          barrier->arrived_ = 0;
          for (std::coroutine_handle<> h : std::exchange(barrier->waiters_, {})) {
            barrier->sim_->schedule_now(h);
          }
          return true;  // last arriver passes straight through
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) const {
        ++barrier->arrived_;
        barrier->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Bounded FIFO channel between simulated processes.
template <typename T>
class Channel {
 public:
  Channel(Simulation& sim, std::size_t capacity)
      : slots_(sim, static_cast<std::int64_t>(capacity)), items_(sim, 0) {
    assert(capacity >= 1);
  }

  Task<void> push(T value) {
    co_await slots_.acquire();
    buffer_.push_back(std::move(value));
    items_.release();
  }

  Task<T> pop() {
    co_await items_.acquire();
    assert(!buffer_.empty());
    T value = std::move(buffer_.front());
    buffer_.pop_front();
    slots_.release();
    co_return value;
  }

  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  Semaphore slots_;
  Semaphore items_;
  std::deque<T> buffer_;
};

}  // namespace shmcaffe::sim

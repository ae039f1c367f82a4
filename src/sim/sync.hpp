#pragma once

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace vnet::sim {

namespace detail {

/// Allocator recycling CondVar wait-state blocks. Every datapath wait
/// (host block/block_for, firmware doze) materializes one shared state;
/// with make_shared that is a fresh heap allocation per wait. A
/// thread-local free list (one size class: the allocator is only ever
/// rebound to the combined control-block + WaitState type) keeps
/// steady-state waiting allocation-free with no cross-thread traffic when
/// shard workers (sim/shard.hpp) run engines in parallel. Blocks freed on
/// a different thread than they were allocated just migrate pools; both
/// sides bottom out in global new/delete.
template <typename T>
struct WaitStateAlloc {
  using value_type = T;
  WaitStateAlloc() = default;
  template <typename U>
  WaitStateAlloc(const WaitStateAlloc<U>&) noexcept {}  // NOLINT
  template <typename U>
  bool operator==(const WaitStateAlloc<U>&) const noexcept {
    return true;
  }

  T* allocate(std::size_t n) {
    auto& fl = freelist();
    if (n == 1 && !fl.empty()) {
      void* p = fl.back();
      fl.pop_back();
      return static_cast<T*>(p);
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    auto& fl = freelist();
    if (n == 1 && fl.size() < 1024) {
      fl.push_back(p);
      return;
    }
    ::operator delete(p);
  }

 private:
  // One free list per rebound T, so every pooled block has T's exact size.
  // The pool frees parked blocks when its thread exits (engines are always
  // torn down before their driving thread), keeping LeakSanitizer clean.
  struct Pool {
    std::vector<void*> slots;
    ~Pool() {
      for (void* p : slots) ::operator delete(p);
    }
  };
  static std::vector<void*>& freelist() {
    static thread_local Pool pool;
    return pool.slots;
  }
};

}  // namespace detail

/// Condition variable for simulation processes.
///
/// As with POSIX condition variables, waits can wake spuriously relative to
/// the guarded predicate (another process may consume the state between
/// notify and resume), so callers loop:
///
///     while (!pred()) co_await cv.wait();
///
/// All wakeups are delivered through the engine's event queue in FIFO order.
class CondVar {
 public:
  explicit CondVar(Engine& engine) : engine_(&engine) {}

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Awaitable: suspends until notify_one()/notify_all().
  auto wait() {
    struct Awaiter {
      CondVar& cv;
      std::shared_ptr<WaitState> state;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        state = std::allocate_shared<WaitState>(
            detail::WaitStateAlloc<WaitState>{});
        state->handle = h;
        cv.enqueue(state);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, nullptr};
  }

  /// Awaitable: suspends until notified or until `d` elapses.
  /// `co_await cv.wait_for(d)` yields true if notified, false on timeout.
  /// A notify cancels the timeout event outright (O(1) in the event queue),
  /// so heavily-notified waiters leave no stale timer events behind.
  auto wait_for(Duration d) {
    struct Awaiter {
      CondVar& cv;
      Duration d;
      std::shared_ptr<WaitState> state;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        state = std::allocate_shared<WaitState>(
            detail::WaitStateAlloc<WaitState>{});
        state->handle = h;
        cv.enqueue(state);
        Engine& eng = *cv.engine_;
        state->timer = eng.after(d, [s = state, &eng] {
          if (s->done) return;  // already notified
          s->done = true;
          s->notified = false;
          eng.post(s->handle);
        });
      }
      bool await_resume() const noexcept { return state->notified; }
    };
    return Awaiter{*this, d, nullptr};
  }

  /// Wakes the earliest live waiter, if any.
  void notify_one() {
    while (!waiters_.empty()) {
      auto s = std::move(waiters_.front());
      waiters_.pop_front();
      if (s->done) continue;  // timed out; entry is stale
      s->done = true;
      s->notified = true;
      if (s->timer.valid()) engine_->cancel(s->timer);
      engine_->post(s->handle);
      return;
    }
  }

  /// Wakes all live waiters in FIFO order.
  void notify_all() {
    if (waiters_.empty()) return;  // hot path: most notifies find no waiter
    auto pending = std::move(waiters_);
    waiters_.clear();
    for (auto& s : pending) {
      if (s->done) continue;
      s->done = true;
      s->notified = true;
      if (s->timer.valid()) engine_->cancel(s->timer);
      engine_->post(s->handle);
    }
  }

  /// Number of live (not yet notified or timed-out) waiters.
  std::size_t waiter_count() const {
    std::size_t n = 0;
    for (const auto& s : waiters_) {
      if (!s->done) ++n;
    }
    return n;
  }
  Engine& engine() { return *engine_; }

 private:
  struct WaitState {
    std::coroutine_handle<> handle;
    EventHandle timer;  // wait_for() only: cancelled on notify
    bool done = false;
    bool notified = false;
  };

  // The timeout closure cannot erase its own stale state (the CondVar may
  // be destroyed first), so enqueue drops stale states once the deque
  // doubles past the live count of the last sweep: storage stays
  // O(live waiters) at amortized O(1) per wait, even with no notify.
  static constexpr std::size_t kMinCompactSize = 16;

  void enqueue(std::shared_ptr<WaitState> s) {
    if (waiters_.size() >= compact_at_) {
      std::erase_if(waiters_, [](const auto& w) { return w->done; });
      compact_at_ = std::max(kMinCompactSize, 2 * waiters_.size());
    }
    waiters_.push_back(std::move(s));
  }

  Engine* engine_;
  std::deque<std::shared_ptr<WaitState>> waiters_;
  std::size_t compact_at_ = kMinCompactSize;
};

/// One-shot latch: processes wait until open() is called once; waits after
/// that complete immediately. Used for residency transitions and joins.
class Gate {
 public:
  explicit Gate(Engine& engine) : engine_(&engine) {}

  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  bool is_open() const { return open_; }

  void open() {
    if (open_) return;
    open_ = true;
    for (auto h : waiters_) engine_->post(h);
    waiters_.clear();
  }

  auto wait() {
    struct Awaiter {
      Gate& gate;
      bool await_ready() const noexcept { return gate.open_; }
      void await_suspend(std::coroutine_handle<> h) {
        gate.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

 private:
  Engine* engine_;
  bool open_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore with FIFO hand-off, for modelling exclusive hardware
/// resources (DMA engines, bus grants).
class Semaphore {
 public:
  Semaphore(Engine& engine, int initial) : engine_(&engine), count_(initial) {}

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() noexcept {
        if (sem.count_ > 0) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  bool try_acquire() {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  /// Releases one unit; hands it directly to the earliest waiter if any.
  void release() {
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      engine_->post(h);  // waiter proceeds without touching count_
    } else {
      ++count_;
    }
  }

  int available() const { return count_; }
  std::size_t waiter_count() const { return waiters_.size(); }

 private:
  Engine* engine_;
  int count_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// RAII-style mutex built on Semaphore; use `co_await m.acquire(); ...
/// m.release();` around critical sections touching shared sim state across
/// suspension points.
class Mutex : public Semaphore {
 public:
  explicit Mutex(Engine& engine) : Semaphore(engine, 1) {}
};

/// Unbounded message queue between processes (firmware mailboxes, driver
/// request queues). post() never blocks; receive() suspends when empty and
/// hands values to receivers in FIFO order.
template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Engine& engine) : engine_(&engine) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  void post(T value) {
    if (!receivers_.empty()) {
      Receiver r = receivers_.front();
      receivers_.pop_front();
      *r.slot = std::move(value);
      engine_->post(r.handle);
    } else {
      queue_.push_back(std::move(value));
    }
  }

  /// Awaitable: yields the next value, suspending if none is queued.
  auto receive() {
    struct Awaiter {
      Mailbox& box;
      std::optional<T> slot;
      bool await_ready() noexcept {
        if (!box.queue_.empty()) {
          slot = std::move(box.queue_.front());
          box.queue_.pop_front();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        box.receivers_.push_back(Receiver{&slot, h});
      }
      T await_resume() { return std::move(*slot); }
    };
    return Awaiter{*this, std::nullopt};
  }

  std::optional<T> try_receive() {
    if (queue_.empty()) return std::nullopt;
    T v = std::move(queue_.front());
    queue_.pop_front();
    return v;
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

 private:
  struct Receiver {
    std::optional<T>* slot;
    std::coroutine_handle<> handle;
  };

  Engine* engine_;
  std::deque<T> queue_;
  std::deque<Receiver> receivers_;
};

}  // namespace vnet::sim

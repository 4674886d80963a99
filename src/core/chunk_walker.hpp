// The one walk over the global chunk index space.
//
// Keeping every stripe at full RAID redundancy (§IV-A) and moving shards
// when the fleet changes (§IV-C) are the same loop with different per-row
// work, so repair, rebalance, the Migrator and the Scrubber are per-row
// policies over this one walker. walk() visits [0, bound) with at most
// `max_in_flight` rows in flight on a private pool (rows block on the
// distributor's shard-I/O pool, so they must not run on it); a bound of 1
// runs each row inline on the calling thread. Every row is visited even
// after one fails, and walk() returns the first failing row's error in
// index order: one sick stripe must not shadow the rest of the table.
// stop() ends a walk at the next row boundary. The walker also owns the
// background thread its users run walks on, and a sleep stop() interrupts.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <thread>

#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace cshield::core {

class ChunkWalker {
 public:
  /// Rows are issued at most `rows_per_sec` per second (0 = unpaced).
  explicit ChunkWalker(std::size_t max_in_flight, double rows_per_sec = 0.0)
      : width_(std::max<std::size_t>(1, max_in_flight)),
        period_(rows_per_sec > 0.0 ? 1.0 / rows_per_sec : 0.0) {}
  ChunkWalker(const ChunkWalker&) = delete;
  ChunkWalker& operator=(const ChunkWalker&) = delete;
  ~ChunkWalker() { stop(); }

  /// Visits every index in [0, bound) unless stopped; returns the first
  /// error (index order) once every issued row has finished.
  Status walk(std::size_t bound,
              const std::function<Status(std::size_t)>& visit) {
    Status first_error = Status::Ok();
    auto note = [&first_error](Status st) {
      if (first_error.ok()) first_error = std::move(st);
    };
    std::optional<ThreadPool> pool;
    if (width_ > 1 && bound > 1) pool.emplace(std::min(width_, bound));
    std::deque<std::future<Status>> window;  // drained in issue order
    for (std::size_t idx = 0; idx < bound && !stopping(); ++idx) {
      cursor_.store(idx, std::memory_order_relaxed);
      if (!pool.has_value()) {
        note(visit(idx));
      } else {
        window.push_back(pool->submit([&visit, idx] { return visit(idx); }));
        if (window.size() == width_) {
          note(window.front().get());
          window.pop_front();
        }
      }
      if (period_.count() > 0) (void)sleep_for(period_);
    }
    for (; !window.empty(); window.pop_front()) note(window.front().get());
    return first_error;
  }

  /// Runs `body` on the background thread and clears a previous stop().
  /// No-op while one still runs; a finished one is reaped first.
  void start(std::function<void()> body) {
    std::lock_guard<std::mutex> lock(mu_);
    if (thread_.joinable()) {
      // Joining under mu_ is safe: clearing running_, the thread's last
      // act, does not take mu_.
      if (running()) return;
      thread_.join();
    }
    rearm();
    running_.store(true, std::memory_order_relaxed);
    thread_ = std::thread([this, body = std::move(body)] {
      body();
      running_.store(false, std::memory_order_release);
    });
  }

  /// Requests a stop (walks end at the next row boundary, sleeps wake) and
  /// joins the background thread. The request stands until start()/rearm().
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_relaxed);
    }
    cv_.notify_all();
    join();
  }

  /// Joins the background thread without requesting a stop.
  void join() {
    std::thread to_join;
    {
      std::lock_guard<std::mutex> lock(mu_);
      to_join = std::move(thread_);
    }
    if (to_join.joinable()) to_join.join();
  }

  /// Clears a stop request, for a synchronous walk after stop().
  void rearm() { stop_.store(false, std::memory_order_relaxed); }

  /// Sleeps for `d` unless a stop arrives first; true when stopped.
  bool sleep_for(std::chrono::duration<double> d) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, d, [this] { return stopping(); });
  }

  [[nodiscard]] bool stopping() const {
    return stop_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  /// The index the walk last issued.
  [[nodiscard]] std::size_t cursor() const {
    return cursor_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t width_;
  const std::chrono::duration<double> period_;  ///< between row issues
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::size_t> cursor_{0};
  std::mutex mu_;  ///< guards thread_ and backs cv_
  std::condition_variable cv_;
  std::thread thread_;
};

}  // namespace cshield::core

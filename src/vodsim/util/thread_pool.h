#pragma once

/// \file thread_pool.h
/// \brief Fixed-size fork-join pool: `parallel_for` is its one entry point.
///
/// Two callers fan work out through it: `ExperimentRunner` runs
/// (trial, data-point) cells, and the sharded engine drains the shards that
/// are busy in a window. Each index owns its state, so nothing is shared
/// beyond the result slots the caller provides. Persistent workers park on
/// an epoch counter; a call publishes one job, bumps the epoch, drains
/// alongside the workers and returns only after every worker has checked
/// out of the job. On a single-core host the pool degrades gracefully to
/// near-serial execution.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace vodsim {

class ThreadPool {
 public:
  /// Spawns \p num_threads workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Wakes and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for i in [0, count) across the pool and blocks until all
  /// complete. Every index runs even when some throw; the exception from
  /// the lowest failing index is rethrown on the caller after the join.
  ///
  /// Runs caller-only (the calling thread drains every index itself) when
  /// count is 1, when called from a pool worker (e.g. a sweep trial that
  /// runs a sharded simulation), and when another call already has a job
  /// in flight on this pool (a second outside thread, or a nested call on
  /// the caller's own strand). No call ever waits for a worker that is
  /// busy with another job, so nesting cannot deadlock; index coverage and
  /// the exception rule are the same either way, only the parallelism
  /// degrades.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// True when the calling thread is one of this process's pool workers
  /// (any pool — the flag is per-thread, not per-pool). Exposed so callers
  /// that would *rather* restructure than serialize can fail loudly.
  static bool on_pool_worker();

  std::size_t size() const { return workers_.size(); }

 private:
  struct Job;

  void worker_loop();

  std::vector<std::thread> workers_;
  /// The job in flight; written before the epoch bump that publishes it.
  Job* job_ = nullptr;
  /// Bumped once per published job (and once at shutdown). 32 bits keep
  /// `std::atomic::wait` on the direct futex path.
  std::atomic<std::uint32_t> epoch_{0};
  /// Workers that have not yet checked out of the job in flight.
  std::atomic<std::uint32_t> in_job_{0};
  /// Set while an outside caller owns the job slot.
  std::atomic<bool> busy_{false};
  bool stopping_ = false;  ///< published by the shutdown epoch bump
};

}  // namespace vodsim

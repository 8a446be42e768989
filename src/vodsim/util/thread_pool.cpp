#include "vodsim/util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>

namespace vodsim {

namespace {
// Set for the lifetime of every worker thread (workers die with their
// pool, so no unwinding needed). parallel_for consults it to run nested
// calls caller-only — see the header comment.
thread_local bool t_on_pool_worker = false;
}  // namespace

/// One parallel_for call: strands take chunks of indices from a shared
/// cursor, so cursor traffic is O(strands), not O(count). Chunks keep the
/// cursor cold for large counts while staying small enough (>= 8 grabs per
/// strand) that uneven index durations still load-balance.
struct ThreadPool::Job {
  Job(const std::function<void(std::size_t)>& fn, std::size_t count,
      std::size_t strands)
      : fn(fn), count(count), chunk(std::max<std::size_t>(1, count / (8 * strands))) {}

  void drain() {
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) return;
      const std::size_t end = std::min(count, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          // The lowest failing index wins: a deterministic choice, unlike
          // completion order (pinned by thread_pool_test).
          std::lock_guard<std::mutex> lock(error_mutex);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
        }
      }
    }
  }

  const std::function<void(std::size_t)>& fn;
  const std::size_t count;
  const std::size_t chunk;
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
};

bool ThreadPool::on_pool_worker() { return t_on_pool_worker; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stopping_ = true;
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Fork only from an outside thread that wins the job slot; otherwise the
  // calling strand drains alone (no worker is ever waited on).
  const bool fork = count > 1 && !t_on_pool_worker &&
                    !busy_.exchange(true, std::memory_order_acquire);
  Job job(fn, count, fork ? std::min(workers_.size() + 1, count) : 1);
  if (fork) {
    job_ = &job;
    in_job_.store(static_cast<std::uint32_t>(workers_.size()),
                  std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    epoch_.notify_all();
  }
  job.drain();
  if (fork) {
    // Every worker checks out of every job, so none touches `job` (or
    // `fn`) after this wait; the acquire gives the caller a happens-before
    // edge from every index's effects.
    for (std::uint32_t left = in_job_.load(std::memory_order_acquire); left != 0;
         left = in_job_.load(std::memory_order_acquire)) {
      in_job_.wait(left, std::memory_order_acquire);
    }
    busy_.store(false, std::memory_order_release);
  }
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::worker_loop() {
  t_on_pool_worker = true;
  // A job is published only after every worker checked out of the last
  // one, so the epoch is at most one step past `seen` when a worker parks.
  for (std::uint32_t seen = 0;; ++seen) {
    epoch_.wait(seen, std::memory_order_acquire);
    if (stopping_) return;
    job_->drain();
    if (in_job_.fetch_sub(1, std::memory_order_acq_rel) == 1) in_job_.notify_one();
  }
}

}  // namespace vodsim

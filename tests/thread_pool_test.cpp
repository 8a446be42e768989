// ThreadPool failure-path and lifecycle tests. The basics (indices run,
// cover the range) live in util_test.cpp; this file pins the contracts
// experiments actually lean on: exception propagation out of parallel_for
// picks the first failing index, a throw does not poison the pool, the
// destructor joins parked workers, and concurrent callers cannot lose work.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "vodsim/util/thread_pool.h"

namespace vodsim {
namespace {

/// Distinct type so the tests can prove the *original* exception object
/// crosses the pool boundary, not a translation of it.
struct TrialError : std::runtime_error {
  explicit TrialError(std::size_t index)
      : std::runtime_error("trial " + std::to_string(index) + " failed"),
        index(index) {}
  std::size_t index;
};

/// Runs \p on_worker on one of the pool's workers: a 2-index job whose
/// indices meet at a latch can finish only with one index on the caller
/// and the other on a worker.
void run_on_worker(ThreadPool& pool, const std::function<void()>& on_worker) {
  std::latch meet(2);
  pool.parallel_for(2, [&](std::size_t) {
    meet.arrive_and_wait();
    if (ThreadPool::on_pool_worker()) on_worker();
  });
}

TEST(ThreadPoolErrors, ParallelForRethrowsFirstFailingIndex) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 10 || i == 40) throw TrialError(i);
      completed.fetch_add(1);
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const TrialError& error) {
    // The lowest failing index wins regardless of which strand ran it
    // first or in what order strands finished.
    EXPECT_EQ(error.index, 10u);
  }
  // Every non-throwing task still ran to completion before the rethrow:
  // parallel_for must not abandon in-flight work.
  EXPECT_EQ(completed.load(), 62);
}

TEST(ThreadPoolErrors, ParallelForEmptyRangeIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  // The pool is still healthy afterwards.
  pool.parallel_for(3, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ThreadPoolErrors, ParallelForCountBelowWorkerCountCoversEveryIndex) {
  // Fewer indices than workers: surplus strands must find the cursor
  // exhausted and exit; every index runs exactly once.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolErrors, ParallelForSingleIndexThrowPropagates) {
  // count == 1 runs entirely on the calling thread (no helpers); the
  // exception path must be identical to the pooled one.
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(1, [](std::size_t) { throw TrialError(0); }),
               TrialError);
}

TEST(ThreadPoolErrors, PoolSurvivesATaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8, [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);

  // The same pool keeps accepting and completing work afterwards.
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolErrors, WorkerExceptionReachesTheCaller) {
  ThreadPool pool(1);
  const TrialError* thrown = nullptr;
  try {
    run_on_worker(pool, [&] {
      try {
        throw TrialError(7);
      } catch (const TrialError& error) {
        thrown = &error;
        throw;
      }
    });
    FAIL() << "parallel_for swallowed the worker's exception";
  } catch (const TrialError& error) {
    EXPECT_EQ(&error, thrown);  // the very object the worker threw
    EXPECT_EQ(error.index, 7u);
  }
}

TEST(ThreadPoolNesting, NestedParallelForFromWorkerCompletesInline) {
  // A sharded sweep trial nests pool usage: the sweep's parallel_for runs
  // trials on workers, and each trial's sharded engine issues its own
  // parallel_for for shard drains. Before the worker guard this deadlocked
  // whenever every worker blocked joining helper tasks stuck behind the
  // outer tasks themselves. The guard makes nested calls caller-only, so
  // this test both terminates and covers every inner index exactly once.
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  ThreadPool pool(2);  // fewer workers than outer tasks forces the hazard
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> nested_on_worker{0};
  // Outer indices 0 and 1 meet at a latch, so at least one of them runs on
  // a worker however fast the caller strand drains the rest.
  std::latch meet(2);
  pool.parallel_for(kOuter, [&](std::size_t outer) {
    if (outer < 2) meet.arrive_and_wait();
    if (ThreadPool::on_pool_worker()) nested_on_worker.fetch_add(1);
    pool.parallel_for(kInner, [&](std::size_t inner) {
      hits[outer * kInner + inner].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "inner index " << i;
  }
  // The caller strand handles some outer indices on the main thread; the
  // guard must have engaged for at least the worker-run ones.
  EXPECT_GE(nested_on_worker.load(), 1);
}

TEST(ThreadPoolNesting, NestedParallelForKeepsExceptionPolicy) {
  // The caller-only fallback must preserve the parallel_for contract:
  // every index runs, and the lowest failing index's exception wins.
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  try {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(16, [&](std::size_t i) {
        if (i == 3 || i == 12) throw TrialError(i);
        completed.fetch_add(1);
      });
    });
    FAIL() << "nested parallel_for swallowed the exception";
  } catch (const TrialError& error) {
    EXPECT_EQ(error.index, 3u);
  }
  // Only the first outer task's exception propagates out of the outer
  // call, but every outer task ran its full inner range (14 survivors
  // per outer iteration).
  EXPECT_EQ(completed.load(), 4 * 14);
}

TEST(ThreadPoolNesting, OnPoolWorkerIsFalseOnCallerThread) {
  ThreadPool pool(1);
  EXPECT_FALSE(ThreadPool::on_pool_worker());
  int worker_runs = 0;
  run_on_worker(pool, [&] {
    EXPECT_TRUE(ThreadPool::on_pool_worker());
    ++worker_runs;
  });
  EXPECT_EQ(worker_runs, 1);
  EXPECT_FALSE(ThreadPool::on_pool_worker());
}

TEST(ThreadPoolLifecycle, DestructorJoinsParkedWorkers) {
  // A pool that never ran a job: its workers may not even have parked yet.
  { ThreadPool pool(4); }
  // Right after a job: the workers have checked out and are parking again.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    pool.parallel_for(64, [&](std::size_t) { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolLifecycle, ConcurrentCallersLoseNoWork) {
  // Several outside threads call parallel_for on one pool at once: one
  // wins the fork, the others run caller-only. Every index of every call
  // must run exactly once.
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kCount = 250;
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(kCallers * kCount);
  std::latch start(kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      start.arrive_and_wait();
      pool.parallel_for(kCount, [&](std::size_t i) { hits[c * kCount + i].fetch_add(1); });
    });
  }
  for (auto& caller : callers) caller.join();
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "call " << i / kCount << " index " << i % kCount;
  }
}

TEST(ThreadPoolLifecycle, BackToBackTinyJobsAllComplete) {
  // Each job is published by one epoch bump; a worker that missed a wakeup,
  // or woke twice for one epoch, would hang the join or run a stale job.
  constexpr int kJobs = 10000;
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int job = 0; job < kJobs; ++job) {
    pool.parallel_for(4, [&](std::size_t i) { sum.fetch_add(static_cast<long>(i) + 1); });
  }
  EXPECT_EQ(sum.load(), 10L * kJobs);
}

}  // namespace
}  // namespace vodsim

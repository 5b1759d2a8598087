#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace splace {
namespace {

TEST(ThreadPool, SpawnsRequestedWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i)
    pool.submit([&counter] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, TasksRunConcurrently) {
  // Two tasks that each wait for the other's side effect deadlock unless
  // at least two workers run them concurrently.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&arrived] {
      ++arrived;
      while (arrived.load() < 2) std::this_thread::yield();
    });
  }
  pool.wait();
  EXPECT_EQ(arrived.load(), 2);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error is consumed; subsequent waits are clean.
  pool.submit([] {});
  EXPECT_NO_THROW(pool.wait());
}

TEST(ThreadPool, WaitClearsRethrownErrorSoSubsequentWaitSucceeds) {
  // Documented contract (thread_pool.hpp): wait() rethrows the FIRST task
  // exception and clears it, so the next wait() — with or without new work
  // in between — must not see the stale error again.
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("first"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_NO_THROW(pool.wait());  // immediately after: error consumed
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) pool.submit([&counter] { ++counter; });
  EXPECT_NO_THROW(pool.wait());  // after new clean work: still clean
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, SubmitWithResultDeliversValue) {
  ThreadPool pool(2);
  std::future<int> future = pool.submit_with_result([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitWithResultSupportsVoidAndMoveOnlyState) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  auto ptr = std::make_unique<int>(9);
  std::future<void> done = pool.submit_with_result(
      [&ran, ptr = std::move(ptr)] { ran = *ptr == 9; });
  done.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, SubmitWithResultRoutesExceptionsThroughTheFuture) {
  // The future is the error channel: a failing submit_with_result task must
  // not poison wait()'s first-error slot for unrelated callers.
  ThreadPool pool(2);
  std::future<int> future = pool.submit_with_result(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  pool.submit([] {});
  EXPECT_NO_THROW(pool.wait());
}

TEST(ThreadPool, SubmitWithResultManyConcurrentFutures) {
  ThreadPool pool(4);
  std::vector<std::future<std::size_t>> futures;
  for (std::size_t i = 0; i < 100; ++i)
    futures.push_back(pool.submit_with_result([i] { return i * i; }));
  for (std::size_t i = 0; i < futures.size(); ++i)
    EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, NullTaskRejected) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.submit(nullptr), ContractViolation);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i)
      pool.submit([&counter] { ++counter; });
  }  // destructor joins after the queue drains
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&hits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 0, [&ran](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, SumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<long> partial(pool.thread_count() * 4 + 1, 0);
  std::atomic<std::size_t> chunk_id{0};
  std::atomic<long> total{0};
  parallel_for(pool, 10000, [&](std::size_t begin, std::size_t end) {
    long sum = 0;
    for (std::size_t i = begin; i < end; ++i) sum += static_cast<long>(i);
    total += sum;
    (void)chunk_id;
    (void)partial;
  });
  EXPECT_EQ(total.load(), 10000L * 9999 / 2);
}

TEST(ParallelFor, ExceptionInBodyPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 10,
                   [](std::size_t begin, std::size_t) {
                     if (begin == 0) throw std::runtime_error("bad chunk");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, RangeSmallerThanPoolSubmitsNoEmptyChunks) {
  // n < thread_count: every submitted chunk must be non-empty and the
  // chunks must partition [0, n) exactly — one single-index chunk each.
  ThreadPool pool(8);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for(pool, 3, [&](std::size_t begin, std::size_t end) {
    std::unique_lock<std::mutex> lock(mutex);
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 3u);
  std::sort(chunks.begin(), chunks.end());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_LT(chunks[i].first, chunks[i].second);  // never empty
    EXPECT_EQ(chunks[i].first, i);
    EXPECT_EQ(chunks[i].second, i + 1);
  }
}

TEST(ParallelChunkCount, Edges) {
  EXPECT_EQ(parallel_chunk_count(0, 4), 0u);    // nothing to do
  EXPECT_EQ(parallel_chunk_count(3, 8), 3u);    // capped by n
  EXPECT_EQ(parallel_chunk_count(100, 8), 8u);  // capped by workers
  EXPECT_EQ(parallel_chunk_count(8, 8), 8u);
}

}  // namespace
}  // namespace splace

// A small fixed-size worker pool: the serving engine's workers, and the
// pools callers hand to brute_force_k1_parallel and run_portfolio. No
// placement search creates one of its own.
//
// Deliberately minimal: fire-and-forget tasks plus a wait-for-drain barrier.
// Exceptions thrown by tasks are captured and rethrown from wait() (first
// one wins), so callers never silently lose failures.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace splace {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>=1; defaults to hardware concurrency).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

  /// Enqueues a task. Must not be called after destruction begins.
  void submit(std::function<void()> task);

  /// Enqueues a callable and returns a future for its result. Exceptions
  /// thrown by `fn` travel through the future, NOT through wait()'s
  /// first-error channel — a submit_with_result failure never poisons an
  /// unrelated caller's wait(). This is the per-request channel the serving
  /// engine uses: many clients can await their own results independently.
  template <typename F>
  std::future<std::invoke_result_t<std::decay_t<F>>> submit_with_result(
      F&& fn) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    submit([task] { (*task)(); });
    return future;
  }

  /// Blocks until every submitted task has finished; rethrows the first
  /// task exception, if any (clearing it for subsequent waits).
  void wait();

 private:
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable drained_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;

  void worker_loop();
};

/// Number of contiguous chunks parallel_for splits [0, n) into: never more
/// than `max_chunks`, never more than n (so no chunk is empty), and 0 only
/// when n == 0.
std::size_t parallel_chunk_count(std::size_t n, std::size_t max_chunks);

/// Splits [0, n) into roughly even non-empty chunks, runs `body(begin, end)`
/// on the pool, and waits for completion (propagating task exceptions).
/// n == 0 is a no-op; n < thread_count submits exactly n single-index chunks.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace splace

#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace splace {

ThreadPool::ThreadPool(std::size_t threads) {
  threads = worker_count(threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

std::size_t ThreadPool::worker_count(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  SPLACE_EXPECTS(task != nullptr);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    SPLACE_EXPECTS(!stopping_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (--in_flight_ == 0) drained_.notify_all();
    }
  }
}

std::size_t parallel_chunk_count(std::size_t n, std::size_t max_chunks) {
  return std::min(n, max_chunks);
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  // n == 0 submits nothing; n below the chunk target yields exactly n
  // single-index chunks — an empty [begin, end) range is never submitted.
  const std::size_t chunks = parallel_chunk_count(n, pool.thread_count() * 4);
  if (chunks == 0) return;
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::size_t begin = i * n / chunks;
    const std::size_t end = (i + 1) * n / chunks;
    pool.submit([&body, begin, end] { body(begin, end); });
  }
  pool.wait();
}

}  // namespace splace

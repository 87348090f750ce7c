#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace tvmbo {

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
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

bool ThreadPool::in_worker_thread() const {
  const std::thread::id self = std::this_thread::get_id();
  for (const std::thread& worker : workers_) {
    if (worker.get_id() == self) return true;
  }
  return false;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(count, 0, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::parallel_for_chunks(
    std::size_t count, std::size_t max_chunks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (max_chunks == 0) max_chunks = num_threads();
  // One contiguous chunk per worker, not one task per item: bounds queue
  // pressure and keeps per-item dispatch overhead off the hot path.
  const std::size_t chunks = std::min({count, max_chunks, num_threads()});
  if (count == 1 || chunks <= 1 || in_worker_thread()) {
    fn(0, count);
    return;
  }

  // Shared with the helper tasks, which may outlive this call: a helper
  // that starts after every chunk was claimed sees the cursor exhausted
  // and returns without touching `fn` or this frame.
  struct Shared {
    std::atomic<std::size_t> cursor{0};
    std::mutex mutex;
    std::condition_variable finished;
    std::size_t done = 0;
    std::exception_ptr error;
  };
  auto shared = std::make_shared<Shared>();
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  const auto* body = &fn;
  auto run_claimed = [shared, chunks, base, extra, body] {
    for (std::size_t c = shared->cursor.fetch_add(1); c < chunks;
         c = shared->cursor.fetch_add(1)) {
      const std::size_t begin = c * base + std::min(c, extra);
      const std::size_t end = begin + base + (c < extra ? 1 : 0);
      std::exception_ptr error;
      try {
        (*body)(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(shared->mutex);
      if (error && !shared->error) shared->error = std::move(error);
      if (++shared->done == chunks) shared->finished.notify_all();
    }
  };
  enqueue(run_claimed, chunks - 1);
  run_claimed();
  // Every chunk is claimed by now; wait for the ones workers started
  // (never for a queued helper) before the frame holding `fn` unwinds.
  std::unique_lock<std::mutex> lock(shared->mutex);
  shared->finished.wait(lock, [&] { return shared->done == chunks; });
  if (shared->error) std::rethrow_exception(shared->error);
}

void ThreadPool::enqueue(const std::function<void()>& task,
                         std::size_t copies) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < copies; ++i) queue_.push_back(task);
  }
  for (std::size_t i = 0; i < copies; ++i) wake_.notify_one();
}

ThreadPool& default_thread_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace tvmbo

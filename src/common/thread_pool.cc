#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <utility>

#include "common/logging.h"

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

// Shared with the helper tasks, which may outlive the Team: a helper that
// starts after the team closed (or its stage was joined or withdrawn)
// returns without touching `body` or the caller's frame. Claims and
// completions go through one mutex; an item (a tree, a chunk of rows) is
// long enough that the lock is never hot.
struct ThreadPool::Team::State {
  static constexpr std::chrono::microseconds kSpin{100};

  std::mutex mutex;
  std::condition_variable work;      ///< helpers: items published, or closed
  std::condition_variable finished;  ///< caller: no claimed item in flight
  const Body* body = nullptr;
  std::size_t count = 0;    ///< items published
  std::size_t next = 0;     ///< first unclaimed item
  std::size_t done = 0;     ///< items finished
  std::size_t arrived = 0;  ///< helpers started, for participant ids
  std::exception_ptr error;
  bool closed = false;
  /// Bumped whenever items are published or the team closes, for helpers
  /// that yield without holding the lock.
  std::atomic<std::uint64_t> epoch{0};

  /// Claims and runs item `next` under `lock`, which is held again on
  /// return.
  void run_next(std::unique_lock<std::mutex>& lock, std::size_t participant) {
    const std::size_t item = next++;
    const Body& fn = *body;
    lock.unlock();
    std::exception_ptr thrown;
    try {
      fn(item, participant);
    } catch (...) {
      thrown = std::current_exception();
    }
    lock.lock();
    if (thrown && !error) error = std::move(thrown);
    if (++done == next) finished.notify_all();
  }

  void help() {
    std::unique_lock<std::mutex> lock(mutex);
    const std::size_t participant = ++arrived;
    while (!closed) {
      if (next < count) {
        run_next(lock, participant);
        continue;
      }
      // More items usually follow within about one item's time (the plan
      // is being built, or the last items finish before the next stage),
      // while a parked thread can take hundreds of microseconds to wake:
      // yield for a bounded while before sleeping.
      const std::uint64_t seen = epoch.load(std::memory_order_relaxed);
      lock.unlock();
      const auto deadline = std::chrono::steady_clock::now() + kSpin;
      while (epoch.load(std::memory_order_acquire) == seen &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      lock.lock();
      work.wait(lock, [this] { return closed || next < count; });
    }
  }
};

ThreadPool::Team::Team(ThreadPool& pool, std::size_t helpers)
    : state_(std::make_shared<State>()),
      helpers_(pool.in_worker_thread()
                   ? 0
                   : std::min(helpers, pool.num_threads())) {
  if (helpers_ > 0) {
    pool.enqueue([state = state_] { state->help(); }, helpers_);
  }
}

ThreadPool::Team::~Team() {
  State& s = *state_;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.closed = true;
    s.epoch.fetch_add(1, std::memory_order_release);
  }
  s.work.notify_all();
}

ThreadPool::Team::Stage ThreadPool::Team::publish(std::size_t count,
                                                  const Body& fn) {
  State& s = *state_;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    TVMBO_CHECK(s.done == s.count) << "Team::publish before join";
    s.body = &fn;
    s.count = count;
    s.next = 0;
    s.done = 0;
    s.epoch.fetch_add(1, std::memory_order_release);
  }
  if (helpers_ > 0) s.work.notify_all();
  return Stage(&s, helpers_ > 0);
}

void ThreadPool::Team::Stage::extend(std::size_t count) {
  State& s = *state_;
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    TVMBO_CHECK_GE(count, s.count) << "Stage::extend cannot withdraw items";
    s.count = count;
    s.epoch.fetch_add(1, std::memory_order_release);
  }
  if (wake_) s.work.notify_all();
}

void ThreadPool::Team::Stage::join() {
  State& s = *state_;
  std::unique_lock<std::mutex> lock(s.mutex);
  joined_ = true;
  while (s.next < s.count) s.run_next(lock, 0);
  // Every item is claimed by now; wait for the ones helpers started
  // (never for a queued helper) before the frame holding the body unwinds.
  s.finished.wait(lock, [&s] { return s.done == s.count; });
  if (s.error) std::rethrow_exception(std::exchange(s.error, nullptr));
}

ThreadPool::Team::Stage::~Stage() {
  if (joined_) return;
  State& s = *state_;
  std::unique_lock<std::mutex> lock(s.mutex);
  s.count = s.next;
  s.finished.wait(lock, [&s] { return s.done == s.next; });
  s.error = nullptr;
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
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  Team team(*this, chunks - 1);
  team.run(chunks, [&](std::size_t c, std::size_t) {
    const std::size_t begin = c * base + std::min(c, extra);
    fn(begin, begin + base + (c < extra ? 1 : 0));
  });
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

// Fixed-size worker pool used for batched measurement (AutoTVM measures a
// batch of candidate configs per round; on multi-core hosts the CpuDevice
// compiles/validates them concurrently), for the Random-Forest fit and
// candidate scoring inside ytopt's ask, and for parallel loops of the
// closure backend.
//
// Parallel work is caller-participating (ThreadPool::Team, with
// parallel_for / parallel_for_chunks as its one-shot clients): the calling
// thread claims items alongside the workers and waits only for items a
// worker has already started. When every worker is busy (e.g. with
// in-flight measurements queued by an async MeasureRunner) the caller
// simply runs all items itself instead of queueing behind unrelated tasks;
// the helper tasks it queued later find the team closed and return without
// touching the caller's state.
//
// The design follows the Core Guidelines concurrency advice: the pool owns
// its threads (RAII join in the destructor), tasks communicate results via
// futures, and no raw new/delete appears anywhere.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tvmbo {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers. Used to
  /// run nested parallel work inline instead of deadlocking the pool
  /// (every worker blocked waiting on tasks no one is left to run).
  bool in_worker_thread() const;

  /// Enqueues a task; the returned future yields its result (or rethrows
  /// its exception).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task] { (*task)(); }, 1);
    return future;
  }

  /// Start/join form of the caller-participating protocol: a parallel
  /// region whose master is the calling thread. Constructing a Team queues
  /// its helper tasks at once, so workers wake while the caller still
  /// prepares the work; a started helper waits until items are published
  /// or the team closes (yielding for up to 100 µs, then asleep).
  /// publish() hands the helpers fn(item, participant) for item in
  /// [0, count), claimed one at a time, and returns a Stage; the caller may
  /// do other work until Stage::join(), where it claims the items left and
  /// waits only for items a helper has started, never for a helper still
  /// queued. A team may publish again after each join. `participant` is 0
  /// on the caller and 1..participants()-1 on helpers, so scratch sized
  /// before publish can be indexed by it without locking. Destroying the
  /// team releases waiting helpers; a helper that starts later returns
  /// without touching published work.
  class Team {
    struct State;

   public:
    using Body = std::function<void(std::size_t item, std::size_t participant)>;

    /// One publish's items. Declared after everything its body uses, so
    /// on an unwind before join() its destructor runs first: it withdraws
    /// the items nobody claimed and waits for the ones helpers started.
    class [[nodiscard]] Stage {
     public:
      Stage(const Stage&) = delete;
      Stage& operator=(const Stage&) = delete;
      ~Stage();

      /// Publishes items [published, count) too, for a caller that
      /// prepares items one at a time.
      void extend(std::size_t count);
      /// Runs the published items nobody claimed on the calling thread,
      /// waits for the items helpers started, and rethrows the first
      /// exception any item threw.
      void join();

     private:
      friend class Team;
      Stage(State* state, bool wake) : state_(state), wake_(wake) {}

      State* state_;
      bool wake_;
      bool joined_ = false;
    };

    /// Queues up to `helpers` helper tasks (at most num_threads()); none
    /// when called from inside one of the pool's workers, so the caller
    /// runs every item inline.
    Team(ThreadPool& pool, std::size_t helpers);
    ~Team();

    Team(const Team&) = delete;
    Team& operator=(const Team&) = delete;

    /// The caller plus the helpers queued.
    std::size_t participants() const { return helpers_ + 1; }

    /// Publishes items [0, count) of `fn`, which must outlive the Stage.
    /// The previous stage must have been joined.
    Stage publish(std::size_t count, const Body& fn);
    void run(std::size_t count, const Body& fn) { publish(count, fn).join(); }

   private:
    std::shared_ptr<State> state_;
    std::size_t helpers_;
  };

  /// Runs fn(i) for i in [0, count) across the pool and the calling
  /// thread and blocks until all complete. Work is split into at most
  /// num_threads() contiguous chunks (not one task per item) and run as
  /// one Team pass; the caller runs chunks itself and waits only for
  /// chunks a worker has started, so it never queues behind unrelated
  /// pool tasks. Every claimed chunk finishes before the call returns or
  /// throws; the first exception recorded is then rethrown. Calls from
  /// inside a worker thread run inline, in order.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Range-chunked variant: splits [0, count) into at most `max_chunks`
  /// contiguous chunks (additionally capped by num_threads()) and runs
  /// fn(begin, end) per chunk with the same caller-participating,
  /// wait-for-every-claimed-chunk semantics as parallel_for. `max_chunks`
  /// of 0 means num_threads(). Degenerate cases (count <= 1, one chunk,
  /// or a call from inside a worker thread) run fn(0, count) inline.
  void parallel_for_chunks(
      std::size_t count, std::size_t max_chunks,
      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  /// Queues `copies` copies of `task` and wakes that many workers.
  void enqueue(const std::function<void()>& task, std::size_t copies);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;
};

/// Process-wide default pool (lazily constructed, hardware concurrency).
ThreadPool& default_thread_pool();

}  // namespace tvmbo

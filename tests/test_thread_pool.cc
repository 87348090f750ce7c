#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

namespace tvmbo {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleThreadFallback) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(8, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  // Single-threaded pools run inline, in order.
  std::vector<int> expected(8);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& future : futures) future.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins; all enqueued tasks must have run
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Regression: parallel_for from inside a worker used to enqueue tasks
  // and block in future.get(); with every worker doing the same, no one
  // was left to drain the queue. Nested calls now run inline.
  ThreadPool pool(2);
  std::atomic<int> inner_hits{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_hits.fetch_add(1); });
  });
  EXPECT_EQ(inner_hits.load(), 32);
}

TEST(ThreadPool, NestedSubmitParallelForCompletes) {
  ThreadPool pool(2);
  auto future = pool.submit([&pool] {
    int sum = 0;
    std::mutex m;
    pool.parallel_for(16, [&](std::size_t i) {
      std::lock_guard<std::mutex> lock(m);
      sum += static_cast<int>(i);
    });
    return sum;
  });
  EXPECT_EQ(future.get(), 120);
}

TEST(ThreadPool, ParallelForChunksCoverLargeCounts) {
  // Work is chunked per thread (not one task per item): the queue must
  // not see 10k entries, and every index still runs exactly once.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForStillPropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error("chunk boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForWaitsForEveryChunkBeforeRethrowing) {
  // Regression: the first chunk's exception used to unwind the caller
  // while sibling chunks still ran with a reference to its frame. Chunk 0
  // throws at once; every other chunk must have finished (and bumped the
  // counter) before the exception reaches the caller.
  ThreadPool pool(4);
  const std::size_t chunks = pool.num_threads();
  std::atomic<std::size_t> finished{0};
  try {
    pool.parallel_for_chunks(chunks, 0, [&](std::size_t begin, std::size_t) {
      if (begin == 0) throw std::runtime_error("chunk 0 boom");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      finished.fetch_add(1);
    });
    FAIL() << "exception not propagated";
  } catch (const std::runtime_error&) {
    EXPECT_EQ(finished.load(), chunks - 1);
  }
}

TEST(ThreadPool, CallerRunsAllChunksWhileWorkersAreBlocked) {
  // Caller participation: with every worker stuck on unrelated tasks (an
  // async measurement backlog, say), parallel_for must still complete,
  // run entirely on the calling thread, instead of waiting behind them.
  ThreadPool pool(2);
  std::latch started(2);
  std::latch release(1);
  std::vector<std::future<void>> blockers;
  for (int i = 0; i < 2; ++i) {
    blockers.push_back(pool.submit([&] {
      started.count_down();
      release.wait();
    }));
  }
  started.wait();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> hits(16, 0);
  std::atomic<bool> off_caller{false};
  pool.parallel_for(hits.size(), [&](std::size_t i) {
    if (std::this_thread::get_id() != caller) off_caller = true;
    ++hits[i];
  });
  EXPECT_FALSE(off_caller.load());
  for (int hit : hits) EXPECT_EQ(hit, 1);
  // A team's stage likewise finishes on the caller alone: every item runs
  // as participant 0, including the items extend() publishes.
  {
    ThreadPool::Team team(pool, 2);
    const ThreadPool::Team::Body body = [&](std::size_t i, std::size_t p) {
      if (p != 0 || std::this_thread::get_id() != caller) off_caller = true;
      ++hits[i];
    };
    ThreadPool::Team::Stage stage = team.publish(4, body);
    stage.extend(hits.size());
    stage.join();
  }
  EXPECT_FALSE(off_caller.load());
  for (int hit : hits) EXPECT_EQ(hit, 2);
  release.count_down();
  for (auto& blocker : blockers) blocker.get();
  // The helper tasks queued behind the blockers now run as no-ops.
  pool.parallel_for(4, [](std::size_t) {});
}

TEST(ThreadPool, ParallelForChunksCoversRangeWithBoundedChunks) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::vector<std::atomic<int>> hits(103);  // not a multiple of any chunking
  pool.parallel_for_chunks(hits.size(), 3,
                           [&](std::size_t begin, std::size_t end) {
                             {
                               std::lock_guard<std::mutex> lock(m);
                               chunks.emplace_back(begin, end);
                             }
                             for (std::size_t i = begin; i < end; ++i) {
                               hits[i].fetch_add(1);
                             }
                           });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
  // max_chunks caps the fan-out and chunks tile the range exactly.
  EXPECT_LE(chunks.size(), 3u);
  std::size_t covered = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_LT(begin, end);
    covered += end - begin;
  }
  EXPECT_EQ(covered, hits.size());
}

TEST(ThreadPool, ParallelForChunksRunsInlineInsideWorker) {
  // Chunked dispatch from a worker thread must fall back to a single
  // inline chunk — same deadlock-avoidance contract as parallel_for.
  ThreadPool pool(2);
  auto future = pool.submit([&pool] {
    int calls = 0;
    std::size_t total = 0;
    pool.parallel_for_chunks(32, 0, [&](std::size_t begin, std::size_t end) {
      ++calls;
      total += end - begin;
    });
    return std::make_pair(calls, total);
  });
  const auto [calls, total] = future.get();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(total, 32u);
}

TEST(ThreadPool, ParallelForChunksPropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for_chunks(64, 0,
                               [](std::size_t begin, std::size_t) {
                                 if (begin > 0) {
                                   throw std::runtime_error("chunk boom");
                                 }
                               }),
      std::runtime_error);
}

TEST(ThreadPool, TeamOverlapsCallerWorkWithPublishedItems) {
  // publish() returns at once; items published one at a time run on the
  // helpers while the caller works, and each join is a barrier before the
  // next stage. Participant ids index per-participant state without locks.
  ThreadPool pool(4);
  ThreadPool::Team team(pool, 3);
  ASSERT_EQ(team.participants(), 4u);
  std::vector<int> first(64, 0);
  std::vector<std::size_t> per_participant(team.participants(), 0);
  const ThreadPool::Team::Body fill = [&](std::size_t i, std::size_t p) {
    ASSERT_LT(p, team.participants());
    ++per_participant[p];
    first[i] = static_cast<int>(i) + 1;
  };
  ThreadPool::Team::Stage stage = team.publish(0, fill);
  for (std::size_t i = 1; i <= first.size(); ++i) stage.extend(i);
  stage.join();
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i], static_cast<int>(i) + 1);
  }
  std::size_t total = 0;
  for (std::size_t n : per_participant) total += n;
  EXPECT_EQ(total, first.size());
  // The second stage sees every first-stage write.
  std::vector<int> second(first.size(), 0);
  team.run(second.size(), [&](std::size_t i, std::size_t) {
    second[i] = first[first.size() - 1 - i];
  });
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i], static_cast<int>(second.size() - i));
  }
}

TEST(ThreadPool, TeamRethrowsAfterStartedItemsFinish) {
  // Item 0 throws at once; join() rethrows only after every other item
  // ran to completion, and the team stays usable.
  ThreadPool pool(4);
  ThreadPool::Team team(pool, 3);
  std::atomic<std::size_t> finished{0};
  try {
    team.run(8, [&](std::size_t i, std::size_t) {
      if (i == 0) throw std::runtime_error("item 0 boom");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      finished.fetch_add(1);
    });
    FAIL() << "exception not propagated";
  } catch (const std::runtime_error&) {
    EXPECT_EQ(finished.load(), 7u);
  }
  std::atomic<std::size_t> again{0};
  team.run(5, [&](std::size_t, std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 5u);
}

TEST(ThreadPool, TeamStageUnwindWaitsForStartedItems) {
  // The caller throws between publish and join: the stage's destructor
  // withdraws the items nobody claimed and waits for the ones helpers
  // started before the frame they reference unwinds; the team stays
  // usable.
  ThreadPool pool(3);
  ThreadPool::Team team(pool, 2);
  std::atomic<int> running{0};
  std::atomic<int> started{0};
  try {
    std::vector<int> frame(64, 0);
    const ThreadPool::Team::Body body = [&](std::size_t i, std::size_t) {
      started.fetch_add(1);
      running.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      frame[i] = 1;
      running.fetch_sub(1);
    };
    ThreadPool::Team::Stage stage = team.publish(frame.size(), body);
    while (started.load() == 0) std::this_thread::yield();
    throw std::runtime_error("caller boom");
  } catch (const std::runtime_error&) {
    EXPECT_EQ(running.load(), 0);
    EXPECT_LT(started.load(), 64);
  }
  const int before = started.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(started.load(), before) << "a withdrawn item started";
  std::atomic<int> again{0};
  team.run(4, [&](std::size_t, std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 4);
}

TEST(ThreadPool, TeamInsideWorkerRunsInline) {
  ThreadPool pool(2);
  auto future = pool.submit([&pool] {
    ThreadPool::Team team(pool, 2);
    std::vector<std::size_t> order;
    bool off_thread = false;
    const std::thread::id self = std::this_thread::get_id();
    team.run(6, [&](std::size_t i, std::size_t p) {
      if (p != 0 || std::this_thread::get_id() != self) off_thread = true;
      order.push_back(i);
    });
    return std::make_tuple(team.participants(), order, off_thread);
  });
  const auto [participants, order, off_thread] = future.get();
  EXPECT_EQ(participants, 1u);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_FALSE(off_thread);
}

TEST(ThreadPool, InWorkerThreadDetection) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.in_worker_thread());
  auto future = pool.submit([&pool] { return pool.in_worker_thread(); });
  EXPECT_TRUE(future.get());
}

TEST(ThreadPool, DefaultPoolIsSingleton) {
  EXPECT_EQ(&default_thread_pool(), &default_thread_pool());
  EXPECT_GE(default_thread_pool().num_threads(), 1u);
}

}  // namespace
}  // namespace tvmbo

// The completion-driven measurement engine: submit/wait_any slot refill,
// straggler overlap for both streamed and batched trials, fixed-seed
// determinism equivalence of streaming and barrier rounds,
// dispatch/complete trace events, and the TraceLog timestamp-ordering
// regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "runtime/cpu_device.h"
#include "runtime/measure_runner.h"
#include "runtime/swing_sim.h"
#include "runtime/trace_log.h"
#include "tuners/measure_loop.h"
#include "ytopt/bayes_opt.h"

namespace tvmbo::runtime {
namespace {

Workload lu_workload(std::int64_t n) {
  Workload w;
  w.kernel = "lu";
  w.size_name = "large";
  w.dims = {n};
  return w;
}

/// CpuDevice input whose run sleeps for `ms` milliseconds.
MeasureInput sleep_input(int ms) {
  MeasureInput input;
  input.workload = lu_workload(8);
  input.run = [ms] {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  };
  return input;
}

TEST(AsyncPipeline, SerialStreamingMatchesBatchInSubmissionOrder) {
  // The fixed-seed determinism mode: a non-parallel runner has one
  // streaming slot, so completions arrive in submission order with
  // results identical to the batch path on the stateful sim device.
  const Workload w = lu_workload(2000);
  const auto space = kernels::build_space("lu", w.dims);
  Rng rng(23);
  std::vector<MeasureInput> inputs;
  for (int i = 0; i < 10; ++i) {
    MeasureInput input;
    input.workload = w;
    input.tiles = space.values_int(space.sample(rng));
    inputs.push_back(std::move(input));
  }
  MeasureOption option;
  option.repeat = 2;

  SwingSimDevice batch_device(2023);
  MeasureRunner batch_runner(&batch_device);
  const auto batch_results = batch_runner.measure_batch(inputs, option);

  SwingSimDevice stream_device(2023);
  MeasureRunner stream_runner(&stream_device);
  EXPECT_EQ(stream_runner.async_slots(), 1u);
  std::vector<MeasureRunner::Ticket> tickets;
  for (const MeasureInput& input : inputs) {
    tickets.push_back(stream_runner.submit(input, option));
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto completion = stream_runner.wait_any();
    EXPECT_EQ(completion.ticket, tickets[i]) << "completion order";
    EXPECT_DOUBLE_EQ(completion.result.runtime_s,
                     batch_results[i].runtime_s);
    EXPECT_DOUBLE_EQ(completion.result.energy_j, batch_results[i].energy_j);
  }
  EXPECT_EQ(stream_runner.in_flight(), 0u);
}

TEST(AsyncPipeline, StragglerDoesNotIdleOtherSlots) {
  // One slow trial plus a stream of fast ones on 4 slots: every fast
  // trial must complete while the straggler is still running — the batch
  // path's wave barrier would hold all of them hostage.
  CpuDevice device;
  MeasureRunnerOptions options;
  options.parallel = true;
  ThreadPool pool(4);
  MeasureRunner runner(&device, options, &pool);
  ASSERT_GE(runner.async_slots(), 4u);
  MeasureOption option;
  option.repeat = 1;

  const Stopwatch wall;
  const MeasureRunner::Ticket slow = runner.submit(sleep_input(400), option);
  std::set<MeasureRunner::Ticket> fast;
  for (int i = 0; i < 9; ++i) {
    fast.insert(runner.submit(sleep_input(2), option));
  }
  // All nine fast completions land while the straggler sleeps.
  for (int i = 0; i < 9; ++i) {
    const auto completion = runner.wait_any();
    EXPECT_NE(completion.ticket, slow) << "straggler finished first?";
    EXPECT_EQ(fast.erase(completion.ticket), 1u);
  }
  EXPECT_LT(wall.elapsed_seconds(), 0.35)
      << "fast trials were serialized behind the straggler";
  EXPECT_EQ(runner.wait_any().ticket, slow);
  EXPECT_EQ(runner.in_flight(), 0u);
}

TEST(AsyncPipeline, BatchKeepsSlotsFullOnHeterogeneousLatency) {
  // measure_batch is submit-all plus collect-all over the streaming
  // engine: a freed slot takes the next queued trial at once, so the
  // stragglers overlap instead of each holding a wave of four hostage.
  CpuDevice device;
  MeasureRunnerOptions options;
  options.parallel = true;
  ThreadPool pool(4);
  MeasureRunner runner(&device, options, &pool);
  ASSERT_GE(runner.async_slots(), 4u);
  MeasureOption option;
  option.repeat = 1;

  // 16 trials, one 100 ms straggler per 4, the rest 2 ms.
  std::vector<MeasureInput> inputs;
  for (int i = 0; i < 16; ++i) {
    inputs.push_back(sleep_input(i % 4 == 0 ? 100 : 2));
  }

  const Stopwatch wall;
  const auto results = runner.measure_batch(inputs, option);
  const double batch_s = wall.elapsed_seconds();
  ASSERT_EQ(results.size(), inputs.size());
  for (const MeasureResult& result : results) EXPECT_TRUE(result.valid);
  // Four waves would take >= 400 ms; full slots take ~100-150 ms. The
  // bound is 0.6x the wave time to stay robust on loaded hosts.
  EXPECT_LT(batch_s, 0.24) << "measure_batch took " << batch_s << " s";
}

TEST(AsyncPipeline, DispatchAndCompleteTraceEventsBracketEachTrial) {
  std::ostringstream sink;
  TraceLog trace(&sink);
  SwingSimDevice device(7);
  MeasureRunnerOptions options;
  options.trace = &trace;
  options.strategy = "ytopt";
  MeasureRunner runner(&device, options);

  const Workload w = lu_workload(2000);
  const auto space = kernels::build_space("lu", w.dims);
  Rng rng(29);
  MeasureOption option;
  for (int i = 0; i < 3; ++i) {
    MeasureInput input;
    input.workload = w;
    input.tiles = space.values_int(space.sample(rng));
    runner.submit(input, option);
  }
  for (int i = 0; i < 3; ++i) runner.wait_any();

  std::map<std::string, int> counts;
  std::map<std::size_t, int> order;  // trial -> dispatch seen before complete
  double last_ts = -1.0;
  for (const Json& event : Json::parse_lines(sink.str())) {
    const std::string name = event.at("event").as_string();
    counts[name]++;
    EXPECT_EQ(event.at("strategy").as_string(), "ytopt");
    EXPECT_GE(event.at("ts").as_double(), last_ts);
    last_ts = event.at("ts").as_double();
    const auto trial = static_cast<std::size_t>(event.at("trial").as_int());
    if (name == "dispatch") order[trial]++;
    if (name == "complete") {
      EXPECT_EQ(order[trial], 1) << "complete without dispatch";
      EXPECT_TRUE(event.at("valid").as_bool());
    }
  }
  EXPECT_EQ(counts["proposed"], 3);
  EXPECT_EQ(counts["dispatch"], 3);
  EXPECT_EQ(counts["complete"], 3);
  EXPECT_EQ(counts["result"], 3);
}

TEST(AsyncPipeline, DestructorDrainsInFlightTrials) {
  CpuDevice device;
  MeasureRunnerOptions options;
  options.parallel = true;
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  {
    MeasureRunner runner(&device, options, &pool);
    MeasureOption option;
    option.repeat = 1;
    for (int i = 0; i < 6; ++i) {
      MeasureInput input;
      input.workload = lu_workload(8);
      input.run = [&finished] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        finished.fetch_add(1);
      };
      runner.submit(input, option);
    }
    // No wait_any: the destructor must block until every dispatched job
    // is done (they capture the runner), discarding the results.
  }
  EXPECT_GT(finished.load(), 0);
}

TEST(AsyncPipeline, AsyncLoopMatchesBatchLoopFixedSeed) {
  // run_measure_loop_async with a serial runner reproduces the batch
  // loop's trajectory exactly at batch size 1 (strict ask/measure/tell
  // alternation, empty pending set at every refit).
  const Workload w = lu_workload(2000);
  const auto space = kernels::build_space("lu", w.dims);
  auto make_input = [&](const cs::Configuration& config) {
    MeasureInput input;
    input.workload = w;
    input.tiles = space.values_int(config);
    return input;
  };
  tuners::MeasureLoopOptions loop_options;
  loop_options.max_evaluations = 30;
  loop_options.batch_size = 1;

  SwingSimDevice batch_device(2023);
  MeasureRunner batch_runner(&batch_device);
  ytopt::BayesianOptimizer batch_bo(&space, 99);
  const auto batch = tuners::run_measure_loop(batch_bo, batch_runner,
                                              make_input, loop_options);

  SwingSimDevice stream_device(2023);
  MeasureRunner stream_runner(&stream_device);
  ytopt::BayesianOptimizer stream_bo(&space, 99);
  const auto streamed = tuners::run_measure_loop_async(
      stream_bo, stream_runner, make_input, loop_options);

  ASSERT_EQ(batch.evaluations, streamed.evaluations);
  ASSERT_EQ(batch.trials.size(), streamed.trials.size());
  for (std::size_t i = 0; i < batch.trials.size(); ++i) {
    EXPECT_TRUE(batch.trials[i].config == streamed.trials[i].config)
        << "trajectory diverged at trial " << i;
    EXPECT_DOUBLE_EQ(batch.trials[i].runtime_s, streamed.trials[i].runtime_s);
  }
}

TEST(AsyncPipeline, AsyncLoopKeepsSlotsFullWithParallelRunner) {
  // With 4 slots and a liar-imputing tuner the async loop completes the
  // budget, never proposes a config twice, and tells every result back.
  const Workload w = lu_workload(2000);
  const auto space = kernels::build_space("lu", w.dims);
  auto make_input = [&](const cs::Configuration& config) {
    MeasureInput input;
    input.workload = w;
    input.tiles = space.values_int(config);
    input.run = [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    return input;
  };
  CpuDevice device;
  MeasureRunnerOptions options;
  options.parallel = true;
  ThreadPool pool(4);
  MeasureRunner runner(&device, options, &pool);
  ytopt::BayesianOptimizer bo(&space, 5);
  tuners::MeasureLoopOptions loop_options;
  loop_options.max_evaluations = 40;
  const auto out =
      tuners::run_measure_loop_async(bo, runner, make_input, loop_options);
  EXPECT_EQ(out.evaluations, 40u);
  EXPECT_EQ(bo.pending_count(), 0u);
  std::set<std::uint64_t> seen;
  for (const auto& trial : out.trials) {
    EXPECT_TRUE(seen.insert(trial.config.hash()).second)
        << "config measured twice";
  }
}

TEST(AsyncPipeline, AsyncSessionMatchesBatchSessionTrajectory) {
  // Session-level fixed-seed determinism: --async without --parallel
  // visits exactly the configurations of the batch path (ytopt at batch
  // size 1); only the time columns differ (wall vs modeled clock).
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kLarge);
  auto run = [&](bool async) {
    SwingSimDevice device(2023);
    framework::SessionOptions options;
    options.max_evaluations = 25;
    options.async = async;
    framework::AutotuningSession session(&task, &device, options);
    return session.run(framework::StrategyKind::kYtopt);
  };
  const auto batch = run(false);
  const auto async = run(true);
  ASSERT_EQ(batch.db.records().size(), async.db.records().size());
  for (std::size_t i = 0; i < batch.db.records().size(); ++i) {
    EXPECT_EQ(batch.db.records()[i].tiles, async.db.records()[i].tiles)
        << "evaluation " << i << " diverged";
    EXPECT_DOUBLE_EQ(batch.db.records()[i].runtime_s,
                     async.db.records()[i].runtime_s);
  }
}

TEST(TraceLog, TimestampsMonotoneAcrossConcurrentBurst) {
  // Regression: record() used to read the clock before taking the lock,
  // so a later-stamped recorder could win the lock and the JSONL lines
  // came out with non-monotonic "ts" under parallel runners.
  std::ostringstream sink;
  TraceLog trace(&sink);
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, t] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        Json event = Json::object();
        event.set("event", "burst");
        event.set("thread", t);
        event.set("i", i);
        trace.record(std::move(event));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::vector<Json> events = Json::parse_lines(sink.str());
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kEventsPerThread));
  double last_ts = -1.0;
  for (const Json& event : events) {
    const double ts = event.at("ts").as_double();
    EXPECT_GE(ts, last_ts) << "non-monotonic trace timestamps";
    last_ts = ts;
  }
}

}  // namespace
}  // namespace tvmbo::runtime

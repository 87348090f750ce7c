// MeasureRunner: deterministic ordering, serial/parallel equivalence,
// the device concurrency bound and inline one-slot execution on both
// entry points, per-trial fault isolation, retry policy, and the
// JSON-lines trace.
#include "runtime/measure_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/logging.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "runtime/cpu_device.h"
#include "runtime/swing_sim.h"
#include "tuners/measure_loop.h"
#include "tuners/random_tuner.h"
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

/// A batch of distinct simulated-device inputs sampled from the LU space.
std::vector<MeasureInput> sim_batch(std::size_t count) {
  const Workload w = lu_workload(2000);
  const auto space = kernels::build_space("lu", w.dims);
  Rng rng(17);
  std::vector<MeasureInput> inputs;
  for (std::size_t i = 0; i < count; ++i) {
    MeasureInput input;
    input.workload = w;
    input.tiles = space.values_int(space.sample(rng));
    inputs.push_back(std::move(input));
  }
  return inputs;
}

TEST(MeasureRunner, ParallelEqualsSerialOnSwingSim) {
  const std::vector<MeasureInput> inputs = sim_batch(16);
  MeasureOption option;
  option.repeat = 3;

  SwingSimDevice serial_device(2023);
  MeasureRunner serial(&serial_device);  // default: serial fallback
  const auto serial_results = serial.measure_batch(inputs, option);

  SwingSimDevice parallel_device(2023);
  MeasureRunnerOptions parallel_options;
  parallel_options.parallel = true;
  ThreadPool pool(4);  // explicit: the default pool may be single-threaded
  MeasureRunner parallel(&parallel_device, parallel_options, &pool);
  const auto parallel_results = parallel.measure_batch(inputs, option);

  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (std::size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel_results[i].runtime_s,
                     serial_results[i].runtime_s)
        << "trial " << i;
    EXPECT_DOUBLE_EQ(parallel_results[i].compile_s,
                     serial_results[i].compile_s);
    EXPECT_DOUBLE_EQ(parallel_results[i].energy_j,
                     serial_results[i].energy_j);
    EXPECT_EQ(parallel_results[i].valid, serial_results[i].valid);
  }
}

TEST(MeasureRunner, FaultIsolationOneThrowingTrialRestSucceed) {
  CpuDevice device;
  std::vector<MeasureInput> inputs;
  for (int i = 0; i < 6; ++i) {
    MeasureInput input;
    input.workload = lu_workload(8);
    if (i == 3) {
      input.run = [] { throw std::runtime_error("trial 3 exploded"); };
    } else {
      input.run = [] {};
    }
    inputs.push_back(std::move(input));
  }
  MeasureRunnerOptions options;
  options.parallel = true;
  ThreadPool pool(4);
  MeasureRunner runner(&device, options, &pool);
  const auto results = runner.measure_batch(inputs, MeasureOption{});
  ASSERT_EQ(results.size(), 6u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 3) {
      EXPECT_FALSE(results[i].valid);
      EXPECT_EQ(results[i].error, "trial 3 exploded");
    } else {
      EXPECT_TRUE(results[i].valid) << "trial " << i;
      EXPECT_TRUE(results[i].error.empty());
    }
  }
}

TEST(MeasureRunner, TimeoutIsolatedInParallelBatch) {
  CpuDevice device;
  std::vector<MeasureInput> inputs;
  for (int i = 0; i < 4; ++i) {
    MeasureInput input;
    input.workload = lu_workload(8);
    if (i == 1) {
      input.run = [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      };
    } else {
      input.run = [] {};
    }
    inputs.push_back(std::move(input));
  }
  MeasureOption option;
  option.repeat = 1;
  option.timeout_s = 0.005;
  MeasureRunnerOptions options;
  options.parallel = true;
  ThreadPool pool(4);
  MeasureRunner runner(&device, options, &pool);
  const auto results = runner.measure_batch(inputs, option);
  EXPECT_FALSE(results[1].valid);
  EXPECT_EQ(results[1].error.rfind("timeout", 0), 0u);
  for (std::size_t i : {0u, 2u, 3u}) {
    EXPECT_TRUE(results[i].valid) << "trial " << i;
  }
}

/// Reports `tiles[0]` as the runtime, so the slot a result lands in can
/// be checked exactly, and sleeps longest for the smallest tile, so on a
/// multi-thread pool trials complete in reverse submission order.
class ReverseSleepDevice final : public Device {
 public:
  explicit ReverseSleepDevice(std::int64_t n) : n_(n) {}

  std::string name() const override { return "reverse-sleep"; }

  MeasureResult measure(const MeasureInput& input,
                        const MeasureOption&) override {
    const std::int64_t slot = input.tiles.at(0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2 * (n_ - slot)));
    MeasureResult result;
    result.runtime_s = static_cast<double>(slot);
    return result;
  }

  std::size_t max_concurrent_measurements() const override { return 0; }

 private:
  std::int64_t n_;
};

TEST(MeasureRunner, ResultsInSubmissionOrderDespiteCompletionOrder) {
  // Later-submitted trials finish first (shorter sleeps); each result
  // must still land in its submission slot.
  const int n = 6;
  ReverseSleepDevice device(n);
  std::vector<MeasureInput> inputs;
  for (int i = 0; i < n; ++i) {
    MeasureInput input;
    input.workload = lu_workload(8);
    input.tiles = {i};
    inputs.push_back(std::move(input));
  }
  MeasureRunnerOptions options;
  options.parallel = true;
  ThreadPool pool(4);  // real concurrency: completion order != submission
  MeasureRunner runner(&device, options, &pool);
  const auto results = runner.measure_batch(inputs, MeasureOption{});
  ASSERT_EQ(results.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(results[i].valid) << "slot " << i;
    EXPECT_EQ(results[i].runtime_s, static_cast<double>(i)) << "slot " << i;
  }
}

/// Fails the first `failures_per_config` measurements of each distinct
/// configuration, then succeeds — a transient fault.
class TransientlyFlakyDevice final : public Device {
 public:
  TransientlyFlakyDevice(Device* inner, int failures_per_config)
      : inner_(inner), failures_per_config_(failures_per_config) {}

  std::string name() const override { return "transient"; }

  MeasureResult measure(const MeasureInput& input,
                        const MeasureOption& option) override {
    const std::string key = input.workload.id();
    if (attempts_[key]++ < failures_per_config_) {
      throw std::runtime_error("transient fault");
    }
    return inner_->measure(input, option);
  }

 private:
  Device* inner_;
  int failures_per_config_;
  std::map<std::string, int> attempts_;
};

TEST(MeasureRunner, RetryPolicyRecoversTransientFailures) {
  SwingSimDevice sim(3);
  TransientlyFlakyDevice flaky(&sim, 2);
  MeasureRunnerOptions options;
  options.retry.max_retries = 2;
  MeasureRunner runner(&flaky, options);
  MeasureInput input;
  input.workload = lu_workload(2000);
  input.tiles = {40, 50};
  MeasureOption measure_option;
  const MeasureResult result = runner.measure_one(input, measure_option);
  EXPECT_TRUE(result.valid);
  EXPECT_GT(result.runtime_s, 0.0);
}

TEST(MeasureRunner, NoRetriesReportsTransientFailure) {
  SwingSimDevice sim(3);
  TransientlyFlakyDevice flaky(&sim, 1);
  MeasureRunner runner(&flaky);
  MeasureInput input;
  input.workload = lu_workload(2000);
  input.tiles = {40, 50};
  const MeasureResult result = runner.measure_one(input, MeasureOption{});
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.error, "transient fault");
}

TEST(MeasureRunner, RetryPolicyDoesNotRetryTimeoutsByDefault) {
  SwingSimDevice sim(3);
  MeasureRunnerOptions options;
  options.retry.max_retries = 5;
  MeasureRunner runner(&sim, options);
  MeasureInput input;
  input.workload = lu_workload(2000);
  input.tiles = {2000, 1};  // pathologically slow configuration
  MeasureOption option;
  option.repeat = 1;
  option.timeout_s = 0.001;
  const MeasureResult result = runner.measure_one(input, option);
  EXPECT_FALSE(result.valid);
  // One attempt only (timeouts are persistent): trace would show no
  // retries; here we just assert the failure is preserved.
  EXPECT_EQ(result.error.rfind("timeout", 0), 0u);
}

TEST(MeasureRunner, TraceLogRecordsTrialLifecycle) {
  std::ostringstream sink;
  TraceLog trace(&sink);
  SwingSimDevice sim(5);
  TransientlyFlakyDevice flaky(&sim, 1);
  MeasureRunnerOptions options;
  options.retry.max_retries = 1;
  options.trace = &trace;
  options.strategy = "ytopt";
  MeasureRunner runner(&flaky, options);

  const auto inputs = sim_batch(2);
  runner.measure_batch(inputs, MeasureOption{});

  const std::vector<Json> events = Json::parse_lines(sink.str());
  ASSERT_FALSE(events.empty());
  std::map<std::string, int> counts;
  double last_ts = -1.0;
  for (const Json& event : events) {
    ASSERT_TRUE(event.is_object());
    counts[event.at("event").as_string()]++;
    EXPECT_EQ(event.at("strategy").as_string(), "ytopt");
    EXPECT_GE(event.at("ts").as_double(), last_ts);
    last_ts = event.at("ts").as_double();
  }
  EXPECT_EQ(counts["proposed"], 2);
  EXPECT_EQ(counts["result"], 2);
  // Both configs share one workload id, so the transient device fails
  // only the very first attempt: one retry event total.
  EXPECT_EQ(counts["retry"], 1);
  EXPECT_GE(counts["compile"], 3);  // 2 trials + 1 retried attempt
  EXPECT_EQ(counts["compile"], counts["run"]);
}

TEST(MeasureRunner, NestedDispatchFromWorkerRunsInline) {
  // A runner invoked from inside a pool worker must not deadlock waiting
  // for free workers.
  CpuDevice device;
  MeasureRunnerOptions options;
  options.parallel = true;
  ThreadPool pool(2);
  MeasureRunner runner(&device, options, &pool);
  auto future = pool.submit([&] {
    std::vector<MeasureInput> inputs;
    for (int i = 0; i < 4; ++i) {
      MeasureInput input;
      input.workload = lu_workload(8);
      input.run = [] {};
      inputs.push_back(std::move(input));
    }
    return runner.measure_batch(inputs, MeasureOption{}).size();
  });
  EXPECT_EQ(future.get(), 4u);
}

/// Declares a concurrency bound of 2 and records the peak number of
/// measure() calls it ever saw running at once.
class BoundedDevice final : public Device {
 public:
  std::string name() const override { return "bounded"; }

  MeasureResult measure(const MeasureInput&, const MeasureOption&) override {
    const int now = active_.fetch_add(1) + 1;
    int seen = peak_.load();
    while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    active_.fetch_sub(1);
    return MeasureResult{};
  }

  std::size_t max_concurrent_measurements() const override { return 2; }
  int peak() const { return peak_.load(); }

 private:
  std::atomic<int> active_{0};
  std::atomic<int> peak_{0};
};

TEST(MeasureRunner, DeviceBoundCapsConcurrencyOnBothEntryPoints) {
  MeasureRunnerOptions options;
  options.parallel = true;
  ThreadPool pool(4);
  const std::vector<MeasureInput> inputs = sim_batch(8);

  BoundedDevice batch_device;
  MeasureRunner batch_runner(&batch_device, options, &pool);
  EXPECT_EQ(batch_runner.async_slots(), 2u);
  batch_runner.measure_batch(inputs, MeasureOption{});
  EXPECT_EQ(batch_device.peak(), 2);

  BoundedDevice stream_device;
  MeasureRunner stream_runner(&stream_device, options, &pool);
  for (const MeasureInput& input : inputs) {
    stream_runner.submit(input, MeasureOption{});
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) stream_runner.wait_any();
  EXPECT_EQ(stream_device.peak(), 2);
}

/// Records the thread every measure() call runs on.
class ThreadRecordingDevice final : public Device {
 public:
  std::string name() const override { return "thread-recording"; }

  MeasureResult measure(const MeasureInput&, const MeasureOption&) override {
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::this_thread::get_id());
    return MeasureResult{};
  }

  std::size_t max_concurrent_measurements() const override { return 0; }
  std::vector<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::thread::id> threads_;
};

TEST(MeasureRunner, SerialRunnerMeasuresOnTheCallingThread) {
  // One slot means no pool handoff: both entry points run every trial
  // inline on the driver's thread.
  ThreadRecordingDevice device;
  ThreadPool pool(4);
  MeasureRunner runner(&device, MeasureRunnerOptions{}, &pool);
  const std::vector<MeasureInput> inputs = sim_batch(4);
  runner.measure_batch(inputs, MeasureOption{});
  for (const MeasureInput& input : inputs) {
    runner.submit(input, MeasureOption{});
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) runner.wait_any();

  const std::vector<std::thread::id> threads = device.threads();
  ASSERT_EQ(threads.size(), 2 * inputs.size());
  for (const std::thread::id id : threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(MeasureLoop, QlcbBatchParallelEqualsSerial) {
  // The qLCB batch path end-to-end: ytopt proposes batches of 8, the
  // runner measures them — parallel and serial engines must produce the
  // same trial history on the simulated device.
  const Workload w = lu_workload(2000);
  const auto space = kernels::build_space("lu", w.dims);
  auto make_input = [&](const cs::Configuration& config) {
    MeasureInput input;
    input.workload = w;
    input.tiles = space.values_int(config);
    return input;
  };
  tuners::MeasureLoopOptions loop_options;
  loop_options.max_evaluations = 32;
  loop_options.batch_size = 8;

  ThreadPool pool(4);
  auto run = [&](bool parallel) {
    SwingSimDevice device(2023);
    MeasureRunnerOptions options;
    options.parallel = parallel;
    MeasureRunner runner(&device, options, &pool);
    ytopt::BayesianOptimizer bo(&space, 99);
    return tuners::run_measure_loop(bo, runner, make_input, loop_options);
  };
  const auto serial = run(false);
  const auto parallel = run(true);

  ASSERT_EQ(serial.evaluations, parallel.evaluations);
  ASSERT_EQ(serial.trials.size(), parallel.trials.size());
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    EXPECT_TRUE(serial.trials[i].config == parallel.trials[i].config);
    EXPECT_DOUBLE_EQ(serial.trials[i].runtime_s,
                     parallel.trials[i].runtime_s);
  }
}

TEST(MeasureLoop, InvalidTrialsDoNotAbortTheLoop) {
  CpuDevice device;
  const Workload w = lu_workload(8);
  const auto space = kernels::build_space("lu", w.dims);
  std::atomic<int> proposals{0};
  auto make_input = [&](const cs::Configuration& config) {
    MeasureInput input;
    input.workload = w;
    input.tiles = space.values_int(config);
    // Every third proposed trial fails (on every one of its runs); the
    // rest succeed. Per-trial, not per-run, so warmup repeats don't
    // poison the healthy trials.
    const bool flaky = proposals.fetch_add(1) % 3 == 0;
    input.run = [flaky] {
      if (flaky) throw std::runtime_error("flaky kernel");
    };
    return input;
  };
  tuners::MeasureLoopOptions loop_options;
  loop_options.max_evaluations = 12;
  loop_options.batch_size = 4;
  MeasureRunner runner(&device);
  tuners::RandomTuner tuner(&space, 7);
  const auto out =
      tuners::run_measure_loop(tuner, runner, make_input, loop_options);
  EXPECT_EQ(out.evaluations, 12u);
  int invalid = 0;
  for (const auto& trial : out.trials) invalid += trial.valid ? 0 : 1;
  EXPECT_GT(invalid, 0);
  EXPECT_LT(invalid, 12);
}

TEST(Session, ParallelMeasurementMatchesSerialOnSwingSim) {
  // The acceptance contract: an AutotuningSession with the parallel
  // engine produces exactly the records of the serial fallback on the
  // simulated device.
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kLarge);
  auto run = [&](bool parallel) {
    SwingSimDevice device(2023);
    framework::SessionOptions options;
    options.max_evaluations = 40;
    options.measure.parallel = parallel;
    framework::AutotuningSession session(&task, &device, options);
    return session.run(framework::StrategyKind::kAutotvmRandom);
  };
  const auto serial = run(false);
  const auto parallel = run(true);
  ASSERT_EQ(serial.db.records().size(), parallel.db.records().size());
  for (std::size_t i = 0; i < serial.db.records().size(); ++i) {
    const auto& a = serial.db.records()[i];
    const auto& b = parallel.db.records()[i];
    EXPECT_EQ(a.tiles, b.tiles);
    EXPECT_DOUBLE_EQ(a.runtime_s, b.runtime_s);
    EXPECT_DOUBLE_EQ(a.elapsed_s, b.elapsed_s);
  }
  EXPECT_DOUBLE_EQ(serial.total_time_s, parallel.total_time_s);
}

TEST(Session, AsyncRejectsYtoptBatch) {
  // Streaming asks one configuration per free slot; a qLCB batch size
  // would be silently ignored, so the combination is refused.
  const autotvm::Task task =
      kernels::make_task("lu", kernels::Dataset::kLarge);
  SwingSimDevice device(2023);
  framework::SessionOptions options;
  options.async = true;
  options.ytopt_batch_size = 4;
  EXPECT_THROW(framework::AutotuningSession(&task, &device, options),
               CheckError);
  options.ytopt_batch_size = 1;
  EXPECT_NO_THROW(framework::AutotuningSession(&task, &device, options));
}

}  // namespace
}  // namespace tvmbo::runtime
